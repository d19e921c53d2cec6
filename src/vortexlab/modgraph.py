"""Combinatorial types of nodal marked curves.

A modular graph records the components of a nodal curve (vertices with a
genus), the nodes (edges, loops allowed) and the markings (legs).  The two
contraction moves smooth a node; stabilization contracts genus-0 components
with fewer than three special points; the cylinder-chain decomposition
extracts the paths of unstable two-ended spheres that hang off a stable core.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import VortexlabError

__all__ = [
    "ModularGraph",
    "CylChain",
    "CylChainDecomposition",
    "GraphError",
    "total_genus",
    "contract_edge",
    "is_stable",
    "stabilize",
    "cyl_chains",
    "canonical_form",
    "graph_from_json",
]


class GraphError(VortexlabError, ValueError):
    """Raised for malformed graphs or illegal graph operations."""


@dataclass(frozen=True)
class ModularGraph:
    """Vertices with genus, a multiset of edges and ordered legs.

    ``genus`` maps vertex id -> nonnegative integer.  ``edges`` is a tuple of
    unordered vertex-id pairs addressed by position (loops allowed).  ``legs``
    is a tuple of (marking index, vertex id); marking indices must be a
    bijection with 1..n.
    """

    genus: dict
    edges: tuple
    legs: tuple

    def __post_init__(self):
        if not self.genus:
            raise GraphError("graph needs at least one vertex")
        for v, g in self.genus.items():
            if not isinstance(g, int) or g < 0:
                raise GraphError(f"vertex {v!r} has invalid genus {g!r}")
        for e in self.edges:
            if len(e) != 2 or any(v not in self.genus for v in e):
                raise GraphError(f"edge {e!r} references unknown vertex")
        for idx, v in self.legs:
            if v not in self.genus:
                raise GraphError(f"leg {idx} attached to unknown vertex {v!r}")
        indices = sorted(idx for idx, _ in self.legs)
        if indices != list(range(1, len(indices) + 1)):
            raise GraphError(f"marking indices {indices} are not a bijection with 1..n")
        if not self._connected():
            raise GraphError("underlying graph is not connected")

    def _connected(self) -> bool:
        verts = set(self.genus)
        seen = {next(iter(verts))}
        frontier = list(seen)
        adj = {v: set() for v in verts}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen == verts

    @property
    def n_markings(self) -> int:
        return len(self.legs)

    def vertex_ids(self):
        return sorted(self.genus, key=str)

    def incident_edges(self, v) -> list:
        return [i for i, e in enumerate(self.edges) if v in e]

    def special_points(self, v) -> int:
        """Edge ends plus legs at v; a loop counts twice."""
        count = sum(1 for idx, w in self.legs if w == v)
        for a, b in self.edges:
            count += (a == v) + (b == v)
        return count

    def legs_at(self, v) -> list:
        return [idx for idx, w in self.legs if w == v]

    def neighbors(self, v) -> list:
        out = []
        for a, b in self.edges:
            if a == v and b != v:
                out.append(b)
            elif b == v and a != v:
                out.append(a)
        return out

    def __eq__(self, other):
        if not isinstance(other, ModularGraph):
            return NotImplemented
        return canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))


def total_genus(g: ModularGraph) -> int:
    """Vertex genera plus the first Betti number of the graph."""
    return sum(g.genus.values()) + len(g.edges) - len(g.genus) + 1


def contract_edge(g: ModularGraph, e: int) -> ModularGraph:
    """Contract edge ``e``: merge endpoints (summing genera) for a non-loop,
    or delete the edge and increment the vertex genus by one for a loop."""
    if not 0 <= e < len(g.edges):
        raise GraphError(f"unknown edge id {e}")
    a, b = g.edges[e]
    rest = tuple(edge for i, edge in enumerate(g.edges) if i != e)
    if a == b:
        genus = dict(g.genus)
        genus[a] = genus[a] + 1
        return ModularGraph(genus, rest, g.legs)
    keep, drop = (a, b) if str(a) <= str(b) else (b, a)
    genus = {v: gg for v, gg in g.genus.items() if v != drop}
    genus[keep] = g.genus[a] + g.genus[b]
    sub = lambda v: keep if v == drop else v
    edges = tuple((sub(x), sub(y)) for x, y in rest)
    legs = tuple((idx, sub(v)) for idx, v in g.legs)
    return ModularGraph(genus, edges, legs)


def is_stable(g: ModularGraph) -> bool:
    """Each genus-0 vertex needs >= 3 special points, each genus-1 vertex >= 1."""
    for v, gv in g.genus.items():
        s = g.special_points(v)
        if gv == 0 and s < 3:
            return False
        if gv == 1 and s < 1:
            return False
    return True


def _unstable_vertices(g: ModularGraph) -> list:
    return [v for v in g.vertex_ids() if g.genus[v] == 0 and g.special_points(v) < 3]


def stabilize(g: ModularGraph) -> ModularGraph:
    """Contract genus-0 vertices with fewer than three special points.

    Requires a stable model to exist: n >= 1 and n + 2*genus - 3 >= 0.
    Idempotent; preserves total genus and the marking set.
    """
    n = g.n_markings
    if n < 1 or n + 2 * total_genus(g) - 3 < 0:
        raise GraphError(
            f"no stable model: n={n}, total genus={total_genus(g)}"
        )
    cur = g
    while True:
        bad = _unstable_vertices(cur)
        if not bad:
            return cur
        progressed = False
        for v in bad:
            incident = [i for i in cur.incident_edges(v) if cur.edges[i][0] != cur.edges[i][1]]
            if incident:
                cur = contract_edge(cur, incident[0])
                progressed = True
                break
        if not progressed:
            raise GraphError("unstable vertex with no contractible edge; no stable model")


@dataclass(frozen=True)
class CylChain:
    """One path of unstable two-ended spheres.

    ``kind`` is "marking" (anchored at a leg, which sits on the last vertex)
    or "node" (attached to the stable core at both ends).  ``vertices`` is
    ordered so the first vertex attaches to the core; for a node chain the
    orientation is fixed by ``anchor`` = (core vertex at the first end,
    core vertex at the last end).
    """

    kind: str
    anchor: tuple
    vertices: tuple


@dataclass(frozen=True)
class CylChainDecomposition:
    stable_core: ModularGraph
    chains: tuple


def cyl_chains(g: ModularGraph) -> CylChainDecomposition:
    """Split off the paths of unstable vertices hanging off the stable core.

    Requires pre-stability: every unstable vertex is a genus-0 vertex with
    exactly two special points.
    """
    unstable = set(_unstable_vertices(g))
    for v in unstable:
        if g.special_points(v) != 2:
            raise GraphError(f"vertex {v!r} is unstable with "
                             f"{g.special_points(v)} special points; not pre-stable")
    core = stabilize(g)
    if not unstable:
        return CylChainDecomposition(core, ())

    # connected components of the subgraph induced on unstable vertices
    adj = {v: [] for v in unstable}
    for a, b in g.edges:
        if a in unstable and b in unstable and a != b:
            adj[a].append(b)
            adj[b].append(a)
    chains = []
    seen = set()
    for start in sorted(unstable, key=str):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        chains.append(_orient_chain(g, comp, adj))
    chains.sort(key=lambda c: (c.kind, tuple(map(str, c.anchor))))
    return CylChainDecomposition(core, tuple(chains))


def _orient_chain(g: ModularGraph, comp: set, adj: dict) -> CylChain:
    degs = {v: len(adj[v]) for v in comp}
    if any(d > 2 for d in degs.values()):
        raise GraphError("unstable subgraph is not a disjoint union of paths")
    path_ends = sorted((v for v, d in degs.items() if d <= 1), key=str)
    if len(comp) == 1:
        order = [path_ends[0]]
    else:
        if len(path_ends) != 2:
            raise GraphError("unstable subgraph contains a cycle")
        order = [path_ends[0]]
        prev = None
        while len(order) < len(comp):
            nxts = [w for w in adj[order[-1]] if w != prev]
            prev = order[-1]
            order.append(nxts[0])

    stable_neighbors = {
        v: sorted((w for w in g.neighbors(v) if w not in comp), key=str)
        for v in (order[0], order[-1])
    }
    legs_first = g.legs_at(order[0])
    legs_last = g.legs_at(order[-1])
    if legs_first or legs_last:
        # marking chain: leg on the far vertex, core attachment first
        if legs_first:
            order.reverse()
        anchor = (g.legs_at(order[-1])[0],)
        return CylChain("marking", anchor, tuple(order))
    att_first = stable_neighbors[order[0]]
    att_last = stable_neighbors[order[-1]]
    if not att_first or not att_last:
        raise GraphError("chain end attaches to nothing stable and has no leg")
    # node chain: orient deterministically by attachment vertex id
    if (str(att_last[0]), str(order[-1])) < (str(att_first[0]), str(order[0])):
        order.reverse()
        att_first, att_last = att_last, att_first
    return CylChain("node", (att_first[0], att_last[0]), tuple(order))


def _encode(g: ModularGraph, perm: dict) -> tuple:
    genus = tuple(g.genus[v] for v in sorted(perm, key=perm.get))
    edges = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges))
    legs = tuple((idx, perm[v]) for idx, v in sorted(g.legs))
    return (genus, edges, legs)


def canonical_form(g: ModularGraph) -> tuple:
    """Lexicographically minimal encoding over vertex relabelings.

    Vertices are first grouped by (genus, degree, leg multiset) so only
    permutations within groups are tried.  Desk-scale graphs only.
    """
    verts = g.vertex_ids()
    deg = {v: 0 for v in verts}
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    inv = {v: (g.genus[v], deg[v], tuple(sorted(g.legs_at(v)))) for v in verts}
    groups = {}
    for v in verts:
        groups.setdefault(inv[v], []).append(v)
    ordered_groups = [groups[k] for k in sorted(groups)]
    if max(len(gr) for gr in ordered_groups) > 8:
        raise GraphError("canonical labeling limited to symmetry classes of size <= 8")
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(gr) for gr in ordered_groups)
    ):
        perm, i = {}, 0
        for part in perm_parts:
            for v in part:
                perm[v] = i
                i += 1
        enc = _encode(g, perm)
        if best is None or enc < best:
            best = enc
    return best


def graph_from_json(text: str) -> ModularGraph:
    """Parse {"vertices":[{"id","genus"}], "edges":[[a,b]], "legs":[{"index","vertex"}]}
    (JSON text or the decoded mapping); genus and index must be integers."""
    def whole(x, what):  # an int, or a float without a fractional part
        if type(x) not in (int, float) or x != x // 1:
            raise ValueError(f"{what} must be an integer, got {x!r}")
        return int(x)

    try:
        data = json.loads(text) if isinstance(text, str) else text
        genus = {v["id"]: whole(v["genus"], "genus") for v in data["vertices"]}
        edges = tuple(tuple(e) for e in data.get("edges", []))
        legs = tuple((whole(l["index"], "leg index"), l["vertex"]) for l in data.get("legs", []))
        hash((edges, legs))  # a vertex id must be hashable
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise GraphError(f"malformed graph literal: {exc}") from exc
    return ModularGraph(genus, edges, legs)
