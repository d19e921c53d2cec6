"""Discretized flat cylinders, gluing with twist, and core/sleeve covers.

Meshed components are finite flat cylinders [r_min, r_max] x S^1 on a uniform
grid.  Gluing a pair of sockets with parameter delta inserts a neck of length
L = -ln|delta| and twist t = -arg(delta), realized as extra rings between the
two socket rings with the twist absorbed into an integer roll of the angular
index.  A connected glued chain becomes a single rectangular grid (a Piece);
delta = 0 leaves the node in place and splits the chain into broken pieces
whose former sockets become truncated cylindrical ends.

The core/sleeve cover of a piece puts a band of width sleeve_width on the
middle of every neck (sleeve_band, the one place that rounds it to rings)
and splits the piece into one cover chunk per component, whose weights
ramp across each band by cutoff_profile and sum to one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import VortexlabError
from .modgraph import ModularGraph

__all__ = [
    "SurfaceError",
    "End",
    "ComponentMesh",
    "Strip",
    "Neck",
    "Piece",
    "GluedSurface",
    "glue",
    "single_cylinder",
    "CoreSleeve",
    "NeckCover",
    "CoverPiece",
    "core_sleeve",
    "sleeve_band",
    "cutoff_profile",
    "smoothstep",
]

MIN_SITES = 8


class SurfaceError(VortexlabError, ValueError):
    """Invalid mesh resolution, incompatible gluing data, or bad layout."""


@dataclass(frozen=True)
class End:
    """Boundary descriptor: a truncated infinity (anchored at a marking or a
    node half) or a glue socket consumed by an edge."""

    kind: str  # "truncation" | "socket"
    anchor: tuple = ()  # ("leg", index) or ("node", edge, "+"|"-") for truncations
    edge: object = None  # edge id for sockets


@dataclass(frozen=True)
class ComponentMesh:
    """Flat cylinder mesh: n_r rings at spacing h_r, n_theta angular sites."""

    n_r: int
    n_theta: int
    h_r: float
    r_min: float
    left: End
    right: End

    def __post_init__(self):
        if self.n_r < MIN_SITES or self.n_theta < MIN_SITES:
            raise SurfaceError(
                f"resolution {self.n_r}x{self.n_theta} below minimum {MIN_SITES}"
            )
        if self.h_r <= 0:
            raise SurfaceError("h_r must be positive")

    @property
    def h_theta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def r_max(self) -> float:
        return self.r_min + (self.n_r - 1) * self.h_r

    @property
    def r(self) -> np.ndarray:
        return self.r_min + self.h_r * np.arange(self.n_r)


@dataclass(frozen=True)
class Strip:
    """Embedding of one component into a piece: its rings start at global
    index i0 and its local angular index j maps to (j + shift) mod n_theta."""

    vertex: object
    i0: int
    n_r: int
    shift: int
    r_min_local: float


@dataclass(frozen=True)
class Neck:
    """A glued edge inside a piece.  Ring i_plus carries neck coordinate 0 and
    ring i_minus carries coordinate L (the two former socket rings)."""

    edge: object
    i_plus: int
    i_minus: int
    length: float
    twist: float
    roll: int


@dataclass(frozen=True)
class PieceEnd:
    anchor: tuple
    ring: int  # boundary ring index (0 or n_r - 1)
    orientation: int  # -1 at the left boundary, +1 at the right


@dataclass
class Piece:
    """One connected glued chain realized as a single rectangular grid."""

    n_r: int
    n_theta: int
    h_r: float
    r0: float  # local radial coordinate of ring 0
    strips: list
    necks: list
    left: PieceEnd
    right: PieceEnd

    @property
    def h_theta(self) -> float:
        return 2.0 * math.pi / self.n_theta

    @property
    def r(self) -> np.ndarray:
        return self.r0 + self.h_r * np.arange(self.n_r)

    @property
    def shape(self):
        return (self.n_r, self.n_theta)

    @property
    def quad_weights_r(self) -> np.ndarray:
        """Trapezoid weights in r (x h_r); angular quadrature is uniform."""
        w = np.full(self.n_r, self.h_r)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def area(self) -> float:
        return float(np.sum(self.quad_weights_r)) * 2.0 * math.pi

    def strip_for(self, vertex) -> Strip:
        for s in self.strips:
            if s.vertex == vertex:
                return s
        raise SurfaceError(f"vertex {vertex!r} not meshed in this piece")

    def local_z_to_global(self, vertex, z: complex) -> complex:
        """Component-local cylinder coordinate r + i theta -> piece coordinate."""
        s = self.strip_for(vertex)
        r = self.r0 + (s.i0 * self.h_r) + (z.real - s.r_min_local)
        theta = (z.imag + s.shift * self.h_theta) % (2.0 * math.pi)
        return r + 1j * theta

    def ring_of(self, r_local: float) -> int:
        i = int(round((r_local - self.r0) / self.h_r))
        if not 0 <= i < self.n_r:
            raise SurfaceError(f"radius {r_local} outside piece range")
        return i


@dataclass
class GluedSurface:
    """A modular graph with meshed components, glued along its edges.

    ``gluings`` maps edge id -> complex delta (0 keeps the node: broken).
    ``pieces`` lists the connected grids after gluing/breaking.
    """

    graph: ModularGraph
    components: dict
    gluings: dict
    sleeve_width: float
    break_radius: float
    pieces: list = field(default_factory=list)
    broken_edges: list = field(default_factory=list)


def neck_parameters(delta: complex) -> tuple:
    """L = Re(-ln delta), twist = -arg(delta) mod 2pi."""
    if delta == 0:
        raise SurfaceError("delta = 0 keeps the node in place; no neck")
    l = -cmath.log(delta)
    return l.real, l.imag % (2.0 * math.pi)


def _socket_edge(mesh: ComponentMesh, side: str):
    end = mesh.left if side == "left" else mesh.right
    return end.edge if end.kind == "socket" else None


def glue(
    components: dict,
    graph: ModularGraph,
    deltas: dict,
    sleeve_width: float,
    break_radius: float = 12.0,
) -> GluedSurface:
    """Glue meshed components along graph edges with parameters delta.

    Components must be oriented along each chain (an edge joins the right
    socket of one component to the left socket of the next).  Neck lengths
    must be grid-compatible multiples of h_r, at least 2*sleeve_width; twists
    must be multiples of h_theta.  delta = 0 marks the edge broken: the chain
    splits and the sockets become truncated ends of radius ``break_radius``.
    """
    surf = GluedSurface(graph, dict(components), dict(deltas), float(sleeve_width),
                        float(break_radius))
    for v in components:
        if v not in graph.genus:
            raise SurfaceError(f"meshed component {v!r} not a graph vertex")
    meshes = list(components.values())
    if meshes:
        nth = meshes[0].n_theta
        hr = meshes[0].h_r
        if any(m.n_theta != nth or abs(m.h_r - hr) > 1e-12 for m in meshes):
            raise SurfaceError("all meshed components must share n_theta and h_r")

    # resolve each edge among meshed vertices
    live = {}  # edge id -> (L, twist, roll) for glued edges
    for eid, (a, b) in enumerate(graph.edges):
        if a not in components or b not in components:
            continue
        if eid not in deltas:
            raise SurfaceError(f"edge {eid} joins meshed components but has no delta")
        delta = deltas[eid]
        if delta == 0:
            surf.broken_edges.append(eid)
            continue
        if abs(delta) > 1.0:
            raise SurfaceError(f"edge {eid}: |delta| must lie in (0, 1]")
        L, t = neck_parameters(delta)
        hr = components[a].h_r
        hth = components[a].h_theta
        if L < 2.0 * sleeve_width:
            raise SurfaceError(
                f"edge {eid}: neck length {L:.3f} shorter than twice the "
                f"sleeve width {sleeve_width}"
            )
        n_neck = L / hr
        if abs(n_neck - round(n_neck)) > 1e-9 * max(1, n_neck):
            raise SurfaceError(f"edge {eid}: neck length {L} not a multiple of h_r")
        roll = t / hth
        if abs(roll - round(roll)) > 1e-9 * max(1.0, abs(roll)):
            raise SurfaceError(f"edge {eid}: twist {t} not a multiple of h_theta")
        live[eid] = (L, t % (2 * math.pi), int(round(roll)) % components[a].n_theta)

    surf.pieces = _build_pieces(surf, live)
    return surf


def _chain_order(surf: GluedSurface, live: dict) -> list:
    """Split meshed vertices into chains ordered left to right."""
    adj = {v: [] for v in surf.components}
    for eid in live:
        a, b = surf.graph.edges[eid]
        if a == b:
            raise SurfaceError(f"edge {eid}: meshed loop would close a torus")
        adj[a].append((eid, b))
        adj[b].append((eid, a))
    for v, nb in adj.items():
        if len(nb) > 2:
            raise SurfaceError(f"component {v!r} glued along more than two edges")
    chains = []
    seen = set()
    for v in sorted(surf.components, key=str):
        if v in seen or len(adj[v]) > 1:
            continue
        chain = [v]
        seen.add(v)
        prev = None
        while True:
            nxt = [(e, w) for e, w in adj[chain[-1]] if w != prev]
            if not nxt:
                break
            e, w = nxt[0]
            prev = chain[-1]
            if w in seen:
                raise SurfaceError("glued components form a cycle")
            chain.append(w)
            seen.add(w)
        chains.append(chain)
    if len(seen) != len(surf.components):
        raise SurfaceError("glued components form a cycle")
    return chains


def _truncation_anchor(surf: GluedSurface, vertex, side: str) -> tuple:
    mesh = surf.components[vertex]
    end = mesh.left if side == "left" else mesh.right
    if end.kind == "truncation":
        return tuple(end.anchor)
    # socket left dangling: broken edge or edge to an unmeshed component
    eid = end.edge
    if eid is None or not 0 <= eid < len(surf.graph.edges):
        raise SurfaceError(f"component {vertex!r} {side} socket has no edge")
    a, b = surf.graph.edges[eid]
    sign = "+" if vertex == a else "-"
    return ("node", eid, sign)


def _build_pieces(surf: GluedSurface, live: dict) -> list:
    pieces = []
    for chain in _chain_order(surf, live):
        first = surf.components[chain[0]]
        hr, nth = first.h_r, first.n_theta
        # orientation check: interior junctions must be right-socket -> left-socket
        for va, vb in zip(chain, chain[1:]):
            er = _socket_edge(surf.components[va], "right")
            el = _socket_edge(surf.components[vb], "left")
            if er is None or er != el or er not in live:
                raise SurfaceError(
                    f"components {va!r}, {vb!r} are not glued right-to-left along "
                    "their shared edge; orient meshes along the chain"
                )
        strips, necks = [], []
        i, shift = 0, 0
        n_ext_left = 0
        # left extension when the chain starts at a dangling socket
        if first.left.kind == "socket":
            n_ext_left = int(round(surf.break_radius / hr))
            i = n_ext_left
        for pos, v in enumerate(chain):
            mesh = surf.components[v]
            strips.append(Strip(v, i, mesh.n_r, shift, mesh.r_min))
            i += mesh.n_r - 1
            if pos + 1 < len(chain):
                eid = _socket_edge(mesh, "right")
                L, t, roll = live[eid]
                n_neck = int(round(L / hr))
                necks.append(Neck(eid, i, i + n_neck, L, t, roll))
                i += n_neck
                shift = (shift + roll) % nth
        last = surf.components[chain[-1]]
        n_ext_right = int(round(surf.break_radius / hr)) if last.right.kind == "socket" else 0
        n_r = i + 1 + n_ext_right
        r0 = first.r_min - n_ext_left * hr
        left_anchor = _truncation_anchor(surf, chain[0], "left")
        right_anchor = _truncation_anchor(surf, chain[-1], "right")
        pieces.append(
            Piece(
                n_r=n_r,
                n_theta=nth,
                h_r=hr,
                r0=r0,
                strips=strips,
                necks=necks,
                left=PieceEnd(left_anchor, 0, -1),
                right=PieceEnd(right_anchor, n_r - 1, +1),
            )
        )
    return pieces


def single_cylinder(
    n_r: int,
    n_theta: int,
    h_r: float,
    r_min: float = 0.0,
    graph: Optional[ModularGraph] = None,
    vertex=0,
) -> GluedSurface:
    """One meshed cylinder with truncated ends at both markings."""
    if graph is None:
        graph = ModularGraph({vertex: 0}, (), ((1, vertex), (2, vertex)))
    legs = graph.legs_at(vertex)
    if len(legs) < 2:
        raise SurfaceError("single cylinder needs two markings on its vertex")
    mesh = ComponentMesh(
        n_r, n_theta, h_r, r_min,
        End("truncation", ("leg", legs[0])),
        End("truncation", ("leg", legs[1])),
    )
    return glue({vertex: mesh}, graph, {}, sleeve_width=1.0)


def smoothstep(x) -> np.ndarray:
    """C^1 ramp: 0 below 0, 3x^2-2x^3 on [0,1], 1 above."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def cutoff_profile(delta: float):
    """Monotone C^1 profile phi on [-delta/2, delta/2], 0 below and 1 above,
    with phi(x) + phi(-x) = 1; returns the callable."""
    if delta <= 0:
        raise SurfaceError("cutoff width must be positive")

    def phi(x):
        return smoothstep((np.asarray(x, dtype=float) + delta / 2.0) / delta)

    return phi


def sleeve_band(piece: Piece, neck: Neck, width: float) -> tuple:
    """Global rings (j_lo, j_hi) of a neck's sleeve band: the rings within
    width / 2 of the neck's middle, rounded to the grid."""
    half = 0.5 * (neck.i_plus + neck.i_minus)
    half_band = 0.5 * width / piece.h_r
    return int(round(half - half_band)), int(round(half + half_band))


@dataclass(frozen=True)
class NeckCover:
    """Sleeve band of one neck: global rings [j_lo, j_hi] carry two cover
    copies with weights phi_plus and 1 - phi_plus."""

    edge: object
    piece_index: int
    j_lo: int
    j_hi: int
    phi_plus: np.ndarray


@dataclass(frozen=True)
class CoverPiece:
    """One component-side chunk of the cover: rings [a, b] of its piece with
    partition-of-unity weights (1 on the core, ramping on sleeve bands)."""

    piece_index: int
    vertex: object
    a: int
    b: int
    phi: np.ndarray


@dataclass(frozen=True)
class CoreSleeve:
    surface: GluedSurface
    necks: tuple
    covers: tuple


def core_sleeve(surf: GluedSurface) -> CoreSleeve:
    """Core/sleeve decomposition of every glued neck (Delta-wide middle bands).

    Requires each neck at least twice the sleeve width; the cutoff weights sum
    to one across the two copies of every band ring, exactly.
    """
    delta = surf.sleeve_width
    necks, covers = [], []
    for pi, piece in enumerate(surf.pieces):
        phi = cutoff_profile(delta)
        bands = []
        for nk in piece.necks:
            if nk.length < 2.0 * delta:
                raise SurfaceError(
                    f"neck {nk.edge}: length {nk.length} below twice the sleeve width"
                )
            j_lo, j_hi = sleeve_band(piece, nk, delta)
            mid = 0.5 * (nk.i_plus + nk.i_minus)
            rho = (np.arange(j_lo, j_hi + 1) - mid) * piece.h_r
            phi_plus = 1.0 - phi(rho)
            necks.append(NeckCover(nk.edge, pi, j_lo, j_hi, phi_plus))
            bands.append((j_lo, j_hi, phi_plus))
        # per-component cover chunks spanning into adjacent bands
        for si, strip in enumerate(piece.strips):
            a = 0 if si == 0 else bands[si - 1][0]
            b = piece.n_r - 1 if si == len(piece.strips) - 1 else bands[si][1]
            w = np.ones(b - a + 1)
            if si > 0:
                j_lo, j_hi, phip = bands[si - 1]
                w[: j_hi - j_lo + 1] *= 1.0 - phip  # minus side of the previous neck
            if si < len(piece.strips) - 1:
                j_lo, j_hi, phip = bands[si]
                w[j_lo - a :] *= phip  # plus side of the next neck
            covers.append(CoverPiece(pi, strip.vertex, a, b, w))
    return CoreSleeve(surf, tuple(necks), tuple(covers))
