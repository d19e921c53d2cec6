"""Discretized flat cylinders, gluing with twist, and core/sleeve covers.

Meshed components are finite flat cylinders [r_min, r_max] x S^1 on a uniform
grid.  Gluing a pair of sockets with parameter delta inserts a neck of length
L = -ln|delta| and twist t = -arg(delta), realized as extra rings between the
two socket rings with the twist absorbed into an integer roll of the angular
index.  The sockets alone decide the gluing, not vertex names or mesh
order: an edge joins the component whose right socket it is to the one
whose left socket it is.  A connected glued chain becomes a single
rectangular grid (a Piece), listed by the name of its first (leftmost)
component; delta = 0 leaves the node in place and splits the chain into
broken pieces whose former sockets become truncated cylindrical ends.

The core/sleeve cover of a piece (core_sleeve) puts a band of width
sleeve_width on the middle of every neck (sleeve_band, the one place that
rounds it to rings) and splits the piece into one CoverPiece per component,
in strip order, whose weights ramp across each band by cutoff_profile and
sum to one.
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
    "CoverPiece",
    "core_sleeve",
    "sleeve_band",
    "cutoff_profile",
    "smoothstep",
]

MIN_SITES = 8
MAX_SITES = np.iinfo(np.intp).max // 16  # numpy's largest array of complex sites


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


@dataclass
class Piece:
    """One connected glued chain realized as a single rectangular grid.

    left and right are the anchors of its two truncated ends: ("leg", index)
    or ("node", edge, "+"|"-")."""

    n_r: int
    n_theta: int
    h_r: float
    r0: float  # local radial coordinate of ring 0
    strips: list
    necks: list
    left: tuple
    right: tuple

    def __post_init__(self):
        if self.n_r * self.n_theta > MAX_SITES:
            raise SurfaceError(f"piece has more than the {MAX_SITES} sites numpy can hold")

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

    Each glued edge joins the endpoint whose right socket it is to the one
    whose left socket it is ("orient meshes" otherwise), so neither vertex
    names nor the order of ``components`` matter.  A chain runs from a
    component whose left end is not glued, and pieces are listed by that
    component's name; glued components that close a cycle (a loop edge is
    one) are refused.  Neck lengths must be grid-compatible multiples of
    h_r, at least 2*sleeve_width; twists must be multiples of h_theta.
    delta = 0 marks the edge broken: the chain splits and the sockets become
    truncated ends of radius ``break_radius``.
    """
    surf = GluedSurface(graph, dict(components), dict(deltas), float(sleeve_width),
                        float(break_radius))
    for v, mesh in components.items():
        if v not in graph.genus:
            raise SurfaceError(f"meshed component {v!r} not a graph vertex")
        for side in ("left", "right"):
            eid = _socket_edge(mesh, side)
            if eid is not None and not (0 <= eid < len(graph.edges)
                                        and v in graph.edges[eid]):
                raise SurfaceError(f"component {v!r} {side} socket: edge {eid} "
                                   "does not touch it")
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


def _truncation_anchor(surf: GluedSurface, vertex, side: str) -> tuple:
    """The anchor of a component's end: its own, or for a socket left
    dangling (broken edge or edge to an unmeshed component) the node half
    on its side, "+" at the edge's first endpoint (a loop's right socket)."""
    mesh = surf.components[vertex]
    end = mesh.left if side == "left" else mesh.right
    if end.kind == "truncation":
        return tuple(end.anchor)
    eid = end.edge
    if eid is None:
        raise SurfaceError(f"component {vertex!r} {side} socket has no edge")
    a, b = surf.graph.edges[eid]
    sign = "+" if vertex == a and (a != b or side == "right") else "-"
    return ("node", eid, sign)


def _end_rings(break_radius: float, h_r: float) -> int:
    """Rings of the truncated end that extends a dangling socket."""
    n = break_radius / h_r
    if not math.isfinite(n):
        raise SurfaceError(f"break radius {break_radius} is not a finite "
                           f"number of rings of width {h_r}")
    return int(round(n))


def _build_pieces(surf: GluedSurface, live: dict) -> list:
    """One piece per chain, walked left to right along the glued sockets and
    listed by the name of its first component."""
    comps = surf.components
    after = {}  # component -> (edge, component glued to its right socket)
    for eid in live:
        a, b = surf.graph.edges[eid]
        pair = next(((x, y) for x, y in ((a, b), (b, a))
                     if _socket_edge(comps[x], "right") == eid
                     and _socket_edge(comps[y], "left") == eid), None)
        if pair is None:
            raise SurfaceError(
                f"components {a!r}, {b!r} are not glued right-to-left along "
                "their shared edge; orient meshes along the chain"
            )
        after[pair[0]] = (eid, pair[1])
    glued_left = {v for _, v in after.values()}
    pieces = []
    for v in sorted((v for v in comps if v not in glued_left), key=str):
        first = comps[v]
        hr, nth = first.h_r, first.n_theta
        # a chain that starts at a dangling socket gets a truncated end on the left
        n_ext_left = _end_rings(surf.break_radius, hr) if first.left.kind == "socket" else 0
        strips, necks = [], []
        i, shift = n_ext_left, 0
        while True:
            mesh = comps[v]
            strips.append(Strip(v, i, mesh.n_r, shift, mesh.r_min))
            i += mesh.n_r - 1
            if v not in after:
                break
            eid, v = after[v]
            L, t, roll = live[eid]
            n_neck = int(round(L / hr))
            necks.append(Neck(eid, i, i + n_neck, L, t, roll))
            i += n_neck
            shift = (shift + roll) % nth
        n_ext_right = _end_rings(surf.break_radius, hr) if mesh.right.kind == "socket" else 0
        pieces.append(
            Piece(
                n_r=i + 1 + n_ext_right,
                n_theta=nth,
                h_r=hr,
                r0=first.r_min - n_ext_left * hr,
                strips=strips,
                necks=necks,
                left=_truncation_anchor(surf, strips[0].vertex, "left"),
                right=_truncation_anchor(surf, v, "right"),
            )
        )
    if sum(len(p.strips) for p in pieces) != len(comps):
        raise SurfaceError("glued components form a cycle")
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
class CoverPiece:
    """One component-side chunk of a piece's cover: rings [a, b] with
    partition-of-unity weights (1 on the core, ramping on sleeve bands)."""

    a: int
    b: int
    phi: np.ndarray


def core_sleeve(piece: Piece, width: float) -> tuple:
    """The core/sleeve cover of a piece: one CoverPiece per strip, in strip
    order, over the width-wide middle band of every neck.

    Requires each neck at least twice the width; the cutoff weights sum to
    one across the two copies of every band ring, exactly.
    """
    phi = cutoff_profile(width)
    bands = []
    for nk in piece.necks:
        if nk.length < 2.0 * width:
            raise SurfaceError(
                f"neck {nk.edge}: length {nk.length} below twice the sleeve width"
            )
        j_lo, j_hi = sleeve_band(piece, nk, width)
        mid = 0.5 * (nk.i_plus + nk.i_minus)
        rho = (np.arange(j_lo, j_hi + 1) - mid) * piece.h_r
        bands.append((j_lo, j_hi, 1.0 - phi(rho)))
    covers = []
    for si in range(len(piece.strips)):
        a = 0 if si == 0 else bands[si - 1][0]
        b = piece.n_r - 1 if si == len(piece.strips) - 1 else bands[si][1]
        w = np.ones(b - a + 1)
        if si > 0:
            j_lo, j_hi, phip = bands[si - 1]
            w[: j_hi - j_lo + 1] *= 1.0 - phip  # minus side of the previous neck
        if si < len(piece.strips) - 1:
            j_lo, j_hi, phip = bands[si]
            w[j_lo - a :] *= phip  # plus side of the next neck
        covers.append(CoverPiece(a, b, w))
    return tuple(covers)
