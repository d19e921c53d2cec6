"""Holomorphic-pair data for abelian toric targets and the component-wise
correspondence onto vortices.

A quasimap lives on the nodal curve; it is presented by per-coordinate zero
positions (in component-local cylinder coordinates) and per-end asymptotic
values: on genus-zero cylinder components every holomorphic pair is
complex-gauge equivalent to such a normal form.  The glued surface alone
records how each node is glued.  Seeds pair a product of elementary factors
prod_m (e^{-z} - e^{-z_m}) with the end twists forced by the degrees, and a
radial real rescale putting the boundary rings on the moment-map zero level.
The radial ramp between the two end twists is written into the seed's a_theta
once (_twist_ramp is the only code that knows it); after that a field is its
arrays.  The correspondence solves each connected piece and checks that the
limit orbits on the two sides of every kept node agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import VortexlabError
from .fields import GaugedField, d_r, limit_orbit
from .modgraph import ModularGraph
from .solver import SolveConfig, solve_all
from .surface import GluedSurface, SurfaceError
from .target import (
    TargetSpace,
    fingerprint_distance,
    is_semistable,
    kempf_ness,
    kempf_ness_shifts,
    semistable_mask,
)

__all__ = [
    "QuasimapError",
    "QuasimapData",
    "StableVortexFamily",
    "is_stable_quasimap",
    "build_seed",
    "correspondence",
    "correspondences",
    "MAX_DEGREE",
]

MAX_DEGREE = 4

#: zeros stay at least this far inside a truncated end (seed and stability)
ZERO_MARGIN = 0.5


class QuasimapError(VortexlabError, ValueError):
    """Invalid quasimap data (unstable, out-of-range zeros, bad degrees)."""


@dataclass
class QuasimapData:
    """Zeros + asymptotics presentation of a holomorphic pair on a
    pre-stable curve.

    ``zeros`` maps vertex -> tuple over coordinates of complex zero positions
    in the component's local cylinder coordinate; degrees are the zero counts.
    ``asymptotics`` maps end anchors (("leg", j) or ("node", edge)) to values
    in C^n; missing anchors default to the all-ones direction, and a piece's
    ("node", edge, side) end reads the ("node", edge) value.  It carries no
    gluing parameters: the GluedSurface records how each node is glued.
    """

    graph: ModularGraph
    target: TargetSpace
    zeros: dict
    asymptotics: dict = field(default_factory=dict)

    def degrees(self, vertex) -> tuple:
        zs = self.zeros.get(vertex, ())
        if not zs:
            return tuple(0 for _ in range(self.target.n))
        return tuple(len(z) for z in zs)

    def asymptotic(self, anchor) -> np.ndarray:
        key = tuple(anchor)
        if key in self.asymptotics:
            return np.asarray(self.asymptotics[key], dtype=complex)
        if key and key[0] == "node":
            short = ("node", key[1])
            if short in self.asymptotics:
                return np.asarray(self.asymptotics[short], dtype=complex)
        return np.ones(self.target.n, dtype=complex)


def _ends_of_vertex(q: QuasimapData, v, broken) -> list:
    ends = [("leg", idx) for idx in q.graph.legs_at(v)]
    for eid, (a, b) in enumerate(q.graph.edges):
        if eid in broken:
            if a == v:
                ends.append(("node", eid))
            if b == v:
                ends.append(("node", eid))
    return ends


def is_stable_quasimap(q: QuasimapData, surface: Optional[GluedSurface] = None) -> bool:
    """Stability: the graph is pre-stable, on a meshed surface every zero
    stays ZERO_MARGIN inside a truncated end, and every two-ended genus-zero
    vertex of the NODAL structure is non-constant (positive degree or
    distinct declared end asymptotics).

    Without a surface this checks the nodal curve itself: every node is
    kept.  Given the meshed surface, its broken edges are the kept nodes;
    every other edge, smoothed or toward an unmeshed component, imposes no
    per-vertex constraint (the vertices are charts of one smooth component).
    Zero positions must then stay ZERO_MARGIN inside the meshed interior
    (markings live at the truncated ends), and a cylinder both of whose
    special points are markings may carry constant data: its translation
    automorphism is pinned by the mesh.
    """
    components = {} if surface is None else surface.components
    broken_edges = set(range(len(q.graph.edges)) if surface is None
                       else surface.broken_edges)
    for v in q.graph.vertex_ids():
        g, s = q.graph.genus[v], q.graph.special_points(v)
        if (g == 0 and s < 2) or (g == 1 and s < 1):
            return False  # not pre-stable
    for v in q.graph.vertex_ids():
        degs = q.degrees(v)
        if any(d > MAX_DEGREE for d in degs):
            raise QuasimapError(f"degree cap {MAX_DEGREE} exceeded on vertex {v!r}")
        if v in components:
            mesh = components[v]
            for zl in q.zeros.get(v, ()):
                for z in zl:
                    z = complex(z)
                    if mesh.left.kind == "truncation" and z.real < mesh.r_min + ZERO_MARGIN:
                        return False
                    if mesh.right.kind == "truncation" and z.real > mesh.r_max - ZERO_MARGIN:
                        return False
        glued_incident = any(
            eid not in broken_edges and v in q.graph.edges[eid]
            for eid in range(len(q.graph.edges))
        )
        if glued_incident:
            continue  # chart of a smooth glued component
        if q.graph.genus[v] == 0 and q.graph.special_points(v) == 2:
            if sum(degs) > 0:
                continue
            if surface is not None and len(q.graph.legs_at(v)) == 2:
                continue
            # every edge at v is broken here, so these are its two special points
            fps = []
            for e in _ends_of_vertex(q, v, broken_edges):
                val = q.asymptotic(e)
                if not is_semistable(q.target, val):
                    return False
                fps.append(kempf_ness(q.target, val).fingerprint)
            if fingerprint_distance(fps[0], fps[1]) < 1e-9:
                return False  # constant on a two-pointed sphere
    return True


# -- seed construction --------------------------------------------------------

def _left_twist(target: TargetSpace, degrees) -> np.ndarray:
    """Integer end twist at the far left end forced by the zero counts."""
    degrees = np.asarray(degrees, dtype=float)
    if np.all(degrees == 0):
        return np.zeros(target.k)
    if target.k != 1:
        raise QuasimapError("positive-degree seeds are supported for rank-1 torus only")
    w = target.weights[0].astype(float)
    if np.any(w <= 0):
        raise QuasimapError("positive-degree seeds need positive weights")
    slopes = degrees / w
    lam = float(np.max(slopes))
    if abs(lam - round(lam)) > 1e-12:
        raise QuasimapError(
            f"maximal degree/weight slope {lam} is not an integer twist"
        )
    return np.array([round(lam)])


def _piece_zeros_global(q: QuasimapData, surface: GluedSurface, piece_index: int):
    piece = surface.pieces[piece_index]
    per_coord = [[] for _ in range(q.target.n)]
    for strip in piece.strips:
        zs = q.zeros.get(strip.vertex, ())
        for j, zl in enumerate(zs):
            for z in zl:
                per_coord[j].append(piece.local_z_to_global(strip.vertex, complex(z)))
    return per_coord


def _twist_ramp(piece, lam_left, lam_right, zeros):
    """The seed's angular connection between the end twists, (n_r, k), and
    its antiderivative from the left ring.

    The ramp is the quintic smootherstep (first and second derivatives
    vanish at both ends of its window); the window, at most 8 long, sits on
    the zeros' mean radius and 2 inside the ends, so the far rings carry
    exactly constant twists (no profile junk in the tails).
    """
    r = piece.r
    span = r[-1] - r[0]
    width = min(8.0, max(span - 4.0, 2 * piece.h_r))
    all_zeros = [z for zl in zeros for z in zl]
    center = float(np.mean([z.real for z in all_zeros])) if all_zeros else 0.5 * (r[0] + r[-1])
    center = float(np.clip(center, r[0] + 2.0 + width / 2, r[-1] - 2.0 - width / 2))
    width = max(width, 2.0 * piece.h_r)
    lo = min(max(center - 0.5 * width, r[0]), r[-1] - width)
    x = (r - lo) / width
    t = np.clip(x, 0.0, 1.0)
    step = (t**3 * (10.0 + t * (-15.0 + 6.0 * t)))[:, None]
    antider = 2.5 * t**4 - 3.0 * t**5 + t**6 + np.where(x > 1.0, x - 1.0, 0.0)
    si = (antider - antider[0])[:, None] * width
    profile = lam_left[None, :] * (1.0 - step) + lam_right[None, :] * step
    integral = lam_left[None, :] * ((r - r[0])[:, None] - si) + lam_right[None, :] * si
    return profile, integral


def build_seed(q: QuasimapData, surface: GluedSurface,
               piece_index: int = 0) -> GaugedField:
    """Holomorphic seed on one piece: section from elementary factors with the
    degree-forced end twists, their ramp written into a_theta, and a radial
    rescale pinning the boundary rings to the moment-map zero level.  Every
    zero must lie ZERO_MARGIN inside the piece.  The dbar residual is O(h^2)."""
    piece = surface.pieces[piece_index]
    t = q.target
    zeros = _piece_zeros_global(q, surface, piece_index)
    degrees = [len(z) for z in zeros]
    r_lo, r_hi = piece.r[0], piece.r[-1]
    for zl in zeros:
        for z in zl:
            if not (r_lo + ZERO_MARGIN <= z.real <= r_hi - ZERO_MARGIN):
                raise QuasimapError(f"zero at {z} outside the meshed interior")

    lam_left = _left_twist(t, degrees)
    lam_right = np.zeros(t.k)
    x_right_dir = q.asymptotic(piece.right)
    if not is_semistable(t, x_right_dir):
        raise QuasimapError("right-end asymptotic direction is unstable")
    x_right = kempf_ness(t, x_right_dir).point
    w = t.weights.astype(float)

    # section assembled in log space, modulus and phase apart:
    # log c_j + sum_m Log(e^{-z} - e^{-z_m}), with Log v = log|v| + i arg v
    theta = piece.h_theta * np.arange(piece.n_theta)
    e_z = np.exp(-piece.r)[:, None] * np.exp(-1j * theta)[None, :]  # e^{-z}
    log_mod = np.zeros((piece.n_r, piece.n_theta, t.n))
    phase = np.zeros((piece.n_r, piece.n_theta, t.n))
    dead = np.zeros(t.n, dtype=bool)
    with np.errstate(divide="ignore"):  # a zero may land exactly on a site
        for j in range(t.n):
            tail = complex(0)
            for zm in zeros[j]:
                e_zm = np.exp(-complex(zm))
                factor = e_z - e_zm
                log_mod[:, :, j] += np.log(np.abs(factor))
                phase[:, :, j] += np.angle(factor)
                tail += np.log(-e_zm)
            if abs(x_right[j]) == 0.0:
                if degrees[j] > 0:
                    raise QuasimapError(
                        f"coordinate {j}: zero right asymptotic but positive degree"
                    )
                dead[j] = True
                continue
            c = np.log(x_right[j]) - tail
            log_mod[:, :, j] += c.real
            phase[:, :, j] += c.imag

    profile, integral = _twist_ramp(piece, lam_left, lam_right, zeros)
    log_mod += np.einsum("aj,xa->xj", w, integral)[:, None, :]

    # per-ring real rescale onto the moment-map zero level: a radial complex
    # gauge guess that keeps holomorphy and localizes the residual
    vals = np.where(dead[None, None, :], 0.0, np.exp(log_mod))
    moduli = np.sqrt(np.mean(vals**2, axis=1))  # (n_r, n)
    stable = semistable_mask(t, moduli)
    if not np.all(stable):
        raise QuasimapError(f"ring {int(np.argmin(stable))} is not semistable")
    s_prof = -kempf_ness_shifts(t, moduli)[0]  # u e^{-(w xi)}, xi = -s: zero level
    vals *= np.exp(-np.einsum("aj,xa->xj", w, s_prof))[:, None, :]

    u = np.empty(vals.shape, dtype=complex)  # vals (cos + i sin) of the phase
    np.multiply(vals, np.cos(phase), out=u.real)
    np.multiply(vals, np.sin(phase), out=u.imag)
    a_theta = (-d_r(s_prof, piece.h_r) + profile)[:, None, :]
    return GaugedField(
        surface, piece_index, t,
        a_r=np.zeros((piece.n_r, piece.n_theta, t.k)),
        a_theta=np.broadcast_to(a_theta, (piece.n_r, piece.n_theta, t.k)).copy(),
        u=u,
        lam_left=lam_left,
        lam_right=lam_right,
    )


# -- correspondence -----------------------------------------------------------

@dataclass
class StableVortexFamily:
    fields: dict          # piece index -> converged GaugedField
    reports: dict         # piece index -> SolveReport
    connect_gaps: dict    # edge id -> measured fingerprint gap
    tol_connect: float
    evaluations: dict     # marking index -> Fingerprint

    @property
    def total_energy(self) -> float:
        return sum(rep.final_energy for rep in self.reports.values())


def _decay_rate_estimate(p, dens: np.ndarray) -> float:
    """Crude log-slope of a solved field's ring energies dens on piece p
    (its SolveReport's ring_energy, not evaluated again here) toward the
    right end (positive)."""
    n = p.n_r
    lo, hi = int(0.55 * n), int(0.9 * n)
    vals = np.maximum(dens[lo:hi], 1e-300)
    r = p.r[lo:hi]
    slope = np.polyfit(r, np.log(vals), 1)[0]
    return max(-slope, 0.1)


def default_tol_connect(surface: GluedSurface, gamma_hat: float) -> float:
    piece = surface.pieces[0]
    h = max(piece.h_r, piece.h_theta)
    return 10.0 * (h**2 + math.exp(-gamma_hat * surface.break_radius))


def correspondence(q: QuasimapData, surface: GluedSurface,
                   cfg: Optional[SolveConfig] = None) -> StableVortexFamily:
    """Solve every meshed piece and verify the kept nodes connect.

    Each piece gets its seed from the quasimap data and its own Newton
    solve; the pieces are independent, so solve_all may run them in forked
    processes (with the serial loop's results).  For every broken edge the
    limit orbits computed independently on the two sides must agree within
    default_tol_connect (measured gaps are reported either way).  Marking
    evaluations are collected from the leg-anchored ends.
    """
    (fam,) = correspondences([(q, surface)], cfg)
    return fam


def correspondences(members: list, cfg: Optional[SolveConfig] = None) -> list:
    """Batch form of correspondence over a list of (q, surface) members:
    their families in member order.

    Every member is stability-checked and seeded before any solve, and all
    the seeds are solved in one solve_all call; then each family is finished
    as correspondence does, in member order.  So the error raised is the
    first check or seed error in member order, else the first solve failure
    in seed order, else the first connectedness error in member order.
    """
    seeds = []
    for q, surface in members:
        if not is_stable_quasimap(q, surface):
            raise QuasimapError("quasimap data is not stable")
        seeds += [build_seed(q, surface, pi) for pi in range(len(surface.pieces))]
    solved = iter(solve_all(seeds, cfg))
    out = []
    for q, surface in members:
        fields_out, reports = {}, {}
        for pi in range(len(surface.pieces)):
            fields_out[pi], reports[pi] = next(solved)
        out.append(_connected_family(q, surface, fields_out, reports))
    return out


def _connected_family(q: QuasimapData, surface: GluedSurface, fields_out: dict,
                      reports: dict) -> StableVortexFamily:
    """The family of solved pieces, its node gaps and marking evaluations;
    raises when a kept node does not connect.  One map from each piece end's
    anchor to its (piece, side) gives both halves of every broken edge and
    the end of every marking on a meshed component."""
    gammas = [_decay_rate_estimate(f.piece, reports[pi].ring_energy)
              for pi, f in fields_out.items()]
    gamma_hat = float(np.median(gammas)) if gammas else 1.0
    tol = default_tol_connect(surface, gamma_hat)

    ends = {p.left: (pi, "left") for pi, p in enumerate(surface.pieces)}
    ends.update({p.right: (pi, "right") for pi, p in enumerate(surface.pieces)})

    def orbit(anchor):
        if anchor not in ends:
            raise SurfaceError(f"no piece end with anchor {anchor}")
        pi, side = ends[anchor]
        return limit_orbit(fields_out[pi], side)

    gaps = {eid: fingerprint_distance(orbit(("node", eid, "+")), orbit(("node", eid, "-")))
            for eid in surface.broken_edges}
    evaluations = {idx: orbit(("leg", idx)) for idx, _ in q.graph.legs
                   if ("leg", idx) in ends}

    fam = StableVortexFamily(fields_out, reports, gaps, tol, evaluations)
    bad = {e: g for e, g in gaps.items() if g > tol}
    if bad:
        raise QuasimapError(
            f"connectedness violated beyond tolerance {tol:.3e}: gaps {bad} "
            "(discretization too coarse or mismatched node data)"
        )
    return fam
