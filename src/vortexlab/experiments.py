"""Measured analytic estimates: decay fits, annulus decay of middle energy,
energy quantization scans, neck-stretching families with bubble location,
energy-homology comparisons, and evaluation-map continuity.

All quantities are reported, and the module records fits rather than assumed
constants: the decay rate, the quantization gap and the energy quantum per
unit degree come out of quadrature, with the analytic reference values kept
alongside for comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import VortexlabError
from .fields import GaugedField, holonomy, ring_average, ring_energy
from .quasimap import correspondences
from .solver import SolveConfig, solve_all
from .surface import GluedSurface, glue
from .target import (
    L_operator,
    TargetError,
    TargetSpace,
    fingerprint_distance,
    kempf_ness,
)

__all__ = [
    "ExperimentError",
    "DecayFit",
    "decay_fit",
    "annulus_check",
    "quantization_scan",
    "NeckProfile",
    "neck_family",
    "bubble_locator",
    "ev_continuity",
    "energy_homology_check",
    "pairing_value",
    "mass_scale",
]

#: measured energy of the basic degree-one vortex per unit shift: the abelian
#: evaluation of the energy-homology pairing under this density convention,
#: cross-checked by the fine-grid quadrature oracle in the acceptance suite
ENERGY_QUANTUM = 4.0 * math.pi

QUANT_FLOOR = 1e-6

#: decay_fit rejects a window whose largest ring energy is below this
DECAY_ZERO_FLOOR = 1e-25

#: decay_fit rejects a fit whose R^2 is below this: the window's ring energy
#: does not fall along one exponential
DECAY_MIN_R2 = 0.9


class ExperimentError(VortexlabError, RuntimeError):
    pass


def mass_scale(t: TargetSpace) -> float:
    """2 sqrt(lambda_min of the Gram operator at a zero-level point): the
    linearized decay rate of the energy density."""
    rng = np.random.default_rng(11)
    for _ in range(32):
        v = rng.normal(size=t.n) + 1j * rng.normal(size=t.n)
        try:
            p = kempf_ness(t, v)
        except TargetError:
            continue
        gram = L_operator(t, p.point)
        return 2.0 * math.sqrt(max(np.min(np.linalg.eigvalsh(gram)), 0.0))
    raise ExperimentError("no zero-level sample point found")


def _loglinear(x: np.ndarray, logs: np.ndarray):
    """Least-squares line through (x, logs): (slope, intercept, R^2), R^2 = 0
    when logs is constant."""
    slope, intercept = np.polyfit(x, logs, 1)
    var = logs.var()
    r2 = 1.0 - ((logs - (slope * x + intercept)) ** 2).mean() / var if var > 0 else 0.0
    return slope, intercept, r2


@dataclass
class DecayFit:
    window: tuple
    gamma_hat: float
    c_hat: float
    r_squared: float
    samples: np.ndarray  # (m, 2) columns (r, ring energy)
    rejected: bool = False
    note: str = ""


def decay_fit(f: GaugedField, end: str, window: tuple,
              ring_energies: Optional[np.ndarray] = None) -> DecayFit:
    """Log-linear fit of the ring energy over a radial window toward an end.

    The window is given in the piece's radial coordinate.  If the section
    vanishes somewhere inside the window (density not yet in the decay
    regime) the window is shifted toward the end and the shift is noted.
    Constant fields (no ring energy above DECAY_ZERO_FLOOR) and fits with
    R^2 below DECAY_MIN_R2 are rejected with a flag.  ring_energies is
    ring_energy(f) as f's SolveReport carries it (None: evaluated here).
    """
    p = f.piece
    e = ring_energy(f) if ring_energies is None else ring_energies
    lo, hi = float(window[0]), float(window[1])
    note = ""
    per_coord_max = np.max(np.abs(f.u), axis=(0, 1))
    live = per_coord_max > 1e-8 * max(float(np.max(per_coord_max)), 1e-300)
    mags = np.min(np.abs(f.u[:, :, live]) / per_coord_max[live], axis=(1, 2))
    sign = 1.0 if end == "right" else -1.0
    for _ in range(64):
        sel = (p.r >= lo) & (p.r <= hi)
        if not np.any(sel):
            break
        if np.min(mags[sel]) > 0.2:  # a section zero pins the ring minimum down
            break
        lo += sign * p.h_r
        hi += sign * p.h_r
        note = f"window shifted to [{lo:.3f}, {hi:.3f}] past a section zero"
    sel = (p.r >= min(lo, hi) - 1e-9) & (p.r <= max(lo, hi) + 1e-9)
    rs = p.r[sel]
    es = e[sel]
    samples = np.column_stack([rs, es])
    if len(rs) < 3 or np.max(es) < DECAY_ZERO_FLOOR:
        return DecayFit((lo, hi), 0.0, 0.0, 0.0, samples, rejected=True,
                        note=note or "no energy in window")
    slope, intercept, r2 = _loglinear(rs, np.log(np.maximum(es, 1e-300)))
    gamma = -slope * sign
    rejected = bool(r2 < DECAY_MIN_R2)
    if rejected:
        note = "; ".join(filter(None, [note, f"R^2 {r2:.4f} below {DECAY_MIN_R2}"]))
    return DecayFit((lo, hi), float(gamma), float(math.exp(intercept)),
                    float(r2), samples, rejected=rejected, note=note)


def _ring_orbit(f: GaugedField, ring: int):
    """Gauge-invariant summary of one ring: untwist by the ring's rounded
    holonomy, average and retract."""
    lift, _ = holonomy(f, f.piece.r[ring])
    avg = ring_average(f, ring, np.round(lift))
    return kempf_ness(f.target, avg).fingerprint


def annulus_check(f: GaugedField, t_values,
                  ring_energies: Optional[np.ndarray] = None) -> dict:
    """Middle-cylinder energies E([s0+T, s1-T]) with a log-linear decay fit
    and an orbit-diameter proxy over the deepest middle rings.  ring_energies
    is ring_energy(f) as f's SolveReport carries it (None: evaluated here)."""
    p = f.piece
    e = ring_energy(f) if ring_energies is None else ring_energies
    wr = p.quad_weights_r
    s0, s1 = p.r[0], p.r[-1]
    rows = []
    for T in t_values:
        sel = (p.r >= s0 + T) & (p.r <= s1 - T)
        rows.append((float(T), float((e * wr)[sel].sum())))
    table = np.array(rows)
    mids = table[:, 1]
    monotone = bool(np.all(np.diff(mids) <= 1e-12 * max(mids[0], 1e-300)))
    pos = mids > 0
    if pos.sum() >= 3:
        slope, _, r2 = _loglinear(table[pos, 0], np.log(mids[pos]))
        delta_hat = -slope
    else:
        delta_hat, r2 = 0.0, 0.0
    t_max = max(t_values)
    sel = (p.r >= s0 + t_max) & (p.r <= s1 - t_max)
    rings = np.where(sel)[0]
    diam = 0.0
    if len(rings) >= 2:
        probes = rings[:: max(1, len(rings) // 8)]
        fps = [_ring_orbit(f, i) for i in probes]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                diam = max(diam, fingerprint_distance(fps[i], fps[j]))
    return {
        "table": table,
        "monotone": monotone,
        "delta_hat": float(delta_hat),
        "r_squared": float(r2),
        "orbit_diameter": float(diam),
    }


def quantization_scan(seeds, cfg: Optional[SolveConfig] = None) -> dict:
    """Solve every seed; report the energies, the spectral gap above the
    constant sector, and the emptiness of the band (floor, gap/2).

    The seeds are independent solves, run by one solve_all call (forked
    processes when they are large enough, with the serial loop's results)."""
    energies = np.array([rep.final_energy for _, rep in solve_all(seeds, cfg)])
    nonzero = energies[energies > QUANT_FLOOR]
    gap = float(np.min(nonzero)) if len(nonzero) else float("inf")
    band = (QUANT_FLOOR, gap / 2.0)
    in_band = np.sum((energies > band[0]) & (energies < band[1]))
    return {
        "energies": energies,
        "floor": QUANT_FLOOR,
        "gap": gap,
        "band": band,
        "band_empty": bool(in_band == 0),
        "n_constant": int(np.sum(energies <= QUANT_FLOOR)),
    }


@dataclass
class NeckProfile:
    neck_length: float
    rho: np.ndarray          # neck coordinate of each neck ring
    ring_energy: np.ndarray  # angular line energy per neck ring
    total_neck_energy: float
    total_energy: float
    m0: float
    tail_start: float
    h_r: float


def neck_profile(f: GaugedField, edge, ring_energies: np.ndarray) -> NeckProfile:
    """Ring-energy profile along a glued neck with the tail-mass estimate.
    ring_energies is ring_energy(f), as f's SolveReport carries it; edge None
    takes the piece's first neck.

    The tail starts after the ring where the density first drops below ten
    times the neck floor (the double limit replaced by a plateau detector).
    """
    p = f.piece
    necks = [nk for nk in p.necks if edge is None or nk.edge == edge]
    if not necks:
        raise ExperimentError("field has no glued neck")
    nk = necks[0]
    wr = p.quad_weights_r
    weighted = ring_energies * wr  # energy's quadrature, ring by ring
    sl = slice(nk.i_plus, nk.i_minus + 1)
    rho = (np.arange(nk.i_plus, nk.i_minus + 1) - nk.i_plus) * p.h_r
    ring = ring_energies[sl]
    total_neck = float(weighted[sl].sum())
    # the tail mass is measured from the + side, so the detector floor is the
    # quiet level of the first half (a twisted side floors at the angular
    # stencil error of its winding phase, which must not mask the tail)
    floor = max(float(np.min(ring[: max(len(ring) // 2, 1)])), 1e-300)
    below = np.where(ring < 10.0 * floor)[0]
    start = int(below[0]) if len(below) else len(ring) - 1
    m0 = float((ring[start:] * wr[sl][start:]).sum())
    return NeckProfile(
        neck_length=nk.length,
        rho=rho,
        ring_energy=ring,
        total_neck_energy=total_neck,
        total_energy=float(weighted.sum()),
        m0=m0,
        tail_start=float(rho[start]),
        h_r=p.h_r,
    )


def neck_family(surface: GluedSurface, q_factory: Callable, lengths,
                cfg: Optional[SolveConfig] = None) -> dict:
    """Solve the glued problem over a sweep of neck lengths.

    ``surface`` is one piece with one neck.  Each length L glues that neck
    again at delta = exp(-(L + i twist)), keeping its twist (roll * h_theta)
    and the surface's sleeve width and break radius, with
    ``q_factory(L) -> QuasimapData``.  Every length is glued before
    correspondences solves them in one solve_all call, so a bad length fails
    before any solve.  Returns each length's NeckProfile, read from the ring
    energies its solve's report carries, and its family.
    """
    if len(surface.pieces) != 1 or len(surface.pieces[0].necks) != 1:
        raise ExperimentError("neck sweep expects a surface of one piece with one neck")
    (piece,) = surface.pieces
    (neck,) = piece.necks
    twist = neck.roll * piece.h_theta
    members = [(q_factory(L), glue(surface.components, surface.graph,
                                   {neck.edge: cmath.exp(complex(-L, -twist))},
                                   surface.sleeve_width, surface.break_radius))
               for L in lengths]
    out = {"profiles": {}, "families": {}}
    for L, fam in zip(lengths, correspondences(members, cfg)):
        out["profiles"][float(L)] = neck_profile(fam.fields[0], neck.edge,
                                                 fam.reports[0].ring_energy)
        out["families"][float(L)] = fam
    return out


def bubble_locator(profile: NeckProfile, delta: float):
    """Radius where the cumulative-from-the-right ring energy crosses
    m0 - delta/2, by monotone linear interpolation; None when m0 = 0."""
    if profile.m0 <= 0.0:
        return None
    if not 0.0 < delta < 2.0 * profile.m0:
        raise ExperimentError(
            f"delta {delta} outside (0, min(gap, m0)); m0 = {profile.m0}"
        )
    target = profile.m0 - delta / 2.0
    weights = profile.ring_energy * profile.h_r
    cum = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    grid = np.concatenate([profile.rho, [profile.rho[-1] + profile.h_r]])
    idx = np.where(cum <= target)[0]
    if len(idx) == 0 or idx[0] == 0:
        return float(grid[0])
    i = idx[0]
    c1, c0 = cum[i - 1], cum[i]
    t = 0.0 if c1 == c0 else (c1 - target) / (c1 - c0)
    return float(grid[i - 1] + t * (grid[i] - grid[i - 1]))


def ev_continuity(families) -> dict:
    """Fingerprint distances between consecutive members of a sweep, per
    marking evaluated on the first member."""
    out = {}
    fams = list(families)
    if not fams:
        return out
    for leg in sorted(fams[0].evaluations):
        ds = []
        for a, b in zip(fams, fams[1:]):
            ds.append(fingerprint_distance(a.evaluations[leg], b.evaluations[leg]))
        out[leg] = ds
    return out


def pairing_value(t: TargetSpace, degree: int) -> float:
    """Abelian evaluation of the topological energy: quantum * tau * degree."""
    if t.k != 1:
        raise ExperimentError("pairing evaluation implemented for rank-1 torus")
    return ENERGY_QUANTUM * float(t.tau[0]) * degree


def energy_homology_check(measured_energy: float, degree: int,
                          t: TargetSpace) -> dict:
    pairing = pairing_value(t, degree)
    gap = abs(measured_energy - pairing) / pairing if pairing else abs(measured_energy)
    return {"measured": float(measured_energy), "pairing": pairing,
            "relative_gap": float(gap)}
