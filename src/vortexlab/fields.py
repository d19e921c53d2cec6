"""Discrete gauged fields on meshed surfaces.

A field is a pair (a, u) on the grid sites of one connected piece: real
connection components a_r, a_theta with values in R^k and a section u with
values in C^n, together with integer angular twists at the two truncated
ends.  a_theta is the whole angular connection: a seed writes the radial
ramp between the end twists into it once (quasimap.build_seed), so every
formula reads the stored arrays, and lam_left/lam_right are the flat
holonomies the boundary rings carry.  A snapshot (save_field, schema version
SNAPSHOT_SCHEMA) stores exactly these arrays and twists, as one float64 .npy
array per piece and a JSON header; load_field reads them back bitwise.

Conventions (pinned by the discrete identities tested in the suite):
  - holomorphic coordinate z = r + i theta, dbar = (d_r + i d_theta)/2;
  - curvature *F = d_r(a_theta) - d_theta(a_r), centered differences;
  - vortex residual  *F - Phi(u)  with Phi(v) = 1/2 w|v|^2 - tau, so that
    holomorphically seeded positive-degree fields are solvable and the
    linearized operator (-Laplace + Gram) is positive;
  - complex gauge by xi rescales u_j by exp(-(w xi)_j) and shifts
    a by (d_theta xi) dr - (d_r xi) dtheta, preserving holomorphy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import VortexlabError
from .surface import GluedSurface, Piece
from .target import (
    Fingerprint,
    TargetSpace,
    is_semistable,
    kempf_ness,
)

__all__ = [
    "FieldError",
    "GaugedField",
    "EnergyReport",
    "constant_field",
    "curvature",
    "dbar_residual",
    "vortex_residual",
    "moment_map_field",
    "gram_field",
    "energy",
    "ring_energy",
    "apply_unitary_gauge",
    "apply_complex_gauge",
    "holonomy",
    "end_average",
    "limit_orbit",
    "ring_average",
    "winding_number",
    "d_r",
    "d_theta",
    "surface_spec_hash",
    "save_field",
    "load_field",
]


class FieldError(VortexlabError, ValueError):
    """Inconsistent field data or an end without a well-defined limit."""


@dataclass(frozen=True)
class GaugedField:
    """Field data on one piece of a glued surface.

    lam_left/lam_right are the integer holonomies of the two boundary rings;
    a_theta already carries them (holonomy reads them back as ring averages).
    """

    surface: GluedSurface
    piece_index: int
    target: TargetSpace
    a_r: np.ndarray      # (n_r, n_theta, k)
    a_theta: np.ndarray  # (n_r, n_theta, k)
    u: np.ndarray        # (n_r, n_theta, n) complex
    lam_left: np.ndarray   # (k,) integers, global angular frame
    lam_right: np.ndarray  # (k,) integers

    def __post_init__(self):
        p = self.piece
        k, n = self.target.k, self.target.n
        for name, arr, shape in (
            ("a_r", self.a_r, (p.n_r, p.n_theta, k)),
            ("a_theta", self.a_theta, (p.n_r, p.n_theta, k)),
            ("u", self.u, (p.n_r, p.n_theta, n)),
        ):
            if arr.shape != shape:
                raise FieldError(f"{name} has shape {arr.shape}, expected {shape}")
        for lam in (self.lam_left, self.lam_right):
            if lam.shape != (k,) or not np.all(lam == np.round(lam)):
                raise FieldError("end twists must be integer vectors of length k")
        if not (np.all(np.isfinite(self.a_r)) and np.all(np.isfinite(self.a_theta))
                and np.all(np.isfinite(self.u))):
            raise FieldError("field values must be finite")

    @property
    def piece(self) -> Piece:
        return self.surface.pieces[self.piece_index]

    def with_fields(self, a_r=None, a_theta=None, u=None) -> "GaugedField":
        return replace(
            self,
            a_r=self.a_r if a_r is None else a_r,
            a_theta=self.a_theta if a_theta is None else a_theta,
            u=self.u if u is None else u,
        )


def constant_field(surface, piece_index, target, v, lam=None) -> GaugedField:
    """Constant section v with the flat connection a_theta = lam everywhere."""
    p = surface.pieces[piece_index]
    v = np.asarray(v, dtype=complex).reshape(target.n)
    lam = np.zeros(target.k) if lam is None else np.asarray(lam, dtype=float)
    return GaugedField(
        surface, piece_index, target,
        a_r=np.zeros((p.n_r, p.n_theta, target.k)),
        a_theta=np.broadcast_to(lam, (p.n_r, p.n_theta, target.k)).copy(),
        u=np.broadcast_to(v, (p.n_r, p.n_theta, target.n)).copy(),
        lam_left=lam.copy(), lam_right=lam.copy(),
    )


# -- discrete derivatives ----------------------------------------------------

def d_r(arr: np.ndarray, h: float) -> np.ndarray:
    """Radial derivative: centered inside, one-sided second order at rows 0, -1.

    The differences are written straight into the returned array and divided
    there by 2h, with no whole-array temporary; the values are bitwise those
    of (arr[i+1] - arr[i-1]) / (2h)."""
    out = np.empty(arr.shape, np.result_type(arr, 1.0))
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    out[0] = -3.0 * arr[0] + 4.0 * arr[1] - arr[2]
    out[-1] = 3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]
    return np.divide(out, 2.0 * h, out=out)


def d_theta(arr: np.ndarray, h: float) -> np.ndarray:
    """Angular derivative, centered, periodic along axis 1:
    (arr[:, j+1] - arr[:, j-1]) / (2h) with j +- 1 taken mod n_theta, so zero
    when n_theta is 1 or 2.  Written like d_r, by slices into the returned
    array, the two wrapped columns apart."""
    n = arr.shape[1]
    out = np.empty(arr.shape, np.result_type(arr, 1.0))
    np.subtract(arr[:, 2:], arr[:, :-2], out=out[:, 1:-1])
    np.subtract(arr[:, 1 % n], arr[:, -1], out=out[:, 0])
    np.subtract(arr[:, 0], arr[:, (n - 2) % n], out=out[:, -1])
    return np.divide(out, 2.0 * h, out=out)


# -- local operators ----------------------------------------------------------

def curvature(f: GaugedField) -> np.ndarray:
    """*F = d_r a_theta - d_theta a_r, per site in R^k."""
    p = f.piece
    return d_r(f.a_theta, p.h_r) - d_theta(f.a_r, p.h_theta)


def moment_map_field(f: GaugedField) -> np.ndarray:
    """Phi(u) per site: (n_r, n_theta, k)."""
    w = f.target.weights.astype(float)
    return 0.5 * np.einsum("aj,xyj->xya", w, np.abs(f.u) ** 2) - f.target.tau


def gram_field(f: GaugedField) -> np.ndarray:
    """Pointwise Gram operator (n_r, n_theta, k, k) of the torus action at u."""
    w = f.target.weights.astype(float)
    return np.einsum("aj,bj,xyj->xyab", w, w, np.abs(f.u) ** 2)


def _covariant_derivative(f: GaugedField):
    """(D_r u, D_theta u) with D = d + i (w a), per site in C^n."""
    p = f.piece
    w = f.target.weights.astype(float)
    wa_r = np.einsum("aj,xya->xyj", w, f.a_r)
    wa_t = np.einsum("aj,xya->xyj", w, f.a_theta)
    return (d_r(f.u, p.h_r) + 1j * wa_r * f.u,
            d_theta(f.u, p.h_theta) + 1j * wa_t * f.u)


def dbar_residual(f: GaugedField) -> np.ndarray:
    """(0,1) part of the covariant derivative in the frame dz̄/2."""
    dr, dt = _covariant_derivative(f)
    return 0.5 * (dr + 1j * dt)


def vortex_residual(f: GaugedField) -> np.ndarray:
    """*F - Phi(u) per site; zero exactly at a discrete vortex."""
    return curvature(f) - moment_map_field(f)


@dataclass(frozen=True)
class EnergyReport:
    total: float


def energy_density(f: GaugedField) -> np.ndarray:
    curv = curvature(f)
    dr, dt = _covariant_derivative(f)
    phi = moment_map_field(f)
    return (
        np.sum(curv**2, axis=-1)
        + np.sum(np.abs(dr) ** 2 + np.abs(dt) ** 2, axis=-1)
        + np.sum(phi**2, axis=-1)
    )


def ring_energy(f: GaugedField) -> np.ndarray:
    """Angular line integral of the energy density per ring."""
    return energy_density(f).sum(axis=1) * f.piece.h_theta


def energy(f: GaugedField) -> EnergyReport:
    """Quadrature of |*F|^2 + |d_A u|^2 + |Phi(u)|^2 over the flat area element."""
    ring = ring_energy(f) * f.piece.quad_weights_r
    return EnergyReport(float(ring.sum()))


# -- gauge actions ------------------------------------------------------------

def _as_k_field(f: GaugedField, phi) -> np.ndarray:
    p = f.piece
    phi = np.asarray(phi, dtype=float)
    if phi.shape == (f.target.k,):
        phi = np.broadcast_to(phi, (p.n_r, p.n_theta, f.target.k)).copy()
    if phi.shape != (p.n_r, p.n_theta, f.target.k):
        raise FieldError(f"gauge parameter has shape {phi.shape}")
    return phi


def apply_unitary_gauge(f: GaugedField, phi) -> GaugedField:
    """u_j -> exp(i (w phi)_j) u_j, a -> a - d(phi).

    The derivative shift carries the sign that makes |d_A u| invariant for
    the pinned section action (the a^{0,1} response to a gauge g is
    -(dbar g) g^{-1}); curvature and the moment map are invariant either way.
    """
    p = f.piece
    phi = _as_k_field(f, phi)
    w = f.target.weights.astype(float)
    u = f.u * np.exp(1j * np.einsum("aj,xya->xyj", w, phi))
    return f.with_fields(
        a_r=f.a_r - d_r(phi, p.h_r),
        a_theta=f.a_theta - d_theta(phi, p.h_theta),
        u=u,
    )


def apply_complex_gauge(f: GaugedField, xi) -> GaugedField:
    """u_j -> exp(-(w xi)_j) u_j, a -> a + (d_theta xi) dr - (d_r xi) dtheta."""
    p = f.piece
    xi = _as_k_field(f, xi)
    w = f.target.weights.astype(float)
    u = f.u * np.exp(-np.einsum("aj,xya->xyj", w, xi))
    return f.with_fields(
        a_r=f.a_r + d_theta(xi, p.h_theta),
        a_theta=f.a_theta - d_r(xi, p.h_r),
        u=u,
    )


# -- end data -----------------------------------------------------------------

def holonomy(f: GaugedField, r0: float):
    """Angular holonomy at radius r0: the ring average of a_theta.

    Returns (lift, fractional part); the fractional part is the distance
    representative modulo the integer lattice.
    """
    p = f.piece
    i = p.ring_of(r0)
    lift = f.a_theta[i].mean(axis=0)
    frac = lift - np.round(lift)
    return lift, frac


def ring_average(f: GaugedField, ring: int, lam) -> np.ndarray:
    """Angular mean of u on one ring after undoing the integer twist lam."""
    p = f.piece
    w = f.target.weights.astype(float)
    theta = p.h_theta * np.arange(p.n_theta)
    untwist = np.exp(1j * np.outer(theta, w.T @ lam))  # (n_theta, n)
    return (f.u[ring] * untwist).mean(axis=0)


#: end_average reads the ring this far inside the truncated end
LIMIT_INSET = 1.0


def end_average(f: GaugedField, end: str) -> np.ndarray:
    """The point a truncated end tends to: the ring LIMIT_INSET inside it,
    untwisted by the end's holonomy and averaged.  Raises FieldError unless
    that point is semistable and does not vanish against the ring's scale,
    the one condition under which the end has a limit orbit."""
    if end not in ("left", "right"):
        raise FieldError("end must be 'left' or 'right'")
    n_in = int(round(LIMIT_INSET / f.piece.h_r))
    i = n_in if end == "left" else f.piece.n_r - 1 - n_in
    ring_avg = ring_average(f, i, f.lam_left if end == "left" else f.lam_right)
    scale = max(1.0, float(np.max(np.abs(f.u[i]))))
    if not is_semistable(f.target, ring_avg) or np.max(np.abs(ring_avg)) < 1e-8 * scale:
        raise FieldError(
            f"{end} end ring is not near a semistable point; "
            "a base point is escaping into the marking"
        )
    return ring_avg


def limit_orbit(f: GaugedField, end: str) -> Fingerprint:
    """Evaluation at a truncated end: retract end_average to the moment-map
    zero level and return the gauge-invariant fingerprint."""
    return kempf_ness(f.target, end_average(f, end)).fingerprint


def winding_number(f: GaugedField, ring: int, coord: int) -> int:
    """Total phase winding of u_coord around the given ring."""
    vals = f.u[ring, :, coord]
    if np.min(np.abs(vals)) == 0.0:
        raise FieldError("winding undefined through a zero")
    args = np.angle(vals)
    steps = np.diff(np.concatenate([args, args[:1]]))
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(steps.sum() / (2.0 * np.pi)))


# -- serialization ------------------------------------------------------------

def surface_spec_hash(surface: GluedSurface, piece_index: int) -> str:
    p = surface.pieces[piece_index]
    blob = json.dumps(
        {
            "n_r": p.n_r,
            "n_theta": p.n_theta,
            "h_r": p.h_r,
            "r0": p.r0,
            "strips": [[str(s.vertex), s.i0, s.n_r, s.shift] for s in p.strips],
            "necks": [[str(n.edge), n.i_plus, n.i_minus, n.roll] for n in p.necks],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: version 3: one float64 .npy array per piece (version 2 was a text table)
SNAPSHOT_SCHEMA = 3


def save_field(f: GaugedField, table_path, header_path):
    """One C-ordered float64 .npy array of shape (n_r, n_theta, 2k + 2n), its
    last axis a_r, a_theta, then u as numpy lays out complex values (re_u_j,
    im_u_j for each j), written through an open file so table_path keeps its
    name; plus a JSON header with the schema version, the column names, the
    end twists and the mesh hash."""
    k, n = f.target.k, f.target.n
    u = np.ascontiguousarray(f.u, dtype=complex).view(np.float64)
    with open(table_path, "wb") as fh:
        np.save(fh, np.concatenate([f.a_r, f.a_theta, u], axis=-1), allow_pickle=False)
    cols = [f"a_r_{a}" for a in range(k)] + [f"a_theta_{a}" for a in range(k)]
    cols += [f"{part}_u_{j}" for j in range(n) for part in ("re", "im")]
    header = {
        "columns": cols,
        "lam_left": [int(x) for x in np.round(f.lam_left)],
        "lam_right": [int(x) for x in np.round(f.lam_right)],
        "schema_version": SNAPSHOT_SCHEMA,
        "surface_hash": surface_spec_hash(f.surface, f.piece_index),
        "shape": [f.piece.n_r, f.piece.n_theta],
        "target": {
            "n": f.target.n,
            "k": f.target.k,
            "weights": f.target.weights.tolist(),
            "tau": f.target.tau.tolist(),
        },
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=1)


def load_field(surface, piece_index, target, table_path, header_path) -> GaugedField:
    """The field save_field wrote, bitwise.  A FieldError if the header is not
    of SNAPSHOT_SCHEMA or another mesh's, or the array not save_field's."""
    with open(header_path) as fh:
        header = json.load(fh)
    if header.get("schema_version") != SNAPSHOT_SCHEMA:
        raise FieldError(
            f"field snapshot has schema version {header.get('schema_version')!r}, "
            f"expected {SNAPSHOT_SCHEMA}"
        )
    if header["surface_hash"] != surface_spec_hash(surface, piece_index):
        raise FieldError("field snapshot belongs to a different mesh")
    p, k, n = surface.pieces[piece_index], target.k, target.n
    try:
        data = np.load(table_path, allow_pickle=False)
    except ValueError as exc:  # a pickled array, or no .npy file at all
        raise FieldError(f"field snapshot is not a numeric array: {exc}") from exc
    shape = (p.n_r, p.n_theta, 2 * k + 2 * n)
    if data.dtype != np.float64 or data.shape != shape:
        raise FieldError(f"field snapshot is {data.dtype} {data.shape}, not float64 {shape}")
    a_r, a_theta = data[..., :k], data[..., k : 2 * k]
    u = np.ascontiguousarray(data[..., 2 * k :]).view(complex)
    return GaugedField(
        surface, piece_index, target, a_r, a_theta, u,
        np.asarray(header["lam_left"], dtype=float),
        np.asarray(header["lam_right"], dtype=float),
    )
