"""Linear Hamiltonian torus actions on C^n.

A rank-k torus acts on C^n through an integer weight matrix; the moment map
carries a constant shift tau.  This module provides the moment map, the
infinitesimal action, the Gram operator entering the linearized vortex
equation, the Hilbert-Mumford semistability test (k <= 2), and the projection
of a semistable point onto the zero level of the moment map along the
imaginary-direction flow (Newton on a convex potential).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import VortexlabError

__all__ = [
    "TargetSpace",
    "TargetError",
    "KPoint",
    "moment_map",
    "infinitesimal_action",
    "L_operator",
    "is_semistable",
    "kempf_ness",
    "kempf_ness_shift",
    "kempf_ness_shifts",
    "semistable_mask",
    "fingerprint",
    "fingerprint_distance",
    "validate_chamber",
]

ZERO_TOL = 1e-9


class TargetError(VortexlabError, ValueError):
    """Bad target data, unstable input, or chamber misconfiguration."""


@dataclass(frozen=True)
class TargetSpace:
    """C^n with a rank-k torus action given by an integer k x n weight matrix
    and a moment-map shift tau in R^k.  The hermitian metric is standard."""

    n: int
    k: int
    weights: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=float)
        except ValueError as exc:  # ragged rows
            raise TargetError(f"weights are not a matrix: {exc}") from exc
        if w.shape != (self.k, self.n):
            raise TargetError(f"weight matrix shape {w.shape} != (k, n)=({self.k}, {self.n})")
        if not np.all((w == np.round(w)) & (np.abs(w) < 2**31)):
            raise TargetError("weights must be integers of size below 2^31")
        object.__setattr__(self, "weights", np.round(w).astype(int))
        tau = np.asarray(self.tau, dtype=float).reshape(-1)
        if tau.shape != (self.k,):
            raise TargetError(f"tau shape {tau.shape} != (k,)=({self.k},)")
        if not np.all(np.isfinite(tau)):
            raise TargetError("tau must be finite")
        object.__setattr__(self, "tau", tau)


def _as_point(t: TargetSpace, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (t.n,):
        raise TargetError(f"point shape {v.shape} != (n,)=({t.n},)")
    return v


def moment_map(t: TargetSpace, v) -> np.ndarray:
    """Phi(v)_a = 1/2 sum_j w_aj |v_j|^2 - tau_a."""
    v = _as_point(t, v)
    return 0.5 * t.weights @ np.abs(v) ** 2 - t.tau


def infinitesimal_action(t: TargetSpace, xi, v) -> np.ndarray:
    """Tangent vector with component j equal to i (w^T xi)_j v_j."""
    v = _as_point(t, v)
    xi = np.asarray(xi, dtype=float).reshape(t.k)
    return 1j * (t.weights.T @ xi) * v


def L_operator(t: TargetSpace, v) -> np.ndarray:
    """Gram matrix L(v)_ab = sum_j w_aj w_bj |v_j|^2 (symmetric PSD)."""
    v = _as_point(t, v)
    return (t.weights * np.abs(v) ** 2) @ t.weights.T


def _active_mask(V: np.ndarray) -> np.ndarray:
    """Nonvanishing coordinates of each row of V (m, n), relative to the
    row's largest modulus."""
    mod = np.abs(V)
    scale = np.maximum(1.0, np.max(mod, axis=1, initial=0.0))
    return mod > ZERO_TOL * scale[:, None]


def _active_columns(t: TargetSpace, v) -> np.ndarray:
    return np.flatnonzero(_active_mask(_as_point(t, v)[None, :])[0])


def _as_rows(t: TargetSpace, V) -> np.ndarray:
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[1] != t.n:
        raise TargetError(f"point rows have shape {V.shape}, expected (m, {t.n})")
    return V


def _tau_in_open_cone(weights: np.ndarray, tau: np.ndarray):
    """Is tau a strictly positive combination of the given weight columns?

    Exact extreme-ray test for k <= 2.  Returns (bool, separating direction or
    None); the direction is a Hilbert-Mumford destabilizer when the answer is
    negative.
    """
    k, m = weights.shape
    if k == 1:
        ws = weights[0]
        has_pos = np.any(ws > 0)
        has_neg = np.any(ws < 0)
        tau0 = float(tau[0])
        if has_pos and has_neg:
            return True, None
        if has_pos:
            return (tau0 > 0), (None if tau0 > 0 else np.array([-1.0]))
        if has_neg:
            return (tau0 < 0), (None if tau0 < 0 else np.array([1.0]))
        return False, np.array([1.0 if tau0 <= 0 else -1.0])
    if k == 2:
        cols = [weights[:, j] for j in range(m) if np.any(weights[:, j] != 0)]
        if not cols:
            return False, np.array([1.0, 0.0])
        # does some closed half-plane contain every weight ray?
        for u in cols:
            normal = np.array([-u[1], u[0]], dtype=float)
            for sgn in (1.0, -1.0):
                nn = sgn * normal
                if all(nn @ c >= 0 for c in cols):
                    break
            else:
                continue
            # all rays lie in {x : nn.x >= 0}; sector between extreme rays
            return _tau_in_sector(cols, tau)
        # weight rays positively span the plane: open cone is all of R^2
        return True, None
    raise TargetError(f"Hilbert-Mumford test supports k <= 2, got k={k}")


def _tau_in_sector(cols, tau):
    cross = lambda a, b: float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])
    lo = hi = cols[0]
    for c in cols[1:]:
        if cross(lo, c) < 0:
            lo = c
        if cross(hi, c) > 0:
            hi = c
    width = cross(lo, hi)
    tau = np.asarray(tau, dtype=float)
    if width > 0:
        ok = cross(lo, tau) > ZERO_TOL and cross(tau, hi) > ZERO_TOL
        if ok:
            return True, None
        bad = np.array([-lo[1], lo[0]], float) if cross(lo, tau) <= ZERO_TOL else -np.array([-hi[1], hi[0]], float)
        return False, bad
    # all rays collinear
    ray = np.asarray(lo, dtype=float)
    along = ray @ tau
    perp = cross(ray, tau)
    if abs(perp) <= ZERO_TOL and along > ZERO_TOL and all(cross(ray, c) == 0 and ray @ c > 0 for c in cols):
        return True, None
    return False, np.array([-ray[1], ray[0]]) if abs(perp) > ZERO_TOL else -ray


def _pattern_semistable(t: TargetSpace, active: np.ndarray) -> bool:
    act = np.flatnonzero(active)
    if len(act) == 0:
        return False
    sub = t.weights[:, act]
    if np.linalg.matrix_rank(sub) < t.k:
        return False
    ok, _ = _tau_in_open_cone(sub, t.tau)
    return ok


def _patterns(V: np.ndarray):
    """Distinct active-coordinate patterns of the rows of V and, per row, the
    index of its pattern."""
    mask = _active_mask(V)
    keys = np.ascontiguousarray(mask).view(f"V{mask.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return mask[first], inverse.reshape(-1)


def semistable_mask(t: TargetSpace, V) -> np.ndarray:
    """is_semistable for every row of V (m, n); the Hilbert-Mumford test runs
    once per distinct active-coordinate pattern."""
    patterns, inverse = _patterns(_as_rows(t, V))
    ok = np.array([_pattern_semistable(t, pat) for pat in patterns], dtype=bool)
    return ok[inverse]


def is_semistable(t: TargetSpace, v) -> bool:
    """Hilbert-Mumford test: no one-parameter subgroup destabilizes v.

    For the linear torus action this is the statement that tau is a strictly
    positive combination of the weights of the nonvanishing coordinates and
    that those weights span R^k.
    """
    return bool(semistable_mask(t, _as_point(t, v)[None, :])[0])


# a trial step may overflow (its potential is then +inf and rejected); a tau
# too large for the float range shows as a non-finite Phi and is reported
@np.errstate(over="ignore", invalid="ignore")
def kempf_ness_shifts(t: TargetSpace, V, tol: float = 1e-12, max_iter: int = 60):
    """Newton solve for s_i in R^k with Phi(e^{(w^T s_i)} v_i) = 0, for every
    row v_i of V (m, n) at once.

    The rescaled point e^{(w^T s)_j} v_j follows the imaginary-direction flow;
    Phi along it is the gradient of a strictly convex potential, so Newton
    with a backtracking line search per row converges for semistable rows.
    A row has converged when |Phi| / max(1, |tau|) <= tol, a tolerance the
    float resolution of Phi's two terms can meet (the norm is taken after
    the division, so near the zero level it cannot overflow); converged rows
    drop out of the iteration.  Returns (S (m, k), iterations (m,)).
    """
    V = _as_rows(t, V)
    patterns, inverse = _patterns(V)
    if not all(_pattern_semistable(t, pat) for pat in patterns):
        raise TargetError("kempf_ness requires a semistable point")
    m = np.abs(V) ** 2
    w = t.weights.astype(float)
    tau_size = float(np.max(np.abs(t.tau)))
    scale = max(1.0, tau_size)

    def potential(S, M):
        val = 0.25 * np.sum(np.exp(2.0 * (S @ w)) * M, axis=1) - S @ t.tau
        return np.where(np.isfinite(val), val, np.inf)

    # warm start: least-squares shift putting every active squared modulus
    # near max(1, |tau|), the scale of the zero level, so wildly scaled inputs
    # cannot overflow the exponentials and a large tau starts near its level
    S = np.zeros((len(V), t.k))
    log_scale = np.log(scale)
    for p, act in enumerate(patterns):
        members = np.flatnonzero(inverse == p)
        S[members] = np.linalg.lstsq(
            w[:, act].T,
            -0.5 * (np.log(m[np.ix_(members, act)]) - log_scale).T,
            rcond=None,
        )[0].T
    iterations = np.zeros(len(V), dtype=int)
    live = np.arange(len(V))
    s, ml = S, m
    for it in range(max_iter):
        scaled = np.exp(2.0 * (s @ w)) * ml
        f = 0.5 * scaled @ w.T - t.tau
        if not np.all(np.isfinite(f)):
            raise TargetError(
                f"kempf_ness Newton left the float range: |tau| = {tau_size:.3g} "
                "is too large to retract onto"
            )
        done = np.linalg.norm(f / scale, axis=1) <= tol
        if done.any():
            S[live] = s
            iterations[live[done]] = it
            live, s, ml, scaled, f = (x[~done] for x in (live, s, ml, scaled, f))
        if len(live) == 0:
            return S, iterations
        jac = np.einsum("aj,ij,bj->iab", w, scaled, w)
        try:
            step = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise TargetError("degenerate Newton system; chamber misconfiguration") from exc
        alpha = np.ones(len(live))
        base = potential(s, ml)
        grad_dot = np.sum(f * step, axis=1)
        slack = 1e-14 * (1.0 + np.abs(base))  # float floor near the minimum
        rows = slice(None)  # rows still backtracking
        for _ in range(40):
            trial = potential(s[rows] + alpha[rows, None] * step[rows], ml[rows])
            bound = base[rows] + 0.25 * alpha[rows] * grad_dot[rows] + slack[rows]
            rejected = ~(trial <= bound)
            if not rejected.any():
                break
            rows = np.arange(len(live))[rows][rejected]
            alpha[rows] *= 0.5
        s = s + alpha[:, None] * step
    raise TargetError(
        f"kempf_ness Newton did not converge in {max_iter} steps at |tau| = "
        f"{tau_size:.3g}; chamber misconfiguration or tau too large"
    )


def kempf_ness_shift(t: TargetSpace, v, tol: float = 1e-12, max_iter: int = 60):
    """kempf_ness_shifts for the single point v.  Returns (s, iterations)."""
    S, iterations = kempf_ness_shifts(t, _as_point(t, v)[None, :], tol, max_iter)
    return S[0], int(iterations[0])


@dataclass(frozen=True)
class KPoint:
    """A point of the moment-map zero level with its gauge-invariant summary."""

    point: np.ndarray
    fingerprint: "Fingerprint"


def kempf_ness(t: TargetSpace, v) -> KPoint:
    s, _ = kempf_ness_shift(t, v)
    out = np.exp(t.weights.T.astype(float) @ s) * _as_point(t, v)
    return KPoint(out, fingerprint(t, out))


def _integer_kernel(mat: np.ndarray):
    """Basis of the integer kernel of an integer matrix, by exact elimination."""
    k, m = mat.shape
    rows = [[Fraction(int(mat[a, j])) for j in range(m)] for a in range(k)]
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, k) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for c in free:
        vec = [Fraction(0)] * m
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][c]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        basis.append(tuple(x // max(g, 1) for x in ints))
    return basis


@dataclass(frozen=True)
class Fingerprint:
    """Moduli plus torus-invariant phase combinations of a point in C^n."""

    moduli: tuple
    phases: tuple  # ((integer combo over active coords), angle) pairs
    active: tuple

    def as_dict(self):
        return {
            "moduli": list(self.moduli),
            "phases": [{"combo": list(c), "angle": a} for c, a in self.phases],
            "active": list(self.active),
        }


def fingerprint(t: TargetSpace, v) -> Fingerprint:
    v = _as_point(t, v)
    moduli = tuple(float(x) for x in np.abs(v))
    act = _active_columns(t, v)
    phases = []
    if len(act) > 0:
        kernel = _integer_kernel(t.weights[:, act])
        args = np.angle(v[act])
        for combo in kernel:
            ang = float(np.mod(np.dot(combo, args), 2.0 * np.pi))
            full = tuple(int(x) for x in np.zeros(t.n, dtype=int))
            full = list(full)
            for pos, j in enumerate(act):
                full[j] = combo[pos]
            phases.append((tuple(full), ang))
    return Fingerprint(moduli, tuple(phases), tuple(int(j) for j in act))


def _angular_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def fingerprint_distance(f1: Fingerprint, f2: Fingerprint) -> float:
    """Euclidean distance on moduli plus angular distance on matching
    invariant phase combinations."""
    m1 = np.asarray(f1.moduli)
    m2 = np.asarray(f2.moduli)
    if m1.shape != m2.shape:
        raise TargetError("fingerprints live in different targets")
    d = float(np.linalg.norm(m1 - m2))
    p2 = dict(f2.phases)
    for combo, ang in f1.phases:
        if combo in p2:
            d += _angular_distance(ang, p2[combo])
    return d


def validate_chamber(t: TargetSpace, samples: int = 24, seed: int = 7):
    """Refuse targets whose shift lies outside the feasible cone or whose
    zero level is visited by points with positive-dimensional stabilizer.

    Draws sample points, retracts the semistable ones, and requires the
    active weight submatrix to have rank k on the zero level.
    """
    ok, direction = _tau_in_open_cone(t.weights, t.tau)
    if not ok:
        raise TargetError(
            "tau outside the feasible cone; destabilizing direction "
            f"{None if direction is None else direction.tolist()}"
        )
    draws = np.random.default_rng(seed).normal(size=(samples, 2, t.n))
    V = draws[:, 0] + 1j * draws[:, 1]
    V = V[semistable_mask(t, V)]
    if len(V) == 0:
        raise TargetError("no semistable sample points; chamber misconfiguration")
    S, _ = kempf_ness_shifts(t, V)
    for act in _patterns(np.exp(S @ t.weights.astype(float)) * V)[0]:
        if not act.any() or np.linalg.matrix_rank(t.weights[:, act]) < t.k:
            raise TargetError("zero level reached with a positive-dimensional stabilizer")
    return True
