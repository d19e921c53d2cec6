"""Newton solve transforming holomorphic pairs into vortices.

The unknown is a real moment-direction gauge parameter xi on grid sites
(Dirichlet zero at truncation rings).  Every Laplacian applied here is one
Dirichlet-periodic stencil with a step plus the pointwise Gram(u), its
weights and site blocks written once (_site_blocks): step 2 is the
composed-centered (wide) Laplacian of the gauge step, step 1 the five-point
one.  Each Newton step freezes the exact positive Jacobian of the discrete
gauge step (step 2) and solves it by conjugate gradients (pcg, the one
Krylov loop of the package) on flat interior vectors, one matrix-free numpy
apply per iteration, optionally preconditioned by the core/sleeve patched
inverse: the one user of scipy, imported when it is built.  A preconditioner
maps a flat interior vector to one, so pcg applies it as it is.  The
patched inverse writes every parity class's band of its domain solves from
the same site blocks, factors it once, and keeps and solves at each apply
only the trailing block under the cutoff.
The Newton is inexact: the inner tolerance of each step is an
Eisenstat-Walker forcing term (choice 2, relative, Euclidean) floored at
cg_tol, each inner solve also stops once its linear residual is at most
newton_tol / 2 in the sup norm, the norm of the outer stop, and a
backtracking line search guards the large-residual regime.  The five-point
operator (linearized_apply) is the default system of cg_solve.  solve_all
runs a list of independent Newton solves, in worker processes started by
multiprocessing's fork start method when the seeds are large enough to pay
for a fork, with the serial loop's results and error.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import VortexlabError
from .fields import (FieldError, GaugedField, d_r, d_theta, end_average, gram_field,
                     ring_energy, vortex_residual)
from .surface import core_sleeve
from .target import TargetError

__all__ = ["SolverError", "SolveConfig", "SolveReport", "linearized_apply", "pcg",
           "cg_solve", "gauge_step_operator", "gauge_step_jacobian_apply",
           "gauge_update", "newton_solve", "solve_all", "PatchedPreconditioner",
           "patched_preconditioner", "operator_defect"]


class SolverError(VortexlabError, RuntimeError):
    """Divergence, SPD violation, or an unstable seed."""


@dataclass
class SolveConfig:
    newton_tol: float = 1e-8
    max_newton: int = 30
    cg_tol: float = 1e-10
    max_cg: int = 20000
    preconditioner: str = "none"  # "none" | "patched"

    def __post_init__(self):
        for name in ("newton_tol", "cg_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and value > 0):
                raise SolverError(f"{name} must be finite and positive, got {value!r}")
        for name in ("max_newton", "max_cg"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool) and value >= 1):
                raise SolverError(f"{name} must be an integer of at least 1, got {value!r}")
        if self.preconditioner not in ("none", "patched"):
            raise SolverError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class SolveReport:
    """What a Newton solve did, step by step, and the energy of the field it
    returns: ring_energy is fields.ring_energy of that field, evaluated once
    in newton_solve (it travels back from a worker process with the
    report), and final_energy its quadrature, bitwise energy(field).total.
    The experiments read ring_energy instead of evaluating the density
    again; as_dict leaves it out."""

    residual_sup: list = field(default_factory=list)
    residual_l2: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    cg_tolerances: list = field(default_factory=list)  # forcing term of each step
    step_sizes: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # halvings of each step
    final_energy: float = float("nan")
    ring_energy: Optional[np.ndarray] = None  # (n_r,) angular line energy per ring
    converged: bool = False

    @property
    def newton_iterations(self) -> int:
        return len(self.cg_iterations)

    def as_dict(self) -> dict:
        return {
            "residual_sup": self.residual_sup,
            "residual_l2": self.residual_l2,
            "cg_iterations": self.cg_iterations,
            "cg_tolerances": self.cg_tolerances,
            "step_sizes": self.step_sizes,
            "backtracks": self.backtracks,
            "final_energy": self.final_energy,
            "converged": self.converged,
            "newton_iterations": self.newton_iterations,
        }


# -- discrete operators -------------------------------------------------------

def _zero_boundary(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _site_blocks(p, step: int, gram_rows: np.ndarray):
    """(w_r, w_t, blocks) of the step stencil on interior rings with Gram(u)
    gram_rows (rings, n_theta, k, k), Dirichlet one ring past each end: the
    radial and angular neighbour weights (each entering with a minus sign)
    and each site's k x k block, Gram(u) plus the Laplacian's diagonal.

    The radial part is D^T D, D the difference across step rings divided by
    step * h_r; the angular part is the periodic second difference across
    step angles divided by (step * h_theta)^2.  step = 1 is the five-point
    operator, step = 2 the composed-centered (wide) one of the gauge step.
    w_r is 1/h_r^2 for step 1 and the product of the centered weights
    1/(2 h_r) for step 2, so that every entry is bitwise that of the
    kron-assembled sparse operator.
    """
    s, inner, k = step, len(gram_rows), gram_rows.shape[-1]
    w_r = 1.0 / p.h_r**2 if s == 1 else (0.5 / p.h_r) * (0.5 / p.h_r)
    w_t = 1.0 / (s * s * p.h_theta**2)
    ring = np.arange(inner)[:, None, None]
    pairs = (ring >= s - 1).astype(float) + (ring <= inner - s)  # D^T D diagonal
    blocks = np.array(gram_rows, dtype=float)
    c = np.arange(k)
    blocks[:, :, c, c] += pairs * w_r + 2.0 * w_t
    return w_r, w_t, blocks


def _stencil(f: GaugedField, step: int) -> Callable[[np.ndarray], np.ndarray]:
    """The step stencil of f's whole piece (Gram(u) frozen here, Dirichlet at
    its end rings) as an apply on full-piece parameters: it reads only the
    interior rows of its argument and returns a new array whose boundary
    rows are zero.  Its attribute flat is the same map, matrix-free, on flat
    interior vectors in (ring, theta, component) order, returning a buffer of
    its own that the next call overwrites: blocks x - w_r (w_t / w_r angular
    sum + radial sum) in whole-vector numpy operations on shifted slices,
    the angular sum taken again by index on the first and last step angles
    of each ring, where a shift runs into the next ring."""
    p, k, s = f.piece, f.target.k, step
    n_r, nth, inner = p.n_r, p.n_theta, p.n_r - 2
    w_r, w_t, blocks = _site_blocks(p, s, gram_field(f)[1:-1])
    n = inner * nth * k
    rs, ts = min(s * nth * k, n), s * k  # flat shifts by step rings, step angles
    at = lambda js: ((np.arange(inner)[:, None, None] * nth + js[:, None]) * k
                     + np.arange(k)).reshape(-1)  # flat indices of angles js
    wrapped = np.r_[:s, nth - s : nth]
    edge, below, above = at(wrapped), at((wrapped - s) % nth), at((wrapped + s) % nth)
    y, t = np.empty(n), np.empty(n)

    def flat(x: np.ndarray) -> np.ndarray:
        np.add(x[: n - 2 * ts], x[2 * ts :], out=y[ts : n - ts])
        y[edge] = x[below] + x[above]
        np.multiply(y, w_t / w_r, out=y)
        np.add(y[rs:], x[: n - rs], out=y[rs:])  # ring - step
        np.add(y[: n - rs], x[rs:], out=y[: n - rs])  # ring + step
        np.multiply(y, -w_r, out=y)
        for c in range(k):  # the site blocks, column by column
            np.multiply(blocks.reshape(-1, k, k)[:, :, c], x.reshape(-1, k)[:, c : c + 1],
                        out=t.reshape(-1, k))
            np.add(y, t, out=y)
        return y

    def apply(xi: np.ndarray) -> np.ndarray:
        out = np.zeros((n_r, nth, k))
        x = np.ascontiguousarray(xi[1:-1], dtype=float).reshape(-1)
        out[1:-1] = flat(x).reshape(inner, nth, k)
        return out

    apply.flat = flat
    return apply


def linearized_apply(f: GaugedField, xi: np.ndarray) -> np.ndarray:
    """Five-point Laplacian (Dirichlet at the boundary rings, periodic in
    theta; twists are absorbed into the grid layout) plus the pointwise Gram
    operator of the torus action at u."""
    return _stencil(f, 1)(xi)


def gauge_update(f: GaugedField, xi: np.ndarray) -> GaugedField:
    """Complex gauge step used inside Newton: identical to
    apply_complex_gauge except that the connection shift of the Dirichlet
    parameter leaves the boundary rings untouched, which makes the composed
    residual exactly quadratic around the iterate."""
    p = f.piece
    xi = _zero_boundary(xi)
    w = f.target.weights.astype(float)
    u = f.u * np.exp(-np.einsum("aj,xya->xyj", w, xi))
    return f.with_fields(
        a_r=f.a_r + d_theta(xi, p.h_theta),
        a_theta=f.a_theta - _zero_boundary(d_r(xi, p.h_r)),
        u=u,
    )


def gauge_step_operator(f: GaugedField) -> Callable[[np.ndarray], np.ndarray]:
    """Exact Jacobian of xi -> vortex_residual(gauge_update(f, xi)) at 0, as
    an apply frozen at f (Gram(u) evaluated once, here): the step-2 stencil.

    The curvature response of the centered shift is the composed-centered
    (wide) Laplacian, symmetric positive here because the centered Dirichlet
    derivative is skew; the five-point operator would overdamp the
    grid-frequency components and stall the Newton tail.
    """
    return _stencil(f, 2)


def gauge_step_jacobian_apply(f: GaugedField, xi: np.ndarray) -> np.ndarray:
    """One apply of gauge_step_operator(f); see there."""
    return gauge_step_operator(f)(xi)


@np.errstate(over="ignore", invalid="ignore")
def pcg(op: Callable, rhs: np.ndarray, M: Optional[Callable], tol: float,
        maxit: int, sup_tol: Optional[float] = None):
    """Preconditioned conjugate gradients for op x = rhs from x = 0.

    op must be symmetric positive and M (None: identity) a symmetric positive
    approximate inverse.  Stops at relative Euclidean residual tol, or, when
    sup_tol is given, as soon as the residual's largest entry is at most
    sup_tol; that entry is only looked for once the Euclidean norm is at
    most sqrt(n) sup_tol, which every such residual satisfies.  Raises when
    d.Ad is not finite and positive (a misconfigured or overflowing operator)
    or maxit is exceeded.  Returns (x, iterations).  Every update is an
    in-place numpy operation on a flat view: the direction is scaled by the
    step length and added to x, and op's result, which pcg overwrites, is
    scaled and subtracted from the residual.
    """
    x = np.zeros(np.shape(rhs))
    r = np.array(rhs, dtype=float)
    xv, rv = x.reshape(-1), r.reshape(-1)
    rr = float(np.dot(rv, rv))
    rhs_norm = math.sqrt(rr)
    if rhs_norm == 0.0:
        return x, 0
    stop = tol * rhs_norm
    sup_gate = -1.0 if sup_tol is None else math.sqrt(rv.size) * sup_tol
    z = r if M is None else M(r)
    rz = rr if M is None else float(np.dot(rv, z.reshape(-1)))
    d = np.array(z, dtype=float)
    dv = d.reshape(-1)
    for it in range(1, maxit + 1):
        Ad = op(d).reshape(-1)
        dAd = float(np.dot(dv, Ad))
        if not 0.0 < dAd < math.inf:
            raise SolverError(f"operator lost positivity or overflowed: d.Ad = {dAd:.3g}")
        alpha = rz / dAd
        dv *= alpha  # unscaled again with beta below
        xv += dv
        Ad *= alpha
        rv -= Ad
        rr = float(np.dot(rv, rv))
        norm = math.sqrt(rr)
        if norm <= stop or (norm <= sup_gate and max(rv.max(), -rv.min()) <= sup_tol):
            return x, it
        if M is None:
            z, rz_new = r, rr
        else:
            z = M(r)
            rz_new = float(np.dot(rv, z.reshape(-1)))
        d *= rz_new / rz / alpha
        d += z
        rz = rz_new
    raise SolverError(f"conjugate gradients exceeded {maxit} iterations")


def cg_solve(
    f: GaugedField,
    rhs: np.ndarray,
    cfg: SolveConfig,
    preconditioner: Optional[Callable] = None,
    operator: Optional[Callable] = None,
    sup_tol: Optional[float] = None,
):
    """Conjugate gradients for (Laplacian + Gram) xi = rhs on interior sites.

    operator replaces the default five-point operator of linearized_apply
    (Gram(u) frozen for the solve) and must come from _stencil, such as
    gauge_step_operator(f): the solve runs on flat interior vectors with its
    matrix-free flat apply, and preconditioner (None: none), a map from such
    a vector to one such as PatchedPreconditioner.apply_symmetric, goes to
    pcg as it is.  cfg.cg_tol, cfg.max_cg and sup_tol (None: no sup stop;
    Newton passes half its newton_tol) bound the solve (see pcg).  Returns
    (xi, iterations), xi full-piece with zero boundary rows.
    """
    op = operator if operator is not None else _stencil(f, 1)
    xi = np.zeros(rhs.shape)  # before pcg's arrays: 1 MiB less peak RSS at 800x128
    x, iterations = pcg(op.flat, rhs[1:-1].reshape(-1), preconditioner, cfg.cg_tol,
                        cfg.max_cg, sup_tol)
    xi[1:-1] = x.reshape(xi[1:-1].shape)
    return xi, iterations


# -- Newton solve -------------------------------------------------------------

def _interior_norms(piece, res: np.ndarray):
    inner = res[1:-1]
    sup = float(np.max(np.abs(inner)))
    l2 = float(np.sqrt(np.sum(inner**2) * piece.h_r * piece.h_theta))
    return sup, l2


def _trial(f: GaugedField, step: np.ndarray):
    """(field, residual, sup, l2) after a trial step, or None when the step
    overflows: the rescale leaves the finite range or the residual does."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            trial = gauge_update(f, step)
        except FieldError:
            return None
        res = vortex_residual(trial)
        sup, l2 = _interior_norms(f.piece, res)
    return (trial, res, sup, l2) if np.isfinite(l2) else None


def _check_seed(f: GaugedField):
    """Refuse a seed without a limit at one of its ends.  Only the
    semistability of each end_average is checked: the retraction that
    limit_orbit adds is left to the evaluations that read it."""
    if float(np.max(np.abs(f.u))) == 0.0 and np.any(f.target.tau != 0):
        raise SolverError("unstable seed: u vanishes identically")
    for end in ("left", "right"):
        try:
            end_average(f, end)
        except (FieldError, TargetError) as exc:
            raise SolverError(
                f"unstable seed: {end} end has no semistable limit"
            ) from exc


# Eisenstat-Walker forcing terms (choice 2, SIAM J. Sci. Comput. 17, 1996)
EW_ETA_0 = 0.5  # first step
EW_ETA_MAX = 0.5
EW_GAMMA = 0.9
EW_SAFEGUARD = 0.1  # keep eta from dropping fast when gamma*eta_prev^2 > this


def _forcing_term(norm: float, prev_norm: Optional[float],
                  prev_eta: Optional[float], floor: float) -> float:
    """Relative Euclidean inner tolerance of a Newton step at residual
    2-norm norm: EW choice 2 with its safeguard, capped at EW_ETA_MAX and
    floored at floor.  Near the end the inner solve stops earlier, at its
    sup-norm bound (newton_solve)."""
    if prev_norm is None:
        eta = EW_ETA_0
    else:
        eta = EW_GAMMA * (norm / prev_norm) ** 2
        kept = EW_GAMMA * prev_eta**2
        if kept > EW_SAFEGUARD:
            eta = max(eta, kept)
    return max(floor, min(EW_ETA_MAX, eta))


def newton_solve(f: GaugedField, cfg: Optional[SolveConfig] = None):
    """Drive the vortex residual to cfg.newton_tol within the complex gauge
    orbit of f.  Returns (field, xi_total, SolveReport).  The report's
    ring_energy is the returned field's ring energies, the one evaluation
    of its energy density, and final_energy their quadrature.

    Each step solves its Jacobian system until the linear residual is
    within the forcing term of _forcing_term (at least cfg.cg_tol, relative
    in the Euclidean norm), recorded in report.cg_tolerances, or at most
    cfg.newton_tol / 2 in the sup norm the outer stop measures, whichever
    comes first.  cfg.preconditioner, the one selector of the inner
    preconditioner, is "none" or "patched": the latter assembles the
    core/sleeve approximate inverse (gauge_step flavor) from the seed and
    applies its symmetric form inside every inner solve."""
    cfg = cfg or SolveConfig()
    _check_seed(f)
    preconditioner = None
    if cfg.preconditioner == "patched":
        preconditioner = PatchedPreconditioner(f, flavor="gauge_step").apply_symmetric
    p = f.piece
    to_norm2 = 1.0 / math.sqrt(p.h_r * p.h_theta)  # weighted l2 -> Euclidean
    report = SolveReport()
    xi_total = np.zeros((p.n_r, p.n_theta, f.target.k))
    cur = f
    res = vortex_residual(cur)
    sup, l2 = _interior_norms(p, res)
    report.residual_sup.append(sup)
    report.residual_l2.append(l2)
    prev_norm = prev_eta = None
    for _ in range(cfg.max_newton):
        if sup <= cfg.newton_tol:
            report.converged = True
            break
        rhs = -res
        rhs[0] = 0.0
        rhs[-1] = 0.0
        norm = l2 * to_norm2
        eta = _forcing_term(norm, prev_norm, prev_eta, cfg.cg_tol)
        step, cg_iters = cg_solve(cur, rhs, replace(cfg, cg_tol=eta), preconditioner,
                                  operator=gauge_step_operator(cur),
                                  sup_tol=0.5 * cfg.newton_tol)
        alpha = 1.0
        accepted = None
        for halvings in range(20):
            trial = _trial(cur, alpha * step)
            if trial is not None and trial[3] <= (1.0 - 1e-4 * alpha) * l2:
                accepted = trial
                break
            alpha *= 0.5
        if accepted is None:
            raise SolverError(
                "line search failed: seed outside the basin "
                "(section may vanish on an end)"
            )
        cur, res, sup, l2 = accepted
        xi_total += alpha * step
        prev_norm, prev_eta = norm, eta
        report.residual_sup.append(sup)
        report.residual_l2.append(l2)
        report.cg_iterations.append(cg_iters)
        report.cg_tolerances.append(eta)
        report.step_sizes.append(alpha)
        report.backtracks.append(halvings)
    else:
        report.converged = sup <= cfg.newton_tol
    report.ring_energy = ring_energy(cur)
    report.final_energy = float((report.ring_energy * p.quad_weights_r).sum())
    if not report.converged:
        raise SolverError(
            f"Newton did not reach tol {cfg.newton_tol}: sup residual {sup:.3e}"
        )
    return cur, xi_total, report


# -- independent solves -------------------------------------------------------

#: solve_all forks only when its second-largest seed has at least this many
#: sites (n_r * n_theta), so that no worker gets a solve too small to pay for
#: its fork.  Measured on a 2-core x86_64 VM (Python 3.11, numpy 2.4, one
#: BLAS thread): a fork of the 70 MB benchmark process takes about 7.5 ms and
#: a 25.6k-site (400x64) degree-one solve 50-65 ms, so at this size the fork
#: is about a fifth of the solve it moves to another core.
PARALLEL_MIN_SITES = 16384


def _sites(f: GaugedField) -> int:
    return f.piece.n_r * f.piece.n_theta


def _live_threads() -> int:
    """Threads of this process: the kernel's count where /proc lists them
    (a BLAS thread pool included), else the Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _worker_count(seeds) -> int:
    """Processes solve_all uses: one (the serial loop) unless the second
    largest seed has PARALLEL_MIN_SITES sites, the platform has os.fork and
    os.sched_getaffinity, the process is no daemonic multiprocessing worker
    (which may not start processes) and it runs one thread; then one per
    usable core, at most one per seed.  A fork copies only the calling
    thread, and workers beside a multi-threaded BLAS pool (OpenBLAS's
    default on a multi-core machine) would fight it for the cores."""
    if len(seeds) < 2 or sorted(map(_sites, seeds))[-2] < PARALLEL_MIN_SITES:
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    if _live_threads() > 1:
        return 1
    return min(len(seeds), len(os.sched_getaffinity(0)))


def _bins(seeds, n: int) -> list:
    """Seed indices in n bins: largest seed first, each into the bin with
    the fewest sites so far, so bin 0 holds the largest seed.  Each bin lists
    its indices in serial order."""
    bins, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(seeds)), key=lambda i: -_sites(seeds[i])):
        b = loads.index(min(loads))
        bins[b].append(i)
        loads[b] += _sites(seeds[i])
    return [sorted(b) for b in bins]


def _solve_in_order(seeds, indices, cfg) -> dict:
    """{index: (field, report) of newton_solve, or the exception it raised}
    over indices in order, stopping at the first exception."""
    out = {}
    for i in indices:
        try:
            field_out, _, report = newton_solve(seeds[i], cfg)
            out[i] = field_out, report
        except Exception as exc:
            out[i] = exc
            break
    return out


def _worker(seeds, indices, cfg, conn):
    """Body of a forked worker: solve indices and send {index: (u, a_r,
    a_theta, report) or exception} through conn.  The surface stays in
    the parent.  A worker that cannot send its outcomes (one that does not
    pickle, say) exits with status 1 and prints nothing."""
    try:
        conn.send({i: r if isinstance(r, Exception)
                   else (r[0].u, r[0].a_r, r[0].a_theta, r[1])
                   for i, r in _solve_in_order(seeds, indices, cfg).items()})
    except BaseException:
        sys.exit(1)


def _spawn(seeds, indices, cfg):
    """(process, receiving end of its pipe) of a forked worker solving
    indices, or None when the system has no pipe or process to spare."""
    ctx = multiprocessing.get_context("fork")
    try:
        conn, child_end = ctx.Pipe(duplex=False)
    except OSError:
        return None
    with child_end:  # closed here once forked, so a dead worker reads as EOF
        proc = ctx.Process(target=_worker, args=(seeds, indices, cfg, child_end))
        try:
            proc.start()
        except OSError:
            conn.close()
            return None
    return proc, conn


def _received(seeds, indices, got, code: int) -> dict:
    """A worker's outcomes with each field re-attached to its seed's
    surface; a worker that did not exit 0 fails its first seed with a
    SolverError naming its exit status."""
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return {indices[0]: SolverError(f"worker process for seeds {indices} {how}")}
    return {i: r if isinstance(r, Exception)
            else (seeds[i].with_fields(u=r[0], a_r=r[1], a_theta=r[2]), r[3])
            for i, r in got.items()}


def solve_all(seeds, cfg: Optional[SolveConfig] = None) -> list:
    """newton_solve on every seed, [(field, report)] in seed order.

    The seeds are packed into _worker_count's number of bins by _bins: the
    calling process solves bin 0 and one child process per other bin, forked
    by multiprocessing's fork start method, solves the rest, sending its
    arrays and reports (or exception) back through a pipe.  One bin is the
    serial loop.  Every child is waited for before this returns or raises.
    The results are bitwise those of the serial loop, and so is the error
    raised: the first in seed order, of the same type and message (a child's
    traceback stays in the child).
    """
    bins = _bins(seeds, _worker_count(seeds))
    local, children = list(bins[0]), []  # children: (process, pipe, indices)
    try:
        for indices in bins[1:]:
            child = _spawn(seeds, indices, cfg)
            if child is None:  # no pipe or process to spare: solve it here
                local += indices
            else:
                children.append((*child, indices))
        out = _solve_in_order(seeds, sorted(local), cfg)
        while children:
            proc, pipe, indices = children[0]
            with pipe:
                try:
                    got = pipe.recv()
                except EOFError:  # the worker died before it sent everything
                    got = None
            proc.join()
            children.pop(0)
            out.update(_received(seeds, indices, got, proc.exitcode))
    finally:
        for proc, pipe, _ in children:  # only left when this call failed
            pipe.close()
            proc.kill()
            proc.join()
    # a bin stops at its first failure, so every index missing from out comes
    # after a failure in seed order
    for i in range(len(seeds)):
        if isinstance(out[i], Exception):
            raise out[i]
    return [out[i] for i in range(len(seeds))]


# -- patched approximate inverse ---------------------------------------------

# stencil step of each domain flavor: "gauge_step" is the wide stencil
_STENCIL_STEP = {"five_point": 1, "gauge_step": 2}


def _class_bands(w_r: float, w_t: float, blocks: np.ndarray, step: int,
                 descending: bool):
    """LAPACK upper band of each parity class of a domain's step stencil,
    written from its _site_blocks (w_r, w_t, blocks), with its rings
    descending if asked.

    A stencil reaching rings and angles +-step mixes no ring classes mod
    step, nor angle classes mod step when step divides n_theta (Gram(u)
    stays at one site).  In (ring, theta, component) order a class of T
    angles has half-bandwidth u = T k, and entry A[i, j], i before j, goes
    to band row u + i - j of column j: the site block on rows u .. u - k + 1,
    -w_t for the in-class theta neighbour (q = step // angle stride angles
    on) on row u - q k and for the periodic wrap of the last q angles on row
    u - (T - q) k, and -w_r for the ring neighbour on row 0.  Yields (cls,
    band), one class at a time: its flat domain-local unknowns, (rings, T,
    k) in band order, and band.
    """
    inner, nth, k = blocks.shape[:3]
    idx = np.arange(inner * nth * k).reshape(inner, nth, k)
    if descending:
        blocks, idx = blocks[::-1], idx[::-1]
    st = step if nth % step == 0 else 1
    T, q, u = nth // st, step // st, nth // st * k
    for pr in range(min(step, inner)):
        for pt in range(st):
            view = (slice(pr, None, step), slice(pt, None, st))
            B = blocks[view]
            Z = np.zeros(B.shape[:3] + (u + 1,))  # the band, transposed
            for d in range(k):
                c = np.arange(d, k)
                Z[:, :, d:, u - d] = B[:, :, c - d, c]
            Z[:, q:, :, u - q * k] = -w_t
            Z[:, T - q :, :, u - (T - q) * k] = -w_t
            Z[1:, ..., 0] = -w_r
            yield idx[view], Z.reshape(-1, u + 1).T
            del Z  # the caller's is the only reference to this band


class PatchedPreconditioner:
    """Approximate inverse glued from per-component reference solves, a map
    from a flat interior vector (ring, theta, component order, as pcg
    iterates) to one.

    The literal pipeline lifts a section to the core/sleeve cover, applies the
    exact broken-surface inverse per component, multiplies by the cutoff
    weights and pushes forward (apply).  apply_symmetric splits the cutoff as
    sqrt(phi) on both sides, which keeps the map positive for use inside CG.

    Component ci's domain is the piece rows between its neighbouring necks'
    far socket rings; each parity class band of its step stencil, written
    from _site_blocks, is factored once in place (dpbtrf), its rings
    descending when the cover lies nearer the domain's low end, so that the
    cover's rings come last.  A domain's right-hand side vanishes off its
    cover, which is all that is read back, so each class solves exactly with
    the trailing block of its factor from its first cover ring on: one
    gather of eta, one dpbtrs per class block and one scatter-add make an
    apply.
    """

    def __init__(self, f: GaugedField, flavor: str = "five_point"):
        from scipy.linalg.lapack import dpbtrf, dpbtrs  # scipy's one use

        if flavor not in _STENCIL_STEP:
            raise SolverError(f"unknown operator flavor {flavor!r}")
        step, p, k = _STENCIL_STEP[flavor], f.piece, f.target.k
        covers = core_sleeve(p, f.surface.sleeve_width)
        gram = gram_field(f)  # one evaluation for every domain
        size = p.n_theta * k  # unknowns per ring
        self._dpbtrs = dpbtrs
        self._blocks, parts, n = [], [], 0
        for ci, cover in enumerate(covers):
            left = 0 if ci == 0 else p.necks[ci - 1].i_plus
            right = p.n_r - 1 if ci == len(covers) - 1 else p.necks[ci].i_minus
            inner = right - left - 1
            if inner < 1:
                raise SolverError("operator domain too thin")
            c0 = max(cover.a - left - 1, 0)  # cover as domain interior rings
            c1 = min(cover.b - left - 1, inner - 1)
            descending = c1 + 1 < inner - c0
            pad = (cover.a, p.n_r - 1 - cover.b)  # cover indicator, cutoff by ring
            on = np.pad(np.ones_like(cover.phi), pad)[1:-1]  # interior rings
            phi = np.pad(cover.phi, pad)[1:-1]
            w_r, w_t, blocks = _site_blocks(p, step, gram[left + 1 : right])
            for cls, band in _class_bands(w_r, w_t, blocks, step, descending):
                factor, info = dpbtrf(band, overwrite_ab=1)
                if info > 0:
                    raise SolverError("preconditioner domain matrix is not positive "
                                      f"definite: leading minor {info} of a parity class")
                ring = cls[:, 0, 0] // size
                start = np.count_nonzero(ring > c1 if descending else ring < c0)
                src = cls[start:].reshape(-1) + left * size
                self._blocks.append((n, n + src.size,
                                     factor[:, start * cls[0].size :].copy(order="F")))
                n += src.size
                parts.append((src, on[src // size], phi[src // size]))
                del band, factor  # so that the next class's band is the only one
        self._src, self._inside, self._phi = (np.concatenate(x) for x in zip(*parts))
        self._sqrt_phi = np.sqrt(self._phi)

    def _apply(self, eta: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
        v = eta[self._src] * pre
        for start, stop, factor in self._blocks:
            v[start:stop] = self._dpbtrs(factor, v[start:stop], overwrite_b=1)[0]
        return np.bincount(self._src, weights=post * v, minlength=eta.size)

    def apply(self, eta: np.ndarray) -> np.ndarray:
        """Literal lift -> solve -> cutoff -> push-forward pipeline: the cover
        indicator before the domain solves, phi after."""
        return self._apply(eta, self._inside, self._phi)

    def apply_symmetric(self, eta: np.ndarray) -> np.ndarray:
        """Symmetrized cutoff placement; positive, usable inside CG."""
        return self._apply(eta, self._sqrt_phi, self._sqrt_phi)


def patched_preconditioner(f: GaugedField) -> PatchedPreconditioner:
    return PatchedPreconditioner(f)


def operator_defect(f: GaugedField, pre: PatchedPreconditioner,
                    n_probes: int = 10, seed: int = 0) -> list:
    """Measured |DF(Q eta) - eta| / |eta| on random interior probes."""
    p = f.piece
    lin = _stencil(f, 1).flat
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_probes):
        eta = rng.normal(size=(p.n_r, p.n_theta, f.target.k))[1:-1].reshape(-1)
        image = lin(pre.apply(eta))
        out.append(float(np.linalg.norm(image - eta) / np.linalg.norm(eta)))
    return out
