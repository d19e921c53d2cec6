"""Newton solve transforming holomorphic pairs into vortices.

The unknown is a real moment-direction gauge parameter xi on grid sites
(Dirichlet zero at truncation rings).  Every Laplacian applied here is one
Dirichlet-periodic stencil with a step plus the pointwise Gram(u), assembled
into one CSR matrix per freeze (_operator; its index arrays are built once
per shape and shared read-only): step 2 is the composed-centered (wide)
Laplacian of the gauge step, step 1 the five-point one.  Each Newton step
freezes the exact positive Jacobian of the discrete gauge step (step 2) and
solves it by conjugate gradients (pcg, the one Krylov loop of the package),
one CSR matvec per iteration, optionally preconditioned by the core/sleeve
patched inverse.  Its domain solves write every parity class's band straight
from the same operator's coefficients, factor it once, and solve at each
apply only the trailing block under the cutoff.  The Newton is inexact: the
inner tolerance of each step is an Eisenstat-Walker forcing term (choice 2)
floored at cg_tol, and a backtracking line search guards the large-residual
regime.  The five-point operator (linearized_apply) is the default system of
cg_solve; the local gauge-fixing diagnostics (flat complex gauge on a patch,
Coulomb gauge) run pcg on their own operators.  solve_all runs a list of
independent Newton solves, in forked worker processes when the seeds are
large enough to pay for a fork, with the results of the serial loop.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import VortexlabError
from .fields import (
    FieldError,
    GaugedField,
    apply_complex_gauge,
    curvature,
    d_r,
    d_theta,
    end_average,
    energy,
    gram_field,
    vortex_residual,
)
from .surface import core_sleeve
from .target import TargetError

__all__ = [
    "SolverError",
    "SolveConfig",
    "SolveReport",
    "linearized_apply",
    "pcg",
    "cg_solve",
    "gauge_step_operator",
    "gauge_step_jacobian_apply",
    "gauge_update",
    "newton_solve",
    "solve_all",
    "flat_gauge_fix",
    "coulomb_gauge_local",
    "PatchedPreconditioner",
    "patched_preconditioner",
    "operator_defect",
]


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
    residual_sup: list = field(default_factory=list)
    residual_l2: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)
    cg_tolerances: list = field(default_factory=list)  # inner tol of each step
    step_sizes: list = field(default_factory=list)
    backtracks: list = field(default_factory=list)  # halvings of each step
    final_energy: float = float("nan")
    xi_norm: float = 0.0
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
            "xi_norm": self.xi_norm,
            "converged": self.converged,
            "newton_iterations": self.newton_iterations,
        }


# -- discrete operators -------------------------------------------------------

def _zero_boundary(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out[0] = 0.0
    out[-1] = 0.0
    return out


@lru_cache(maxsize=16)
def _pattern(inner: int, nth: int, k: int, step: int):
    """Read-only CSR (indptr, indices) of the step stencil on (inner, nth, k)
    interior unknowns in (ring, theta, component) order.

    Every row has 4 + k slots: ring - step, theta - step, the k components of
    its site (the Gram block row), theta + step, ring + step.  A ring
    neighbour past the domain is a dummy slot on the row's own column whose
    coefficient is always zero.  The arrays are shared by every operator of
    this shape, so nothing may write them: a matrix that gets sorted or
    pruned must take its own copy first.
    """
    s = step
    itype = np.int32 if inner * nth * k * (4 + k) < 2**31 else np.int64
    idx = np.arange(inner * nth * k, dtype=itype).reshape(inner, nth, k)
    cols = np.empty((inner, nth, k, 4 + k), dtype=itype)
    cols[..., 0] = cols[..., 3 + k] = idx
    cols[s:, ..., 0] = idx[:-s]
    cols[:-s, ..., 3 + k] = idx[s:]
    cols[..., 1] = np.roll(idx, s, axis=1)
    cols[..., 2 : 2 + k] = idx[:, :, None, :]
    cols[..., 2 + k] = np.roll(idx, -s, axis=1)
    indices = cols.reshape(-1)
    indptr = np.arange(0, indices.size + 1, 4 + k, dtype=itype)
    indices.flags.writeable = indptr.flags.writeable = False
    return indptr, indices


def _operator(f: GaugedField, rows: tuple, step: int,
              gram: Optional[np.ndarray]) -> sp.csr_matrix:
    """Positive Laplacian of the step stencil plus the pointwise gram
    (gram_field(f) of f's whole piece, or None) on rows [a, b] of the piece,
    Dirichlet at rings a and b, periodic in theta, as a CSR matrix over the
    interior unknowns in (ring, theta, component) order.

    The radial part is D^T D, D the difference across step rings divided by
    step * h_r over the pairs of rings inside [a, b]; the angular part is the
    periodic second difference across step angles divided by
    (step * h_theta)^2.  step = 1 is the five-point operator, step = 2 the
    composed-centered (wide) one of the gauge step.  The radial weight is
    1/h_r^2 for step 1 and the product of the centered weights 1/(2 h_r) for
    step 2, so that every entry is bitwise that of the kron-assembled sparse
    operator.  Only the data array is built here; the index arrays are
    _pattern's.
    """
    p, k, s = f.piece, f.target.k, step
    a, b = rows
    inner, nth = b - a - 1, p.n_theta
    if inner < 1:
        raise SolverError("operator domain too thin")
    w_r = 1.0 / p.h_r**2 if s == 1 else (0.5 / p.h_r) * (0.5 / p.h_r)
    w_t = 1.0 / (s * s * p.h_theta**2)
    ring = np.arange(inner)[:, None, None]
    data = np.empty((inner, nth, k, 4 + k))
    data[..., 0] = np.where(ring >= s, -w_r, 0.0)
    data[..., 1] = data[..., 2 + k] = -w_t
    data[..., 3 + k] = np.where(ring < inner - s, -w_r, 0.0)
    data[..., 2 : 2 + k] = 0.0 if gram is None else gram[a + 1 : b]
    pairs = (ring >= s - 1).astype(float) + (ring <= inner - s)  # D^T D diagonal
    c = np.arange(k)
    data[:, :, c, 2 + c] += pairs * w_r + 2.0 * w_t
    indptr, indices = _pattern(inner, nth, k, s)
    n = inner * nth * k
    return sp.csr_matrix((data.reshape(-1), indices, indptr), shape=(n, n))


def _stencil(f: GaugedField, step: int,
             gram: bool = True) -> Callable[[np.ndarray], np.ndarray]:
    """The _operator of f's whole piece (Gram(u) frozen here) as an apply on
    full-piece parameters: it reads only the interior rows of its argument
    and returns a new array whose boundary rows are zero."""
    n_r, nth, k = f.piece.n_r, f.piece.n_theta, f.target.k
    A = _operator(f, (0, n_r - 1), step, gram_field(f) if gram else None)

    def apply(xi: np.ndarray) -> np.ndarray:
        out = np.zeros((n_r, nth, k))
        out[1:-1] = (A @ xi[1:-1].reshape(-1)).reshape(n_r - 2, nth, k)
        return out

    apply.matrix = A
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


def pcg(op: Callable, rhs: np.ndarray, M: Optional[Callable], tol: float,
        maxit: int):
    """Preconditioned conjugate gradients for op x = rhs from x = 0.

    op must be symmetric positive and M (None: identity) a symmetric positive
    approximate inverse.  Stops at relative residual tol; raises on
    loss of positivity (a misconfigured operator) or when maxit is exceeded.
    Returns (x, iterations).  x and the residual are updated in place by
    BLAS daxpy on flat views.
    """
    x = np.zeros(np.shape(rhs))
    r = np.array(rhs, dtype=float)
    xv, rv = x.reshape(-1), r.reshape(-1)
    rr = ddot(rv, rv)
    rhs_norm = math.sqrt(rr)
    if rhs_norm == 0.0:
        return x, 0
    z = r if M is None else M(r)
    rz = rr if M is None else ddot(rv, z.reshape(-1))
    d = np.array(z, dtype=float)
    dv = d.reshape(-1)
    for it in range(1, maxit + 1):
        Ad = op(d).reshape(-1)
        dAd = ddot(dv, Ad)
        if dAd <= 0.0:
            raise SolverError("operator lost positivity; misconfigured system")
        alpha = rz / dAd
        daxpy(dv, xv, a=alpha)
        daxpy(Ad, rv, a=-alpha)
        rr = ddot(rv, rv)
        if math.sqrt(rr) <= tol * rhs_norm:
            return x, it
        if M is None:
            z, rz_new = r, rr
        else:
            z = M(r)
            rz_new = ddot(rv, z.reshape(-1))
        d *= rz_new / rz
        d += z
        rz = rz_new
    raise SolverError(f"conjugate gradients exceeded {maxit} iterations")


def cg_solve(
    f: GaugedField,
    rhs: np.ndarray,
    cfg: SolveConfig,
    preconditioner: Optional[Callable] = None,
    operator: Optional[Callable] = None,
):
    """Conjugate gradients for (Laplacian + Gram) xi = rhs on interior sites.

    operator replaces the default five-point operator of linearized_apply
    (Gram(u) frozen for the solve) and must come from _stencil, such as
    gauge_step_operator(f): the solve runs on flat interior vectors with its
    CSR matrix.  A plain callable operator goes to pcg directly.
    cfg.cg_tol and cfg.max_cg bound the solve (see pcg).  Returns (xi,
    iterations).
    """
    A = (operator if operator is not None else _stencil(f, 1)).matrix
    xi = np.zeros(rhs.shape)
    inner = xi[1:-1]
    M = None
    if preconditioner is not None:
        def M(v):
            inner[...] = v.reshape(inner.shape)
            return preconditioner(xi)[1:-1].reshape(-1)
    x, iterations = pcg(A.dot, rhs[1:-1].reshape(-1), M, cfg.cg_tol, cfg.max_cg)
    inner[...] = x.reshape(inner.shape)
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
                  prev_eta: Optional[float], newton_tol: float,
                  floor: float) -> float:
    """Relative inner tolerance of a Newton step at residual 2-norm norm.

    EW choice 2 with its safeguard, capped at EW_ETA_MAX, never tighter than
    0.5 * newton_tol / norm (the linear residual then stays below newton_tol
    / 2 in the sup norm, which the 2-norm bounds) and floored at floor."""
    if prev_norm is None:
        eta = EW_ETA_0
    else:
        eta = EW_GAMMA * (norm / prev_norm) ** 2
        kept = EW_GAMMA * prev_eta**2
        if kept > EW_SAFEGUARD:
            eta = max(eta, kept)
    eta = max(eta, 0.5 * newton_tol / norm)
    return max(floor, min(EW_ETA_MAX, eta))


def newton_solve(f: GaugedField, cfg: Optional[SolveConfig] = None,
                 snapshot_callback: Optional[Callable] = None):
    """Drive the vortex residual to cfg.newton_tol within the complex gauge
    orbit of f.  Returns (field, xi_total, SolveReport).

    Each step solves its Jacobian system to the forcing term of
    _forcing_term (at least cfg.cg_tol relative) and records it in
    report.cg_tolerances.  cfg.preconditioner, the one selector of the inner
    preconditioner, is "none" or "patched": the latter assembles the
    core/sleeve approximate inverse (gauge_step flavor) from the seed and
    applies its symmetric form inside every inner solve.
    ``snapshot_callback(iteration, field)`` is invoked on the seed and after
    every accepted step."""
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
    if snapshot_callback is not None:
        snapshot_callback(0, cur)
    prev_norm = prev_eta = None
    for it in range(cfg.max_newton):
        if sup <= cfg.newton_tol:
            report.converged = True
            break
        rhs = -res
        rhs[0] = 0.0
        rhs[-1] = 0.0
        norm = l2 * to_norm2
        eta = _forcing_term(norm, prev_norm, prev_eta, cfg.newton_tol, cfg.cg_tol)
        step, cg_iters = cg_solve(cur, rhs, replace(cfg, cg_tol=eta), preconditioner,
                                  operator=gauge_step_operator(cur))
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
        if snapshot_callback is not None:
            snapshot_callback(it + 1, cur)
    else:
        report.converged = sup <= cfg.newton_tol
    report.final_energy = energy(cur).total
    report.xi_norm = float(np.sqrt(np.sum(xi_total**2) * p.h_r * p.h_theta))
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
    os.sched_getaffinity, and the process runs one thread; then one per
    usable core, at most one per seed.  A fork copies only the calling
    thread, and workers beside a multi-threaded BLAS pool (OpenBLAS's
    default on a multi-core machine) would fight it for the cores."""
    if len(seeds) < 2 or sorted(map(_sites, seeds))[-2] < PARALLEL_MIN_SITES:
        return 1
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
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
    """{index: newton_solve's result, or the exception it raised} over
    indices in order, stopping at the first exception."""
    out = {}
    for i in indices:
        try:
            out[i] = newton_solve(seeds[i], cfg)
        except Exception as exc:
            out[i] = exc
            break
    return out


def _worker(seeds, indices, cfg, pipe: tuple):
    """Body of a forked worker: solve indices and write the pickled
    {index: (u, a_r, a_theta, xi, report) or exception} to the pipe's write
    end.  The surface stays in the parent.  Never returns: the exit status
    is 0 once everything is written, else 1."""
    status = 1
    try:
        read_fd, write_fd = pipe
        os.close(read_fd)
        out = {i: r if isinstance(r, Exception)
               else (r[0].u, r[0].a_r, r[0].a_theta, r[1], r[2])
               for i, r in _solve_in_order(seeds, indices, cfg).items()}
        payload = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _spawn(seeds, indices, cfg):
    """(pid, read end of its pipe as a file) of a forked worker solving
    indices, or None when the system has no pipe or process to spare."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _worker(seeds, indices, cfg, (read_fd, write_fd))
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _received(seeds, indices, payload: bytes, status: int) -> dict:
    """A worker's outcomes with each field re-attached to its seed's
    surface; a worker that died or sent no readable result fails its first
    seed with a SolverError naming its exit status."""
    code = os.waitstatus_to_exitcode(status)
    got = None
    if code == 0:
        try:
            got = pickle.loads(payload)
        except Exception:
            pass
    if got is None:
        how = (f"was killed by signal {-code}" if code < 0 else
               f"exited with status {code}" if code else "sent no readable result")
        return {indices[0]: SolverError(f"worker process for seeds {indices} {how}")}
    return {i: r if isinstance(r, Exception)
            else (seeds[i].with_fields(u=r[0], a_r=r[1], a_theta=r[2]), r[3], r[4])
            for i, r in got.items()}


def solve_all(seeds, cfg: Optional[SolveConfig] = None,
              return_errors: bool = False) -> list:
    """newton_solve on every seed, [(field, xi, report)] in seed order.

    The solves are independent, so when _worker_count allows, the seeds are
    packed into one bin per process by _bins: the calling process solves bin
    0 and one os.fork child per other bin solves the rest, sending its arrays
    and reports (or exception) back through a pipe.  Every child is waited
    for before this returns or raises.  The results are bitwise those of the
    serial loop, and so is the error raised: the first in seed order, of the
    same type and message (a child's traceback stays in the child).  With
    return_errors the list instead runs up to and including the first
    failure, which is its exception instance.
    """
    n = _worker_count(seeds)
    if n == 1:
        out = _solve_in_order(seeds, range(len(seeds)), cfg)
    else:
        bins = _bins(seeds, n)
        local, children = list(bins[0]), []  # children: (pid, pipe, indices)
        try:
            for indices in bins[1:]:
                child = _spawn(seeds, indices, cfg)
                if child is None:  # no pipe or process to spare: solve it here
                    local += indices
                else:
                    children.append((*child, indices))
            out = _solve_in_order(seeds, sorted(local), cfg)
            while children:
                pid, pipe, indices = children[0]
                with pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
                children.pop(0)
                out.update(_received(seeds, indices, payload, status))
        finally:
            for pid, pipe, _ in children:  # only left when this call failed
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
    results = []
    for i in range(len(seeds)):
        results.append(out[i])
        if isinstance(out[i], Exception):
            if return_errors:
                break
            raise out[i]
    return results


# -- local gauge fixing -------------------------------------------------------

def flat_gauge_fix(f: GaugedField, rows: tuple):
    """Complex gauge parameter xi, zero on the patch boundary, flattening the
    curvature on the patch to the stencil's O(h^2).

    The patch is rows [i0, i1], a finite cylinder; the solve runs to the
    default SolveConfig's cg_tol.  Returns (xi, fixed_field).
    """
    p = f.piece
    i0, i1 = rows
    if not (0 <= i0 < i1 < p.n_r):
        raise SolverError(f"bad patch rows {rows}")
    curv = curvature(f)
    mask = np.zeros((p.n_r, p.n_theta, 1), dtype=bool)
    mask[i0 + 1 : i1] = True
    five_point = _stencil(f, 1, gram=False)

    def lap(xi):
        return np.where(mask, five_point(np.where(mask, xi, 0.0)), 0.0)

    rhs = np.where(mask, -curv, 0.0)
    xi, _ = pcg(lap, rhs, None, SolveConfig.cg_tol, SolveConfig.max_cg)
    return xi, apply_complex_gauge(f, xi)


def coulomb_gauge_local(f: GaugedField, rows: tuple, kappa: float = 1.0):
    """Local Coulomb gauge diagnostic on rows [i0, i1].

    Requires sup|*F| <= kappa on the patch.  Minimizes |a - grad(phi)|^2 over
    the patch with the forward-difference gradient, so the paired divergence
    of the output vanishes to the default SolveConfig's cg_tol.  Returns
    (fixed a_r, fixed a_theta, diagnostics dict).
    """
    p = f.piece
    i0, i1 = rows
    curv = curvature(f)[i0 : i1 + 1]
    if float(np.max(np.abs(curv))) > kappa:
        raise SolverError(f"curvature above threshold {kappa} on patch")
    m = i1 - i0 + 1
    ar = f.a_r[i0 : i1 + 1].copy()
    at = f.a_theta[i0 : i1 + 1].copy()

    def grad(phi):
        gr = np.zeros_like(phi)
        gr[:-1] = (phi[1:] - phi[:-1]) / p.h_r  # zero-flux ghost at the far ring
        gt = (np.roll(phi, -1, axis=1) - phi) / p.h_theta
        return gr, gt

    def div(br, bt):
        out = np.zeros_like(br)
        out[1:] -= br[:-1] / p.h_r
        out[:-1] += br[:-1] / p.h_r
        out += (bt - np.roll(bt, 1, axis=1)) / p.h_theta
        return out

    rhs = -div(ar, at)
    rhs -= rhs.mean(axis=(0, 1), keepdims=True)  # Neumann compatibility

    def op(phi):  # -div(grad(.)) is the positive Neumann Laplacian here
        phi = phi - phi.mean(axis=(0, 1), keepdims=True)
        gr, gt = grad(phi)
        out = -div(gr, gt)
        return out - out.mean(axis=(0, 1), keepdims=True)

    phi, _ = pcg(op, rhs, None, SolveConfig.cg_tol, SolveConfig.max_cg)
    gr, gt = grad(phi - phi.mean(axis=(0, 1), keepdims=True))
    ar -= gr
    at -= gt
    residual_div = float(np.max(np.abs(div(ar, at))))
    norm_ratio = float(
        np.sqrt(np.sum(ar**2 + at**2)) / max(np.sqrt(np.sum(curv**2)), 1e-300)
    )
    return ar, at, {"div_sup": residual_div, "norm_ratio": norm_ratio}


# -- patched approximate inverse ---------------------------------------------

# _operator step of each domain flavor: "gauge_step" is the wide stencil
_STENCIL_STEP = {"five_point": 1, "gauge_step": 2}


def _class_bands(data: np.ndarray, step: int, descending: bool) -> list:
    """LAPACK upper band of each parity class of a domain's _operator data,
    viewed (rings, n_theta, k, 4 + k), with its rings descending if asked.

    A stencil reaching rings and angles +-step mixes no ring classes mod
    step, nor angle classes mod step when step divides n_theta (Gram(u)
    stays at one site).  In (ring, theta, component) order a class of T
    angles has half-bandwidth u = T k, and entry A[i, j], i before j, goes
    to band row u + i - j of column j: the Gram block on rows u .. u - k + 1,
    the in-class theta neighbour (q = step // angle stride angles on) on row
    u - q k, the periodic wrap of the last q angles on row u - (T - q) k and
    the ring neighbour on row 0.  Returns [(cls, band)]: the class's flat
    domain-local unknowns, (rings, T, k) in band order, and its F-ordered band.
    """
    nth, k = data.shape[1:3]
    idx = np.arange(data[..., 0].size).reshape(data.shape[:3])
    if descending:
        data, idx = data[::-1], idx[::-1]
    st = step if nth % step == 0 else 1
    T, q, u = nth // st, step // st, nth // st * k
    bands = []
    for pr in range(min(step, len(data))):
        for pt in range(st):
            view = (slice(pr, None, step), slice(pt, None, st))
            D = data[view]
            Z = np.zeros(D.shape[:3] + (u + 1,))  # the band, transposed
            for d in range(k):
                c = np.arange(d, k)
                Z[:, :, d:, u - d] = D[:, :, c - d, 2 + c]
            Z[:, q:, :, u - q * k] = D[:, : T - q, :, 2 + k]
            Z[:, T - q :, :, u - (T - q) * k] = D[:, :q, :, 1]
            Z[1:, ..., 0] = D[:-1, ..., 0 if descending else 3 + k]
            bands.append((idx[view], Z.reshape(-1, u + 1).T))
    return bands


class _Domain:
    """Exact inverse of the _operator data (rings, n_theta, k, 4 + k) of
    piece rows [a, b], with the domain's cover rows [ca, cb] and cutoff phi.

    Each class band is factored once in place (dpbtrf), its rings descending
    when the cover lies nearer the domain's low end so that the cover's
    rings come last.  classes holds (indices, start, factor) per class: its
    flat domain-local unknowns in band order, the position of its first
    cover ring and the upper Cholesky band.
    """

    def __init__(self, data: np.ndarray, rows: tuple, cover: tuple,
                 phi: np.ndarray, step: int):
        self.rows, self.cover, self.phi = rows, cover, phi
        inner, nth, k = data.shape[:3]
        c0 = max(cover[0] - rows[0] - 1, 0)  # cover as interior ring indices
        c1 = min(cover[1] - rows[0] - 1, inner - 1)
        descending = c1 + 1 < inner - c0
        self.classes = []
        for cls, band in _class_bands(data, step, descending):
            factor, info = dpbtrf(band, overwrite_ab=1)
            if info > 0:
                raise SolverError("preconditioner domain matrix is not positive "
                                  f"definite: leading minor {info} of a parity class")
            ring = cls[:, 0, 0] // (nth * k)
            lead = np.count_nonzero(ring > c1 if descending else ring < c0)
            self.classes.append((cls.reshape(-1), lead * cls[0].size, factor))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Whole-domain solve through the full factors; rhs (rings, n_theta, k)."""
        flat, out = rhs.reshape(-1), np.empty(rhs.size)
        for cls, _, factor in self.classes:
            out[cls] = dpbtrs(factor, flat[cls])[0]
        return out.reshape(rhs.shape)


class PatchedPreconditioner:
    """Approximate inverse glued from per-component reference solves.

    The literal pipeline lifts a section to the core/sleeve cover, applies the
    exact broken-surface inverse per component (_Domain), multiplies by the
    cutoff weights and pushes forward (apply).  apply_symmetric splits the
    cutoff as sqrt(phi) on both sides, which keeps the map positive for use
    inside CG.  A domain's right-hand side vanishes off its cover, which is
    all that is read back, so each class solves exactly with the trailing
    block of its factor from its first cover ring on: one gather of eta, one
    dpbtrs per class block and one scatter-add make an apply.
    """

    def __init__(self, f: GaugedField, flavor: str = "five_point"):
        if flavor not in _STENCIL_STEP:
            raise SolverError(f"unknown operator flavor {flavor!r}")
        step, p, k = _STENCIL_STEP[flavor], f.piece, f.target.k
        covers = [c for c in core_sleeve(f.surface).covers
                  if c.piece_index == f.piece_index]
        gram = gram_field(f)  # one evaluation for every domain
        size = p.n_theta * k  # unknowns per ring
        self.domains, self._blocks, parts, n = [], [], [], 0
        for ci, cover in enumerate(covers):
            left = 0 if ci == 0 else p.necks[ci - 1].i_plus
            right = p.n_r - 1 if ci == len(covers) - 1 else p.necks[ci].i_minus
            data = _operator(f, (left, right), step, gram).data
            dom = _Domain(data.reshape(right - left - 1, p.n_theta, k, 4 + k),
                          (left, right), (cover.a, cover.b), cover.phi.copy(), step)
            self.domains.append(dom)
            pad = (cover.a, p.n_r - 1 - cover.b)  # cover indicator, cutoff by ring
            on = np.pad(np.ones_like(cover.phi), pad)
            phi = np.pad(cover.phi, pad)
            for cls, start, factor in dom.classes:
                src = cls[start:] + (left + 1) * size
                self._blocks.append((n, n + src.size, factor[:, start:]))
                n += src.size
                parts.append((src, on[src // size], phi[src // size]))
        self._src, self._inside, self._phi = (np.concatenate(x) for x in zip(*parts))
        self._sqrt_phi = np.sqrt(self._phi)

    def _apply(self, eta: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
        v = eta.reshape(-1)[self._src] * pre
        for start, stop, factor in self._blocks:
            v[start:stop] = dpbtrs(factor, v[start:stop], overwrite_b=1)[0]
        return np.bincount(self._src, weights=post * v,
                           minlength=eta.size).reshape(eta.shape)

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
    """Measured |DF(Q eta) - eta| / |eta| on random probes."""
    p = f.piece
    lin = _stencil(f, 1)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_probes):
        eta = rng.normal(size=(p.n_r, p.n_theta, f.target.k))
        eta[0] = 0.0
        eta[-1] = 0.0
        image = lin(pre.apply(eta))
        out.append(float(np.linalg.norm(image - eta) / np.linalg.norm(eta)))
    return out
