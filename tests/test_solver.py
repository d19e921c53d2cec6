import cmath
import math
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vortexlab import solver, target
from vortexlab.fields import (
    LIMIT_INSET,
    FieldError,
    apply_complex_gauge,
    apply_unitary_gauge,
    constant_field,
    curvature,
    dbar_residual,
    energy,
    gram_field,
    limit_orbit,
    ring_energy,
    vortex_residual,
)
from vortexlab.modgraph import ModularGraph
from vortexlab.quasimap import QuasimapData, build_seed, correspondence, correspondences
from vortexlab.solver import (
    PatchedPreconditioner,
    SolveConfig,
    SolverError,
    cg_solve,
    coulomb_gauge_local,
    flat_gauge_fix,
    gauge_step_jacobian_apply,
    gauge_step_operator,
    gauge_update,
    linearized_apply,
    newton_solve,
    operator_defect,
    patched_preconditioner,
    pcg,
    solve_all,
)
from vortexlab.surface import ComponentMesh, End, core_sleeve, glue, single_cylinder
from vortexlab.target import TargetSpace, fingerprint_distance

T1 = TargetSpace(1, 1, [[1]], [1.0])
GRAPH1 = ModularGraph({0: 0}, (), ((1, 0), (2, 0)))


def cyl(n_r=101, n_theta=16, h_r=0.25, r_min=None):
    r_min = -(n_r - 1) * h_r / 2 if r_min is None else r_min
    return single_cylinder(n_r, n_theta, h_r, r_min=r_min, graph=GRAPH1, vertex=0)


def degree_one_seed(n_r=201, n_theta=32, h_r=0.2, zero=0.1 + 0.1j):
    surf = single_cylinder(n_r, n_theta, h_r, r_min=-(n_r - 1) * h_r / 2,
                           graph=GRAPH1, vertex=0)
    q = QuasimapData(GRAPH1, T1, {0: ((zero,),)})
    return build_seed(q, surf, 0)


def glued_pair(L=40.0, delta_sleeve=8.0, n_theta=32, h_r=0.1, zero=-5.0 + 0.3j):
    g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
    mk = lambda rmin, l, r: ComponentMesh(101, n_theta, h_r, rmin, l, r)
    comps = {
        "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
        "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
    }
    surf = glue(comps, g, {0: math.exp(-L)}, sleeve_width=delta_sleeve)
    q = QuasimapData(g, T1, {"u": ((zero,),)})
    return build_seed(q, surf, 0)


@pytest.fixture(scope="module")
def vortex1():
    seed = degree_one_seed()
    field, xi, report = newton_solve(seed, SolveConfig(newton_tol=1e-10))
    return seed, field, xi, report


class TestMomentFunctional:
    def test_zero_parameter_is_residual(self):
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        assert np.allclose(vortex_residual(apply_complex_gauge(f, np.zeros(1))),
                           vortex_residual(f))

    def test_vanishes_on_vortex(self, vortex1):
        _, field, _, _ = vortex1
        res = vortex_residual(apply_complex_gauge(field, np.zeros(1)))
        assert np.max(np.abs(res[1:-1])) < 1e-9

    def test_constant_field_closed_form(self):
        surf = cyl()
        v = 1.2
        f = constant_field(surf, 0, T1, [v])
        xi = 0.3
        val = vortex_residual(apply_complex_gauge(f, np.array([xi])))
        # residual of the rescaled constant: -(Phi(e^{-xi} v)) with zero curvature
        expected = -(0.5 * np.exp(-2 * xi) * v**2 - 1.0)
        assert np.allclose(val[1:-1], expected, atol=1e-12)


class TestLinearizedApply:
    def test_constant_on_u_zero(self):
        # pure Laplacian kills constants in the angular direction; rows near
        # the Dirichlet boundary feel the clamp
        surf = cyl()
        f = constant_field(surf, 0, T1, [0.0])
        xi = np.ones((f.piece.n_r, f.piece.n_theta, 1))
        out = linearized_apply(f, xi)
        assert np.max(np.abs(out[3:-3])) < 1e-12

    def test_angular_mode_symbol(self):
        # eigenvalue on e^{im theta} approaches m^2 at O(h^2)
        for m, n_theta in [(1, 32), (2, 32)]:
            surf = cyl(n_r=64, n_theta=n_theta, h_r=0.25)
            f = constant_field(surf, 0, T1, [0.0])
            p = f.piece
            theta = p.h_theta * np.arange(p.n_theta)
            xi = np.zeros((p.n_r, p.n_theta, 1))
            xi[:, :, 0] = np.cos(m * theta)[None, :]
            out = linearized_apply(f, xi)
            mid = p.n_r // 2
            discrete = 4 * np.sin(m * p.h_theta / 2) ** 2 / p.h_theta**2
            assert np.allclose(out[mid, :, 0], discrete * xi[mid, :, 0], atol=1e-10)
            assert abs(discrete - m**2) < 0.05 * m**2

    def test_solver_jacobian_fd_slope(self):
        # the Newton derivative is exact, so the finite-difference error is
        # purely O(eps); the log-log slope sits in [0.8, 1.2] even for rough
        # random directions
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(0)
        for _ in range(3):
            xi = rng.normal(size=(p.n_r, p.n_theta, 1))
            xi[0] = xi[-1] = 0.0
            lin = gauge_step_jacobian_apply(f, xi)
            eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
            errs = []
            for eps in eps_list:
                fd = (vortex_residual(gauge_update(f, eps * xi))
                      - vortex_residual(f)) / eps
                errs.append(np.linalg.norm((fd - lin)[1:-1]) / np.linalg.norm(xi))
            slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
            assert 0.8 <= slope <= 1.2

    def test_five_point_matches_functional_on_smooth_directions(self):
        # for smooth directions the five-point operator agrees with the
        # functional's derivative to O(eps) + O(h^2); the eps -> 0 plateau is
        # the stencil floor and shrinks under refinement
        floors = []
        for n_r, n_theta, h_r in [(101, 16, 0.4), (201, 32, 0.2)]:
            f = degree_one_seed(n_r=n_r, n_theta=n_theta, h_r=h_r)
            p = f.piece
            theta = p.h_theta * np.arange(p.n_theta)
            xi = (np.sin(theta)[None, :] * np.sin(
                np.pi * (p.r - p.r[0]) / (p.r[-1] - p.r[0]))[:, None])[:, :, None]
            lin = linearized_apply(f, xi)
            fd = (vortex_residual(apply_complex_gauge(f, 1e-6 * xi))
                  - vortex_residual(apply_complex_gauge(f, 0 * xi))) / 1e-6
            floors.append(np.linalg.norm((fd - lin)[1:-1]) / np.linalg.norm(xi))
        assert floors[0] / floors[1] > 3.0


class TestGaugeStepJacobian:
    def test_symmetry_and_positivity(self):
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=(p.n_r, p.n_theta, 1))
            y = rng.normal(size=(p.n_r, p.n_theta, 1))
            x[0] = x[-1] = y[0] = y[-1] = 0.0
            Ax = gauge_step_jacobian_apply(f, x)
            Ay = gauge_step_jacobian_apply(f, y)
            assert np.sum(x * Ay) == pytest.approx(np.sum(y * Ax), rel=1e-12)
            assert np.sum(x * Ax) > 0

    def test_exact_jacobian_of_gauge_update(self):
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(2)
        xi = rng.normal(size=(p.n_r, p.n_theta, 1))
        xi[0] = xi[-1] = 0.0
        eps = 1e-6
        fd = (vortex_residual(gauge_update(f, eps * xi))
              - vortex_residual(f)) / eps
        lin = gauge_step_jacobian_apply(f, xi)
        assert np.max(np.abs((fd - lin)[1:-1])) < 2e-5 * np.max(np.abs(xi))


class TestGaugeStepOperator:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n_theta", [12, 13])
    @pytest.mark.parametrize("flavor", ["gauge_step", "five_point"])
    def test_matches_sparse_assembly(self, flavor, n_theta, k):
        surf = cyl(n_r=21, n_theta=n_theta, h_r=0.3)
        rng = np.random.default_rng(20 + k)
        if k == 1:
            f = degree_one_seed(n_r=21, n_theta=n_theta, h_r=0.3)
        else:
            t2 = TargetSpace(3, 2, [[1, 0, 1], [0, 1, 1]], [1.0, 1.0])
            f = constant_field(surf, 0, t2, [1.3, 0.9, 0.4])
            f = f.with_fields(u=f.u * (1.0 + 0.5 * rng.normal(size=f.u.shape)))
        p = f.piece
        if flavor == "gauge_step":
            op = gauge_step_operator(f)
        else:
            op = lambda xi: linearized_apply(f, xi)
        A = _assemble_domain_matrix(f, (0, p.n_r - 1), flavor)
        for _ in range(3):
            xi = rng.normal(size=(p.n_r, p.n_theta, k))
            out = op(xi)
            assert np.all(out[0] == 0) and np.all(out[-1] == 0)
            ref = A @ xi[1:-1].ravel()
            assert np.allclose(out[1:-1].ravel(), ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_applies_are_independent(self):
        f = degree_one_seed(n_r=41, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=(2, p.n_r, p.n_theta, 1))
        op = gauge_step_operator(f)
        Ax = op(x)
        Ax_copy = Ax.copy()
        op(y)
        assert np.array_equal(Ax, Ax_copy)
        assert np.array_equal(Ax, gauge_step_jacobian_apply(f, x))

    def test_newton_evaluates_gram_once_per_step(self, monkeypatch):
        calls = []
        original = solver.gram_field

        def counting(f):
            calls.append(1)
            return original(f)

        monkeypatch.setattr(solver, "gram_field", counting)
        seed = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        _, _, rep = newton_solve(seed, SolveConfig())
        assert rep.newton_iterations > 0
        assert len(calls) == rep.newton_iterations

    def test_patched_setup_evaluates_gram_once(self, monkeypatch):
        # one evaluation per Newton step, plus one for the preconditioner
        # setup however many domains it factors
        calls = []
        original = solver.gram_field
        monkeypatch.setattr(solver, "gram_field",
                            lambda f: calls.append(1) or original(f))
        seed = glued_pair(L=40.0, n_theta=16, h_r=0.2)
        _, _, rep = newton_solve(seed, SolveConfig(preconditioner="patched"))
        assert rep.newton_iterations > 0
        assert len(calls) == rep.newton_iterations + 1
        calls.clear()
        assert len(PatchedPreconditioner(seed, flavor="gauge_step").domains) == 2
        assert len(calls) == 1


class TestCG:
    def test_recovers_known_solution(self):
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(3)
        xi_star = rng.normal(size=(p.n_r, p.n_theta, 1))
        xi_star[0] = xi_star[-1] = 0.0
        rhs = linearized_apply(f, xi_star)
        xi, it = cg_solve(f, rhs, SolveConfig(cg_tol=1e-12))
        assert np.max(np.abs(xi - xi_star)) < 1e-8
        assert it > 0

    def test_zero_rhs(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        xi, it = cg_solve(f, np.zeros((f.piece.n_r, f.piece.n_theta, 1)),
                          SolveConfig())
        assert it == 0 and np.all(xi == 0)

    def test_manufactured_poisson_second_order(self):
        # operator (Lap + 2) with exact solution sin(theta) sin(k r) e^{-r}
        errs = []
        for n_r, n_theta in [(51, 16), (101, 32)]:
            length = 10.0
            surf = single_cylinder(n_r, n_theta, length / (n_r - 1), r_min=0.0,
                                   graph=GRAPH1, vertex=0)
            f = constant_field(surf, 0, TargetSpace(1, 1, [[1]], [1.0]),
                               [np.sqrt(2.0)])  # Gram = 2 everywhere
            p = f.piece
            k = np.pi / length
            theta = p.h_theta * np.arange(p.n_theta)
            g = np.sin(k * p.r) * np.exp(-p.r)
            exact = np.sin(theta)[None, :] * g[:, None]
            gpp = np.exp(-p.r) * ((1 - k**2) * np.sin(k * p.r)
                                  - 2 * k * np.cos(k * p.r))
            rhs = np.sin(theta)[None, :] * (-gpp + 3 * g)[:, None]
            xi, _ = cg_solve(f, rhs[:, :, None], SolveConfig(cg_tol=1e-12))
            errs.append(np.max(np.abs(xi[:, :, 0] - exact)[1:-1]))
        assert np.log2(errs[0] / errs[1]) > 1.6

    def test_positivity_guard(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        p = f.piece
        rhs = np.ones((p.n_r, p.n_theta, 1))
        rhs[0] = rhs[-1] = 0.0
        bad_operator = lambda x: -linearized_apply(f, x)
        cfg = SolveConfig()
        with pytest.raises(SolverError, match="positivity"):
            pcg(bad_operator, rhs, None, cfg.cg_tol, cfg.max_cg)


class TestPCG:
    def test_preconditioned_matches_direct_solve(self):
        rng = np.random.default_rng(30)
        B = rng.normal(size=(40, 40))
        A = B @ B.T + 40.0 * np.eye(40)
        rhs = rng.normal(size=40)
        jacobi = 1.0 / np.diag(A)
        exact = np.linalg.solve(A, rhs)
        x_plain, it_plain = pcg(lambda v: A @ v, rhs, None, 1e-12, 1000)
        x_pre, it_pre = pcg(lambda v: A @ v, rhs, lambda v: jacobi * v, 1e-12, 1000)
        for x in (x_plain, x_pre):
            assert np.allclose(x, exact, rtol=0, atol=1e-10)
        assert 0 < it_pre and 0 < it_plain

    def test_iteration_cap(self):
        A = np.diag(np.linspace(1.0, 1e4, 200))
        with pytest.raises(SolverError, match="exceeded 3 iterations"):
            pcg(lambda v: A @ v, np.ones(200), None, 1e-12, 3)


class TestNewtonSolve:
    def test_already_vortex_zero_iterations(self, vortex1):
        _, field, _, _ = vortex1
        out, xi, rep = newton_solve(field, SolveConfig(newton_tol=1e-8))
        assert rep.newton_iterations == 0
        assert np.all(xi == 0)

    def test_first_step_matches_cg_oracle(self):
        # constant seed with small moment map: one step lands at second order
        surf = cyl()
        v = math.sqrt(2.0) * 1.01  # Phi(v) = 0.0201
        f = constant_field(surf, 0, T1, [v])
        cfg = SolveConfig(newton_tol=1e-13, max_newton=8)
        res0 = vortex_residual(f)
        rhs = -res0
        rhs[0] = rhs[-1] = 0.0
        oracle, _ = cg_solve(f, rhs, cfg, operator=gauge_step_operator(f))
        out, xi, rep = newton_solve(f, cfg)
        first = oracle[1:-1]
        phi_norm = abs(0.5 * v**2 - 1.0)
        # the converged xi equals the first step up to O(|Phi|^2)
        assert np.max(np.abs(xi[1:-1] - first)) < 4.0 * phi_norm**2

    def test_overflowing_trial_step_backtracks(self):
        # with |u| small against tau the Gram term is tiny and the first
        # Newton step reaches xi ~ -1000: the full step overflows exp in
        # gauge_update, so the line search must halve it instead of raising
        f = constant_field(cyl(n_r=61, n_theta=8, h_r=0.5), 0,
                           TargetSpace(1, 1, [[1]], [10.0]), [0.1])
        res = vortex_residual(f)
        rhs = -res
        rhs[0] = rhs[-1] = 0.0
        step, _ = cg_solve(f, rhs, SolveConfig(), operator=gauge_step_operator(f))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FieldError, match="finite"):
                gauge_update(f, step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field, _, rep = newton_solve(f, SolveConfig())
        assert rep.converged
        assert rep.step_sizes[0] < 1.0
        assert np.max(np.abs(vortex_residual(field)[1:-1])) <= 1e-8

    def test_degree_one_converges_with_quadratic_tail(self, vortex1):
        seed, field, xi, rep = vortex1
        assert rep.converged
        assert rep.residual_sup[-1] <= 1e-10
        assert rep.newton_iterations <= 12
        # log-log convergence order on the tail of the trace
        sups = [s for s in rep.residual_sup if s > 0]
        ratios = [np.log(sups[i + 1]) / np.log(sups[i])
                  for i in range(len(sups) - 1) if sups[i] < 0.1]
        assert max(ratios) > 1.7  # quadratic regime observed

    def test_monotone_l2_trace(self, vortex1):
        _, _, _, rep = vortex1
        l2 = rep.residual_l2
        assert all(l2[i + 1] <= l2[i] for i in range(len(l2) - 1))

    def test_holomorphy_preserved_through_solve(self, vortex1):
        seed, field, _, _ = vortex1
        before = np.max(np.abs(dbar_residual(seed)))
        after = np.max(np.abs(dbar_residual(field)))
        assert after < 10 * before  # stays at the discretization scale

    def test_unstable_seed_refused(self):
        f = constant_field(cyl(), 0, T1, [0.0])
        with pytest.raises(SolverError, match="unstable seed"):
            newton_solve(f, SolveConfig())

    @pytest.mark.parametrize("end", ["left", "right"])
    def test_seed_with_a_vanishing_end_ring_refused(self, end):
        f = constant_field(cyl(), 0, T1, [math.sqrt(2.0)])
        p = f.piece
        n_in = int(round(LIMIT_INSET / p.h_r))
        u = f.u.copy()
        u[n_in if end == "left" else p.n_r - 1 - n_in] = 0.0
        with pytest.raises(SolverError,
                           match=f"^unstable seed: {end} end has no semistable limit$"):
            newton_solve(f.with_fields(u=u), SolveConfig())

    def test_converged_seed_is_not_retracted(self, monkeypatch):
        # the end check asks only for semistability: on a field already at
        # the zero level nothing calls the Kempf-Ness retraction
        calls = []
        retract = target.kempf_ness_shifts

        def spy(t, V):
            calls.append(len(V))
            return retract(t, V)

        monkeypatch.setattr(target, "kempf_ness_shifts", spy)
        f = constant_field(cyl(), 0, T1, [math.sqrt(2.0)])
        out, _, rep = newton_solve(f, SolveConfig())
        assert rep.converged and rep.newton_iterations == 0
        assert calls == []
        limit_orbit(out, "left")  # the spy sees the evaluation's retraction
        assert calls == [1]

    def test_gauge_covariant_solution(self, vortex1):
        seed, field, _, _ = vortex1
        rng = np.random.default_rng(4)
        for phi in rng.uniform(0, 2 * np.pi, size=3):
            gauged_seed = apply_unitary_gauge(seed, np.array([phi]))
            out, _, rep2 = newton_solve(gauged_seed, SolveConfig(newton_tol=1e-10))
            assert rep2.final_energy == pytest.approx(energy(field).total, rel=1e-8)
            d = fingerprint_distance(limit_orbit(out, "right"),
                                     limit_orbit(field, "right"))
            assert d < 1e-8


class TestFlatGaugeFix:
    def test_flat_input_gives_zero(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        xi, fixed = flat_gauge_fix(f, (10, 50))
        assert np.max(np.abs(xi)) < 1e-12

    def test_constant_curvature_annulus_against_dense_oracle(self):
        surf = cyl(n_r=33, n_theta=8, h_r=0.25)
        f = constant_field(surf, 0, T1, [1.0])
        p = f.piece
        f = f.with_fields(a_theta=0.3 * p.r[:, None, None] * np.ones((1, p.n_theta, 1)))
        rows = (4, 28)
        xi, fixed = flat_gauge_fix(f, rows)
        # interior curvature flattened to the stencil scale
        after = curvature(fixed)[rows[0] + 2 : rows[1] - 1]
        assert np.max(np.abs(after)) < 1e-6
        # dense direct solve oracle on the same masked system
        import numpy.linalg as la

        mask = np.zeros((p.n_r, p.n_theta), dtype=bool)
        mask[rows[0] + 1 : rows[1], :] = True
        idx = np.argwhere(mask)
        N = len(idx)
        pos = {tuple(ij): a for a, ij in enumerate(idx)}
        A = np.zeros((N, N))
        h2r, h2t = p.h_r**2, p.h_theta**2
        for a, (i, j) in enumerate(idx):
            A[a, a] = 2 / h2r + 2 / h2t
            for di, dj, h2 in ((1, 0, h2r), (-1, 0, h2r), (0, 1, h2t), (0, -1, h2t)):
                nb = (i + di, (j + dj) % p.n_theta)
                if nb in pos:
                    A[a, pos[nb]] -= 1 / h2
        rhs = -curvature(f)[mask.nonzero()][:, 0]
        dense = la.solve(A, rhs)
        assert np.max(np.abs(dense - xi[mask.nonzero()][:, 0])) < 1e-8

    def test_norm_bound_statistics(self):
        # |xi|_2 / |F|_2 bounded across random smooth connections on a patch
        surf = cyl(n_r=41, n_theta=16, h_r=0.25)
        p = surf.pieces[0]
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(20):
            f = constant_field(surf, 0, T1, [1.0])
            modes = rng.normal(size=3)
            a_theta = sum(
                m * np.sin((k + 1) * np.pi * (p.r - p.r[0]) / (p.r[-1] - p.r[0]))
                for k, m in enumerate(modes)
            )
            f = f.with_fields(a_theta=0.2 * a_theta[:, None, None]
                              * np.ones((1, p.n_theta, 1)))
            xi, _ = flat_gauge_fix(f, (5, 35))
            Fn = np.linalg.norm(curvature(f)[6:35])
            ratios.append(np.linalg.norm(xi) / max(Fn, 1e-30))
        assert max(ratios) < 20.0  # recorded bound constant for this patch


class TestCoulombGauge:
    def test_already_coulomb_unchanged(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        p = f.piece
        # theta-independent a_theta with zero a_r is already divergence free
        f = f.with_fields(a_theta=0.2 * np.sin(p.r)[:, None, None]
                          * np.ones((1, p.n_theta, 1)))
        ar, at, diag = coulomb_gauge_local(f, (5, 60))
        assert diag["div_sup"] < 1e-9
        assert np.allclose(at, f.a_theta[5:61], atol=1e-9)

    def test_pure_gauge_removed(self):
        surf = cyl(n_r=41, n_theta=16, h_r=0.25)
        f = constant_field(surf, 0, T1, [1.0])
        p = f.piece
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(p.n_r, p.n_theta, 1)) * 0.0
        theta = p.h_theta * np.arange(p.n_theta)
        phi[:, :, 0] = np.sin(theta)[None, :] * np.cos(p.r)[:, None]
        # forward-difference pure gauge matches the diagnostic's pairing
        gr = np.zeros_like(phi)
        gr[:-1] = (phi[1:] - phi[:-1]) / p.h_r
        gt = (np.roll(phi, -1, axis=1) - phi) / p.h_theta
        f = f.with_fields(a_r=gr, a_theta=gt)
        rows = (0, p.n_r - 1)
        ar, at, diag = coulomb_gauge_local(f, rows)
        assert diag["div_sup"] < 1e-9
        assert np.max(np.abs(ar)) < 1e-8
        assert np.max(np.abs(at - at.mean(axis=(0, 1)))) < 1e-8

    def test_random_small_divergence_killed(self):
        surf = cyl(n_r=41, n_theta=16, h_r=0.25)
        f = constant_field(surf, 0, T1, [1.0])
        p = f.piece
        rng = np.random.default_rng(7)
        smooth = lambda: (
            np.sin(p.h_theta * np.arange(p.n_theta))[None, :]
            * rng.normal() * np.cos(0.5 * p.r)[:, None]
            + rng.normal() * np.sin(0.7 * p.r)[:, None]
        )[:, :, None]
        f = f.with_fields(a_r=0.1 * smooth(), a_theta=0.1 * smooth())
        ar, at, diag = coulomb_gauge_local(f, (0, p.n_r - 1))
        assert diag["div_sup"] <= 1e-8

    def test_curvature_threshold(self):
        surf = cyl(n_r=41, n_theta=16, h_r=0.25)
        f = constant_field(surf, 0, T1, [1.0])
        p = f.piece
        f = f.with_fields(a_theta=5.0 * np.sin(p.r)[:, None, None]
                          * np.ones((1, p.n_theta, 1)))
        with pytest.raises(SolverError, match="threshold"):
            coulomb_gauge_local(f, (5, 35), kappa=0.5)


@pytest.fixture(scope="module")
def glued_vortex():
    seed = glued_pair()
    field, _, report = newton_solve(seed, SolveConfig())
    return seed, field, report


class TestPatchedPreconditioner:
    def test_single_component_is_near_exact_inverse(self, vortex1):
        _, field, _, _ = vortex1
        pre = patched_preconditioner(field)
        defects = operator_defect(field, pre, n_probes=4, seed=8)
        assert max(defects) < 1e-6

    def test_glued_defect_below_half(self, glued_vortex):
        _, field, _ = glued_vortex
        pre = patched_preconditioner(field)
        defects = operator_defect(field, pre, n_probes=10, seed=9)
        assert max(defects) < 0.5

    def test_defect_decreases_with_sleeve_width(self):
        results = []
        for delta in (4.0, 8.0, 16.0):
            seed = glued_pair(L=5 * delta, delta_sleeve=delta, n_theta=16, h_r=0.2)
            field, _, _ = newton_solve(seed, SolveConfig())
            pre = patched_preconditioner(field)
            p = field.piece
            # smooth probe resolves the cutoff-commutator mechanism
            probe = np.exp(-0.5 * ((p.r - p.r.mean()) / 10) ** 2)[:, None, None] \
                * np.ones((1, p.n_theta, 1))
            probe[0] = probe[-1] = 0.0
            from vortexlab.solver import linearized_apply as lap

            image = lap(field, pre.apply(probe))
            results.append(float(np.linalg.norm(image - probe) / np.linalg.norm(probe)))
        assert results[0] > results[1] > results[2]

    def test_preconditioned_cg_at_least_twice_fewer_iterations(self, glued_vortex):
        _, field, _ = glued_vortex
        pre = patched_preconditioner(field)
        p = field.piece
        rng = np.random.default_rng(10)
        rhs = rng.normal(size=(p.n_r, p.n_theta, 1))
        rhs[0] = rhs[-1] = 0.0
        cfg = SolveConfig(cg_tol=1e-10)
        x0, it_plain = cg_solve(field, rhs, cfg)
        x1, it_pre = cg_solve(field, rhs, cfg, preconditioner=pre.apply_symmetric)
        assert it_plain >= 2 * it_pre
        assert np.max(np.abs(x0 - x1)) < 1e-6 * max(1.0, np.max(np.abs(x0)))

    def test_neck_too_short_for_sleeves(self):
        with pytest.raises(Exception, match="sleeve"):
            glued_pair(L=10.0, delta_sleeve=8.0)


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            SolveConfig(newton_tol=0.0)
        with pytest.raises(SolverError):
            SolveConfig(max_newton=0)
        with pytest.raises(SolverError):
            SolveConfig(preconditioner="magic")

    def test_report_dict(self, vortex1):
        _, _, _, rep = vortex1
        d = rep.as_dict()
        assert d["converged"] is True
        assert len(d["residual_sup"]) == d["newton_iterations"] + 1


class TestPatchedInsideNewton:
    def test_config_flag_engages_preconditioner(self):
        seed = glued_pair(L=40.0, n_theta=16, h_r=0.2)
        plain_field, _, rep_plain = newton_solve(seed, SolveConfig())
        pre_field, _, rep_pre = newton_solve(
            seed, SolveConfig(preconditioner="patched"))
        assert rep_pre.converged
        assert sum(rep_pre.cg_iterations) < sum(rep_plain.cg_iterations)
        assert rep_pre.final_energy == pytest.approx(rep_plain.final_energy,
                                                     rel=1e-8)


class TestEnergyPartials:
    def test_core_and_sleeves_partition_total(self):
        seed = glued_pair(L=40.0, n_theta=16, h_r=0.2)
        field, _, _ = newton_solve(seed, SolveConfig())
        rep = energy(field)
        assert rep.partials["core"] + rep.partials["sleeves"] == pytest.approx(
            rep.total, rel=1e-12)
        comp_and_neck = sum(v for k, v in rep.partials.items()
                            if k.startswith(("component:", "neck:")))
        assert comp_and_neck == pytest.approx(rep.total, rel=1e-12)

    def test_sleeves_sum_ring_energy_over_the_cover_bands(self):
        # two necks: the sleeve partial is the trapezoid-weighted ring
        # energy on the union of the core/sleeve cover's neck bands
        f = two_neck_seed()
        p = f.piece
        band = np.zeros(p.n_r, dtype=bool)
        necks = core_sleeve(f.surface).necks
        assert len(necks) == 2
        for nc in necks:
            band[nc.j_lo : nc.j_hi + 1] = True
        ring = ring_energy(f) * p.quad_weights_r
        assert energy(f).partials["sleeves"] == pytest.approx(ring[band].sum(),
                                                              rel=1e-12)


class TestSnapshots:
    def test_callback_sees_every_accepted_iterate(self):
        seed = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        seen = []
        field, _, rep = newton_solve(
            seed, SolveConfig(), snapshot_callback=lambda i, f: seen.append(i))
        assert seen == list(range(rep.newton_iterations + 1))


class TestRankTwoTorus:
    def test_newton_on_rank_two_target(self):
        # vector-valued gauge parameter: constant seed off the zero level
        # converges onto it, every ring ending at Phi = 0
        t2 = TargetSpace(3, 2, [[1, 0, 1], [0, 1, 1]], [1.0, 1.0])
        surf = cyl(n_r=81, n_theta=16, h_r=0.25)
        f = constant_field(surf, 0, t2, [1.3, 0.9, 0.4])
        field, xi, rep = newton_solve(f, SolveConfig(newton_tol=1e-11))
        assert rep.converged
        from vortexlab.fields import moment_map_field

        # the off-level boundary data relaxes onto the zero level over
        # boundary layers decaying at the slowest Gram mass (about 1 here);
        # the vortex equation itself holds to solver tolerance everywhere
        assert np.max(np.abs(vortex_residual(field)[1:-1])) < 1e-11
        p = field.piece
        mid = moment_map_field(field)[p.n_r // 2 - 2 : p.n_r // 2 + 3]
        assert np.max(np.abs(mid)) < 1e-4


class TestOperatorPositivity:
    def test_spd_on_hundred_random_directions(self):
        f = degree_one_seed(n_r=101, n_theta=16, h_r=0.4)
        p = f.piece
        rng = np.random.default_rng(100)
        for _ in range(100):
            xi = rng.normal(size=(p.n_r, p.n_theta, 1))
            xi[0] = xi[-1] = 0.0
            assert np.sum(xi * linearized_apply(f, xi)) > 0
            assert np.sum(xi * gauge_step_jacobian_apply(f, xi)) > 0


def two_neck_seed():
    """Three components in a chain: one piece with two necks."""
    g = ModularGraph(
        {"a": 0, "b": 0, "c": 0},
        (("a", "b"), ("b", "c")),
        ((1, "a"), (2, "c")),
    )
    mk = lambda rmin, l, r: ComponentMesh(41, 16, 0.25, rmin, l, r)
    comps = {
        "a": mk(-8.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
        "b": mk(0.0, End("socket", edge=0), End("socket", edge=1)),
        "c": mk(0.0, End("socket", edge=1), End("truncation", ("leg", 2))),
    }
    surf = glue(comps, g, {0: math.exp(-20.0), 1: math.exp(-25.0)},
                sleeve_width=8.0)
    q = QuasimapData(g, T1, {"b": ((4.0 + 0.4j,),)})
    return build_seed(q, surf, 0)


class TestTwoNeckChain:
    def test_three_components_two_necks_solve_and_precondition(self):
        field, _, rep = newton_solve(two_neck_seed(), SolveConfig())
        assert rep.converged
        assert abs(rep.final_energy - 4 * math.pi) / (4 * math.pi) < 0.03
        pre = patched_preconditioner(field)
        assert len(pre.domains) == 3
        defects = operator_defect(field, pre, n_probes=5, seed=11)
        assert max(defects) < 0.5
        p = field.piece
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(p.n_r, p.n_theta, 1))
        rhs[0] = rhs[-1] = 0.0
        cfg = SolveConfig(cg_tol=1e-10)
        _, it0 = cg_solve(field, rhs, cfg)
        _, it1 = cg_solve(field, rhs, cfg, preconditioner=pre.apply_symmetric)
        assert it0 >= 2 * it1


# -- banded domain solves of the patched preconditioner ----------------------

def _rank_two_field(n_r, n_theta, h_r, seed):
    surf = cyl(n_r=n_r, n_theta=n_theta, h_r=h_r)
    t2 = TargetSpace(3, 2, [[1, 0, 1], [0, 1, 1]], [1.0, 1.0])
    f = constant_field(surf, 0, t2, [1.3, 0.9, 0.4])
    rng = np.random.default_rng(seed)
    return f.with_fields(u=f.u * (1.0 + 0.5 * rng.normal(size=f.u.shape)))


def _domain_field(k, n_theta):
    if k == 1:
        return degree_one_seed(n_r=31, n_theta=n_theta, h_r=0.3)
    return _rank_two_field(31, n_theta, 0.3, seed=n_theta)


def _entrywise_domain_matrix(f, rows, flavor):
    """Reference assembly: the angular stencil entry by entry, Gram(u) site
    by site."""
    p, k = f.piece, f.target.k
    a, b = rows
    inner, nth = b - a - 1, p.n_theta
    if flavor == "five_point":
        lap_r = sp.diags([np.full(inner, 2.0 / p.h_r**2),
                          np.full(inner - 1, -1.0 / p.h_r**2),
                          np.full(inner - 1, -1.0 / p.h_r**2)], [0, 1, -1])
        step, center, side = 1, 2.0 / p.h_theta**2, -1.0 / p.h_theta**2
    else:
        d_r = sp.diags([np.full(inner - 1, 0.5 / p.h_r),
                        np.full(inner - 1, -0.5 / p.h_r)], [1, -1], format="csr")
        lap_r = d_r.T @ d_r
        step, center, side = 2, 0.5 / p.h_theta**2, -0.25 / p.h_theta**2
    lap_t = sp.lil_matrix((nth, nth))
    for j in range(nth):
        lap_t[j, j] = center
        lap_t[j, (j + step) % nth] = side
        lap_t[j, (j - step) % nth] = side
    lap = sp.kron(lap_r, sp.identity(nth)) + sp.kron(sp.identity(inner), lap_t)
    A = sp.lil_matrix(sp.kron(lap, sp.identity(k)))
    gram = gram_field(f)[a + 1 : b].reshape(inner * nth, k, k)
    for s in range(inner * nth):
        for c1 in range(k):
            for c2 in range(k):
                A[s * k + c1, s * k + c2] += gram[s, c1, c2]
    return A.tocsc()


def _twisted_neck_seed(n_theta=16, h_r=0.2):
    g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
    mk = lambda rmin, l, r: ComponentMesh(51, n_theta, h_r, rmin, l, r)
    comps = {
        "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
        "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
    }
    twist = 3 * 2 * math.pi / n_theta
    surf = glue(comps, g, {0: cmath.exp(complex(-20.0, -twist))}, sleeve_width=4.0)
    q = QuasimapData(g, T1, {"u": ((-5.0 + 0.3j,),)})
    return build_seed(q, surf, 0)


def _splu_patched(f, flavor, symmetric=True):
    """apply_symmetric (or, not symmetric, apply: the cover indicator before
    the solve and phi after it) of the patched preconditioner with whole-domain
    sparse-LU solves (reference)."""
    pre = PatchedPreconditioner(f, flavor=flavor)
    lus = [spla.splu(_assemble_domain_matrix(f, d.rows, flavor)) for d in pre.domains]

    def apply(eta):
        out = np.zeros_like(eta)
        for dom, lu in zip(pre.domains, lus):
            (a, b), (ca, cb) = dom.rows, dom.cover
            w = dom.phi[:, None, None]
            lift, cut = (np.sqrt(w), np.sqrt(w)) if symmetric else (1.0, w)
            full = np.zeros((b - a + 1,) + eta.shape[1:])
            full[ca - a : cb - a + 1] = lift * eta[ca : cb + 1]
            sol = np.zeros_like(full)
            sol[1:-1] = lu.solve(full[1:-1].ravel()).reshape(sol[1:-1].shape)
            out[ca : cb + 1] += cut * sol[ca - a : cb - a + 1]
        out[0] = out[-1] = 0.0
        return out

    return pre, apply


def _assemble_domain_matrix(f, rows, flavor="five_point"):
    """The _operator of flavor "five_point" (step 1, linearized_apply) or
    "gauge_step" (step 2, the operator solved inside Newton) on domain rows
    [a, b] as a sparse matrix with its own index arrays and without the zero
    dummy slots: the reference the class bands are checked against."""
    A = solver._operator(f, rows, solver._STENCIL_STEP[flavor], gram_field(f)).tocsc()
    A.eliminate_zeros()
    return A


def _assert_solves_match(solve, A, shape, rng):
    rhs = rng.normal(size=shape)
    ref = spla.spsolve(A, rhs.ravel()).reshape(shape)
    assert np.linalg.norm(solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestDomainAssembly:
    @pytest.mark.parametrize("flavor", ["five_point", "gauge_step"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_equals_entrywise_reference(self, flavor, k, n_theta):
        f = _domain_field(k, n_theta)
        for rows in ((0, f.piece.n_r - 1), (4, 19)):
            A = _assemble_domain_matrix(f, rows, flavor)
            ref = _entrywise_domain_matrix(f, rows, flavor)
            assert A.shape == ref.shape
            assert (A != ref).nnz == 0


class TestSharedIndexArrays:
    @pytest.mark.parametrize("k", [1, 2])
    def test_domain_matrices_leave_the_operator_intact(self, k):
        # one index pattern serves every operator of a shape: building,
        # sorting or pruning domain matrices of the same shape must not
        # change an operator frozen before them
        f = _domain_field(k, 16)
        p = f.piece
        op = gauge_step_operator(f)
        x = np.random.default_rng(40 + k).normal(size=(p.n_r, p.n_theta, k))
        before = op(x)
        PatchedPreconditioner(f, flavor="gauge_step")
        for flavor in ("gauge_step", "five_point"):
            A = _assemble_domain_matrix(f, (0, p.n_r - 1), flavor)
            A.sum_duplicates()
            A.sort_indices()
            A.eliminate_zeros()
        assert np.array_equal(op(x), before)
        assert not op.matrix.indices.flags.writeable
        assert not op.matrix.indptr.flags.writeable


def _domain_data(f, rows, flavor):
    """The domain's _operator data viewed (rings, n_theta, k, 4 + k)."""
    k = f.target.k
    A = solver._operator(f, rows, solver._STENCIL_STEP[flavor], gram_field(f))
    return A.data.reshape(rows[1] - rows[0] - 1, f.piece.n_theta, k, 4 + k)


def _band_matrix(band):
    """The symmetric matrix of an upper band in LAPACK storage."""
    u = band.shape[0] - 1
    U = sp.csr_matrix(sum(sp.diags(band[r, u - r :], u - r) for r in range(u + 1)))
    return U + sp.triu(U, 1).T


# domain covers putting the rings in ascending (whole domain) and descending
# (cover at the low end) order
def _ring_order_covers(rows):
    return (rows, (rows[0], rows[0] + 3))


class TestBandedDomainSolve:
    @pytest.mark.parametrize("flavor", ["five_point", "gauge_step"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n_theta", [16, 15])
    def test_matches_sparse_direct(self, flavor, k, n_theta):
        f = _domain_field(k, n_theta)
        rng = np.random.default_rng(30 + 2 * k + n_theta)
        # odd (29) and even (14) interior ring counts
        for rows in ((0, f.piece.n_r - 1), (4, 19)):
            A = _assemble_domain_matrix(f, rows, flavor)
            shape = (rows[1] - rows[0] - 1, n_theta, k)
            for cover in _ring_order_covers(rows):
                dom = solver._Domain(_domain_data(f, rows, flavor), rows, cover,
                                     np.ones(cover[1] - cover[0] + 1),
                                     solver._STENCIL_STEP[flavor])
                _assert_solves_match(dom.solve, A, shape, rng)

    @pytest.mark.parametrize("flavor", ["five_point", "gauge_step"])
    def test_twisted_neck_domains(self, flavor):
        f = _twisted_neck_seed()
        pre = PatchedPreconditioner(f, flavor=flavor)
        assert len(pre.domains) == 2
        rng = np.random.default_rng(31)
        for dom in pre.domains:
            a, b = dom.rows
            A = _assemble_domain_matrix(f, dom.rows, flavor)
            _assert_solves_match(dom.solve, A, (b - a - 1, f.piece.n_theta, 1), rng)

    def test_indefinite_domain_raises(self):
        f = _domain_field(1, 16)
        data = _domain_data(f, (0, 30), "gauge_step")
        with pytest.raises(SolverError, match="not positive definite"):
            solver._Domain(-data, (0, 30), (0, 30), np.ones(31), 2)

    @pytest.mark.parametrize("flavor", ["five_point", "gauge_step"])
    @pytest.mark.parametrize("descending", [False, True])
    def test_class_bands_reassemble_the_domain_matrix(self, flavor, descending):
        # the block diagonal of the class bands, permuted back to (ring,
        # theta, component) order, is the domain matrix entry for entry
        f = _domain_field(1, 16)
        data = _domain_data(f, (0, 30), flavor)
        step = solver._STENCIL_STEP[flavor]
        bands = solver._class_bands(data, step, descending)
        perm = np.concatenate([cls.ravel() for cls, _ in bands])
        B = sp.block_diag([_band_matrix(band) for _, band in bands], format="coo")
        A = sp.csc_matrix((B.data, (perm[B.row], perm[B.col])), shape=B.shape)
        assert len(bands) == step * step
        assert (A != _assemble_domain_matrix(f, (0, 30), flavor)).nnz == 0


class TestPatchedAppliesMatchSparseLU:
    # the applies solve only the trailing block of each class factor; on
    # the two-neck piece the middle domain's cover sits inside it, so the
    # trailing block also holds rings past the cover
    @pytest.mark.parametrize("flavor", ["five_point", "gauge_step"])
    @pytest.mark.parametrize("make_seed", [_twisted_neck_seed, two_neck_seed])
    def test_apply_and_apply_symmetric(self, make_seed, flavor):
        f = make_seed()
        p = f.piece
        eta = np.random.default_rng(33).normal(size=(p.n_r, p.n_theta, 1))
        eta[0] = eta[-1] = 0.0
        for symmetric in (False, True):
            pre, reference = _splu_patched(f, flavor, symmetric)
            out = pre.apply_symmetric(eta) if symmetric else pre.apply(eta)
            ref = reference(eta)
            assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
        if make_seed is two_neck_seed:
            (a, b), (ca, cb) = pre.domains[1].rows, pre.domains[1].cover
            assert a + 1 < ca and cb < b - 1


class TestPatchedMatchesSparseLU:
    def test_apply_symmetric_equals_splu_reference(self):
        f = _twisted_neck_seed()
        pre, reference = _splu_patched(f, "gauge_step")
        p = f.piece
        eta = np.random.default_rng(32).normal(size=(p.n_r, p.n_theta, 1))
        eta[0] = eta[-1] = 0.0
        ref = reference(eta)
        err = np.linalg.norm(pre.apply_symmetric(eta) - ref)
        assert err <= 1e-10 * np.linalg.norm(ref)

    def test_newton_cg_iterations_equal_splu_reference(self, monkeypatch):
        seed = glued_pair(L=40.0, n_theta=16, h_r=0.2)
        _, reference = _splu_patched(seed, "gauge_step")
        _, _, rep = newton_solve(seed, SolveConfig(preconditioner="patched"))
        monkeypatch.setattr(PatchedPreconditioner, "apply_symmetric",
                            lambda self, eta: reference(eta))
        _, _, rep_ref = newton_solve(seed, SolveConfig(preconditioner="patched"))
        assert rep.converged
        assert rep.cg_iterations == rep_ref.cg_iterations
        assert rep.final_energy == pytest.approx(rep_ref.final_energy, rel=1e-10)


def standard_seed():
    """The acceptance suite's 400x64 degree-one cylinder, r in [-20, 20]."""
    surf = single_cylinder(400, 64, 40.0 / 399, r_min=-20.0, graph=GRAPH1, vertex=0)
    return build_seed(QuasimapData(GRAPH1, T1, {0: ((0.05 + 0.1j,),)}), surf, 0)


def _exact_newton(f, newton_tol, preconditioner=None):
    """Reference Newton with exact inner solves (pcg to 1e-12) and the same
    operator, gauge step and Armijo line search; returns the final energy."""
    sup_l2 = lambda res: (float(np.max(np.abs(res[1:-1]))),
                          float(np.linalg.norm(res[1:-1])))
    res = vortex_residual(f)
    sup, l2 = sup_l2(res)
    for _ in range(30):
        if sup <= newton_tol:
            return energy(f).total
        rhs = -res
        rhs[0] = rhs[-1] = 0.0
        step, _ = pcg(gauge_step_operator(f), rhs, preconditioner, 1e-12, 20000)
        alpha = 1.0
        while True:
            trial = gauge_update(f, alpha * step)
            trial_res = vortex_residual(trial)
            trial_sup, trial_l2 = sup_l2(trial_res)
            if trial_l2 <= (1.0 - 1e-4 * alpha) * l2:
                break
            alpha *= 0.5
            assert alpha > 1e-6, "reference line search failed"
        f, res, sup, l2 = trial, trial_res, trial_sup, trial_l2
    raise AssertionError("reference Newton did not converge")


@pytest.fixture(scope="module")
def standard_solve():
    seed = standard_seed()
    return seed, newton_solve(seed, SolveConfig(newton_tol=1e-8))


class TestInexactNewton:
    PARENT_CG_400x64 = 441  # exact inner solves at cg_tol: 108 + 110 + 111 + 112

    def test_cylinder_matches_exact_inner_reference(self, standard_solve):
        seed, (_, _, rep) = standard_solve
        ref_energy = _exact_newton(seed, 1e-8)
        assert rep.residual_sup[-1] <= 1e-8
        assert rep.final_energy == pytest.approx(ref_energy, rel=1e-10)

    def test_glued_patched_matches_exact_inner_reference(self):
        seed = glued_pair(L=40.0)
        _, _, rep = newton_solve(seed, SolveConfig(preconditioner="patched"))
        pre = PatchedPreconditioner(seed, flavor="gauge_step").apply_symmetric
        ref_energy = _exact_newton(seed, 1e-8, preconditioner=pre)
        assert rep.residual_sup[-1] <= 1e-8
        assert rep.final_energy == pytest.approx(ref_energy, rel=1e-10)

    def test_steps_satisfy_forcing_bound(self, monkeypatch):
        seed = standard_seed()
        calls = []
        real_pcg = solver.pcg

        def recording_pcg(op, rhs, M, tol, maxit):
            x, it = real_pcg(op, rhs, M, tol, maxit)
            calls.append((op, rhs.copy(), tol, x))
            return x, it

        monkeypatch.setattr(solver, "pcg", recording_pcg)
        seen = []
        _, _, rep = newton_solve(seed, SolveConfig(newton_tol=1e-8),
                                 snapshot_callback=lambda i, f: seen.append(f))
        assert len(calls) == rep.newton_iterations == len(rep.cg_tolerances)
        for k, (op, rhs, tol, step) in enumerate(calls):
            assert tol == rep.cg_tolerances[k]
            # the inner solve runs on flat interior unknowns
            F = vortex_residual(seen[k])[1:-1].reshape(-1)
            assert np.array_equal(rhs, -F)
            linear = np.linalg.norm(op(step) + F)
            assert linear <= rep.cg_tolerances[k] * np.linalg.norm(F)

    def test_fewer_cg_iterations_than_exact_inner_solves(self, standard_solve):
        _, (_, _, rep) = standard_solve
        assert sum(rep.cg_iterations) <= self.PARENT_CG_400x64 // 2

    def test_tolerances_follow_the_forcing_rules(self, standard_solve):
        _, (_, _, rep) = standard_solve
        cfg = SolveConfig(newton_tol=1e-8)
        p = standard_seed().piece
        norms = [l2 / math.sqrt(p.h_r * p.h_theta) for l2 in rep.residual_l2]
        tols = rep.cg_tolerances
        assert tols[0] == solver.EW_ETA_0
        for k in range(1, len(tols)):
            eta = solver.EW_GAMMA * (norms[k] / norms[k - 1]) ** 2
            if solver.EW_GAMMA * tols[k - 1] ** 2 > solver.EW_SAFEGUARD:
                eta = max(eta, solver.EW_GAMMA * tols[k - 1] ** 2)
            eta = max(eta, 0.5 * cfg.newton_tol / norms[k])
            assert tols[k] == pytest.approx(
                max(cfg.cg_tol, min(solver.EW_ETA_MAX, eta)), rel=1e-12)
            assert cfg.cg_tol <= tols[k] <= solver.EW_ETA_MAX

    def test_forcing_term_rules(self):
        term = solver._forcing_term
        assert term(1.0, None, None, 1e-8, 1e-10) == 0.5
        # choice 2: 0.9 * (0.1)^2
        assert term(0.1, 1.0, 0.01, 1e-8, 1e-10) == pytest.approx(9e-3)
        # safeguard: 0.9 * 0.5^2 = 0.225 > 0.1 keeps eta from collapsing
        assert term(0.01, 1.0, 0.5, 1e-8, 1e-10) == pytest.approx(0.225)
        # cap
        assert term(2.0, 1.0, 0.01, 1e-8, 1e-10) == solver.EW_ETA_MAX
        # no over-solve near newton_tol: 0.5 * 1e-8 / 1e-7
        assert term(1e-7, 1e-3, 1e-3, 1e-8, 1e-10) == pytest.approx(0.05)
        # floor
        assert term(1e-2, 1.0, 1e-3, 1e-14, 1e-4) == 1e-4

    def test_backtracks_recorded(self):
        f = constant_field(cyl(n_r=61, n_theta=8, h_r=0.5), 0,
                           TargetSpace(1, 1, [[1]], [10.0]), [0.1])
        _, _, rep = newton_solve(f, SolveConfig())
        assert rep.backtracks[0] > 0
        assert [0.5**b for b in rep.backtracks] == rep.step_sizes
        d = rep.as_dict()
        assert d["backtracks"] == rep.backtracks
        assert d["cg_tolerances"] == rep.cg_tolerances


class TestSolveConfigTolerances:
    @pytest.mark.parametrize("name", ["newton_tol", "cg_tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_non_finite_or_non_positive_tolerance(self, name, bad):
        with pytest.raises(SolverError, match=f"{name} must be finite and positive"):
            SolveConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["max_newton", "max_cg"])
    @pytest.mark.parametrize("bad", [math.nan, 2.5, 0, "ten", True])
    def test_iteration_caps_are_positive_integers(self, name, bad):
        with pytest.raises(SolverError, match=f"{name} must be an integer"):
            SolveConfig(**{name: bad})


@pytest.fixture
def forks(monkeypatch):
    """solve_all forks at any size on three usable cores, whatever threads
    the BLAS library keeps (only Python threads count); the list records
    every os.fork call of this process.  After the test no child is left."""
    calls, real_fork = [], os.fork
    monkeypatch.setattr(solver, "PARALLEL_MIN_SITES", 0)
    monkeypatch.setattr(solver, "_live_threads", threading.active_count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _zero_level_field(n_r):
    return constant_field(cyl(n_r=n_r), 0, T1, [math.sqrt(2.0)])


def _same_results(got, expected):
    assert len(got) == len(expected)
    for (f, xi, rep), (f0, xi0, rep0) in zip(got, expected):
        for name in ("u", "a_r", "a_theta"):
            a, b = getattr(f, name), getattr(f0, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert xi.tobytes() == xi0.tobytes()
        assert rep.as_dict() == rep0.as_dict()


def _serial_error(seeds, cfg):
    with pytest.raises(Exception) as info:
        for seed in seeds:
            newton_solve(seed, cfg)
    return info.value


class TestSolveAll:
    def test_forked_results_are_the_serial_loops_in_seed_order(self, forks):
        # sizes out of order, so the bins do not follow the seed order
        seeds = [degree_one_seed(n_r=n, n_theta=16, h_r=0.25, zero=z)
                 for n, z in ((81, 0.2j), (161, 0.3 + 0.1j), (101, -0.4 + 2j),
                              (121, 0.1 + 1j))]
        cfg = SolveConfig()
        forked = solve_all(seeds, cfg)
        assert len(forks) == 2
        _same_results(forked, [newton_solve(s, cfg) for s in seeds])
        assert all(f.surface is s.surface for (f, _, _), s in zip(forked, seeds))

    def test_bins_put_the_largest_seed_in_the_caller(self):
        seeds = [_zero_level_field(n) for n in (41, 201, 81, 121, 61)]
        bins = solver._bins(seeds, 2)
        assert bins == [[1, 4], [0, 2, 3]]
        assert sorted(i for b in solver._bins(seeds, 3) for i in b) == list(range(5))

    def test_failing_middle_seed_raises_the_serial_error(self, forks):
        # the degree-one seed needs about five Newton steps; the zero-level
        # fields around it converge at once and are larger, so it runs in a child
        seeds = [_zero_level_field(161), degree_one_seed(n_r=61, n_theta=16),
                 _zero_level_field(141)]
        cfg = SolveConfig(max_newton=1)
        expected = _serial_error(seeds, cfg)
        with pytest.raises(type(expected)) as info:
            solve_all(seeds, cfg)
        assert len(forks) == 2
        assert str(info.value) == str(expected)
        assert "Newton did not reach tol" in str(expected)

    @pytest.mark.parametrize("cores", [3, 2])
    def test_the_first_failure_in_seed_order_wins(self, forks, monkeypatch, cores):
        # three cores: the later, larger failure is the caller's own and the
        # earlier one a child's; two cores: one child gets both failures
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        seeds = [degree_one_seed(n_r=61, n_theta=16),
                 degree_one_seed(n_r=81, n_theta=16, zero=-0.5 + 2j),
                 _zero_level_field(201)]
        if cores == 3:
            seeds[1:] = [_zero_level_field(81),
                         degree_one_seed(n_r=161, n_theta=16, zero=0.5 + 1j)]
        cfg = SolveConfig(max_newton=1)
        expected = _serial_error(seeds, cfg)
        with pytest.raises(type(expected)) as info:
            solve_all(seeds, cfg)
        assert str(info.value) == str(expected)
        outcomes = solve_all(seeds, cfg, return_errors=True)
        assert len(outcomes) == 1 and str(outcomes[0]) == str(expected)

    def test_a_dead_child_is_a_solver_error_naming_its_status(self, forks, monkeypatch):
        parent, real = os.getpid(), solver.newton_solve

        def dies_in_a_child(f, cfg=None):
            if os.getpid() != parent:
                os._exit(9)
            return real(f, cfg)

        monkeypatch.setattr(solver, "newton_solve", dies_in_a_child)
        seeds = [_zero_level_field(101), _zero_level_field(61)]
        with pytest.raises(SolverError, match="exited with status 9"):
            solve_all(seeds, SolveConfig())
        assert len(forks) == 1

    @pytest.mark.parametrize("members", ["solve_then_seed", "seed_only"])
    def test_batch_correspondence_reports_the_serial_error(self, forks, members):
        surf = cyl(n_r=61)
        flat = QuasimapData(GRAPH1, T1, {})  # converges at once
        vortex = QuasimapData(GRAPH1, T1, {0: ((0.1 + 0.1j,),)})  # needs 5 steps
        no_seed = QuasimapData(GRAPH1, T1, {0: ((0.1 + 0.1j,),)},
                               {("leg", 2): [0.0]})  # unstable right end
        qs = ([flat, vortex, no_seed] if members == "solve_then_seed"
              else [flat, flat, no_seed])
        cfg = SolveConfig(max_newton=2)
        with pytest.raises(Exception) as serial:
            for q in qs:
                correspondence(q, surf, cfg)
        with pytest.raises(type(serial.value)) as batch:
            correspondences([(q, surf) for q in qs], cfg)
        assert str(batch.value) == str(serial.value)
        assert len(forks) == 1
        expected = ("Newton did not reach tol" if members == "solve_then_seed"
                    else "right-end asymptotic direction is unstable")
        assert expected in str(batch.value)

    def test_batch_correspondence_matches_the_serial_families(self, forks):
        surf = cyl(n_r=81)
        qs = [QuasimapData(GRAPH1, T1, {0: ((complex(x, 0.2),),)})
              for x in (-0.5, 0.0, 0.5)]
        cfg = SolveConfig()
        batch = correspondences([(q, surf) for q in qs], cfg)
        serial = [correspondence(q, surf, cfg) for q in qs]
        assert len(forks) == 2
        for fam, ref in zip(batch, serial):
            assert fam.total_energy == ref.total_energy
            assert fam.evaluations.keys() == ref.evaluations.keys()
            for leg, fp in fam.evaluations.items():
                assert fingerprint_distance(fp, ref.evaluations[leg]) == 0.0

    def test_no_fork_on_one_usable_core(self, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        seeds = [_zero_level_field(61), _zero_level_field(81)]
        _same_results(solve_all(seeds), [newton_solve(s) for s in seeds])
        assert forks == []

    def test_live_threads_counts_this_thread(self):
        assert solver._live_threads() >= threading.active_count() == 1

    def test_no_fork_with_a_second_live_thread(self, forks):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            seeds = [_zero_level_field(61), _zero_level_field(81)]
            _same_results(solve_all(seeds), [newton_solve(s) for s in seeds])
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []

    def test_no_fork_below_the_size_threshold(self, forks, monkeypatch):
        seeds = [_zero_level_field(61), _zero_level_field(81), _zero_level_field(201)]
        monkeypatch.setattr(solver, "PARALLEL_MIN_SITES", 81 * 16 + 1)
        solve_all(seeds)
        assert forks == []
        monkeypatch.setattr(solver, "PARALLEL_MIN_SITES", 81 * 16)
        solve_all(seeds)
        assert len(forks) == 2
