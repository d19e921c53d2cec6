import json

import numpy as np
import pytest

from vortexlab.fields import (
    FieldError,
    apply_complex_gauge,
    apply_unitary_gauge,
    boundary_contract,
    constant_field,
    curvature,
    dbar_residual,
    energy,
    holonomy,
    limit_orbit,
    load_field,
    moment_map_field,
    save_field,
    vortex_residual,
    winding_number,
)
from vortexlab.quasimap import _twist_ramp
from vortexlab.surface import single_cylinder
from vortexlab.target import TargetSpace, fingerprint_distance

T1 = TargetSpace(1, 1, [[1]], [1.0])
THALF = TargetSpace(1, 1, [[1]], [0.5])
TP1 = TargetSpace(2, 1, [[1, 1]], [1.0])


def cyl(n_r=81, n_theta=16, h_r=0.125, r_min=0.0):
    return single_cylinder(n_r, n_theta, h_r, r_min=r_min)


def grid_z(piece):
    r = piece.r[:, None]
    theta = piece.h_theta * np.arange(piece.n_theta)[None, :]
    return r + 1j * theta


def refinement_slope(err_coarse, err_fine):
    return np.log2(err_coarse / err_fine)


class TestCurvature:
    def test_zero_connection(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        assert np.max(np.abs(curvature(f))) == 0.0

    def test_constant_twist_is_flat(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        f = f.with_fields(a_theta=np.full_like(f.a_theta, 0.7))
        assert np.max(np.abs(curvature(f))) < 1e-14

    def test_linear_a_theta_exact(self):
        surf = cyl()
        f = constant_field(surf, 0, T1, [1.0])
        p = surf.pieces[0]
        f = f.with_fields(a_theta=0.5 * p.r[:, None, None] * np.ones((1, p.n_theta, 1)))
        assert np.max(np.abs(curvature(f) - 0.5)) < 1e-12

    def test_curved_a_theta_richardson(self):
        errs = []
        for n_r, n_theta in [(81, 16), (161, 32), (321, 64)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            f = constant_field(surf, 0, T1, [1.0])
            p = surf.pieces[0]
            f = f.with_fields(a_theta=np.sin(p.r)[:, None, None] * np.ones((1, p.n_theta, 1)))
            err = np.max(np.abs(curvature(f)[2:-2, :, 0] - np.cos(p.r)[2:-2, None]))
            errs.append(err)
        assert 1.6 < refinement_slope(errs[0], errs[1]) < 2.4
        assert 1.6 < refinement_slope(errs[1], errs[2]) < 2.4

    def test_gauge_shift_exactly_closed(self):
        surf = cyl()
        p = surf.pieces[0]
        rng = np.random.default_rng(0)
        f = constant_field(surf, 0, T1, [1.0])
        theta = p.h_theta * np.arange(p.n_theta)
        phi = (np.sin(theta)[None, :] * np.cos(p.r)[:, None])[:, :, None]
        g = apply_unitary_gauge(f, phi)
        # discrete difference operators commute, so d(phi) adds no curvature
        assert np.max(np.abs(curvature(g) - curvature(f))) < 1e-12


class TestDbar:
    def test_constant_holomorphic(self):
        f = constant_field(cyl(), 0, T1, [2.0])
        assert np.max(np.abs(dbar_residual(f))) == 0.0

    def test_exponential_refinement(self):
        errs = []
        for n_r, n_theta in [(81, 16), (161, 32)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            f = constant_field(surf, 0, T1, [1.0])
            z = grid_z(surf.pieces[0])
            f = f.with_fields(u=np.exp(-z)[:, :, None])
            errs.append(np.max(np.abs(dbar_residual(f))))
        assert refinement_slope(errs[0], errs[1]) > 1.6

    def test_twisted_holomorphic_refinement(self):
        lam = 1
        errs = []
        for n_r, n_theta in [(81, 16), (161, 32)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            p = surf.pieces[0]
            f = constant_field(surf, 0, T1, [1.0])
            f = f.with_fields(a_theta=np.full_like(f.a_theta, float(lam)))
            z = grid_z(p)
            u = np.exp(-1j * lam * z.imag) * (np.exp(-z) + 0.3)
            f = f.with_fields(u=u[:, :, None])
            errs.append(np.max(np.abs(dbar_residual(f))))
        assert refinement_slope(errs[0], errs[1]) > 1.6


class TestVortexResidual:
    def test_zero_level_constant(self):
        f = constant_field(cyl(), 0, THALF, [1.0])
        assert np.max(np.abs(vortex_residual(f))) < 1e-14

    def test_zero_section_value(self):
        # tau = 1 and u = 0: residual is curvature minus moment map = +1
        # (the orientation that makes holomorphic degree > 0 solvable)
        f = constant_field(cyl(), 0, T1, [0.0])
        assert np.allclose(vortex_residual(f), 1.0)

    def test_unitary_gauge_pointwise_norm_exact(self):
        surf = cyl()
        p = surf.pieces[0]
        rng = np.random.default_rng(1)
        f = constant_field(surf, 0, TP1, [0.8, 0.6 + 0.2j])
        f = f.with_fields(
            a_theta=0.3 * np.cos(p.r)[:, None, None] * np.ones((1, p.n_theta, 1)),
            u=f.u * (1 + 0.2 * np.cos(grid_z(p).real))[:, :, None],
        )
        phi = (np.sin(p.h_theta * np.arange(p.n_theta))[None, :]
               * np.cos(0.5 * p.r)[:, None])[:, :, None]
        g = apply_unitary_gauge(f, phi)
        n0 = np.abs(vortex_residual(f))
        n1 = np.abs(vortex_residual(g))
        assert np.max(np.abs(n0 - n1)) < 1e-12


class TestEnergy:
    def test_vacuum(self):
        f = constant_field(cyl(), 0, THALF, [1.0])
        assert energy(f).total < 1e-25

    def test_constant_gauge_invariance_exact(self):
        surf = cyl()
        p = surf.pieces[0]
        f = constant_field(surf, 0, T1, [1.1])
        f = f.with_fields(u=f.u * (1 + 0.3 * np.exp(-grid_z(p)))[:, :, None])
        e0 = energy(f).total
        for phi in (0.4, 1.9, -0.7):
            e1 = energy(apply_unitary_gauge(f, np.array([phi]))).total
            assert abs(e1 - e0) <= 1e-10 * max(e0, 1e-30)

    def test_smooth_gauge_invariance_second_order(self):
        es = []
        for n_r, n_theta in [(81, 16), (161, 32)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            p = surf.pieces[0]
            f = constant_field(surf, 0, T1, [1.0])
            f = f.with_fields(u=f.u * (1 + 0.3 * np.exp(-grid_z(p)))[:, :, None])
            phi = (np.sin(p.h_theta * np.arange(p.n_theta))[None, :]
                   * np.cos(0.5 * p.r)[:, None])[:, :, None]
            e0 = energy(f).total
            e1 = energy(apply_unitary_gauge(f, phi)).total
            es.append(abs(e1 - e0) / e0)
        assert refinement_slope(es[0], es[1]) > 1.5

    def test_partials_sum_to_total(self):
        surf = cyl()
        p = surf.pieces[0]
        f = constant_field(surf, 0, T1, [0.5])
        f = f.with_fields(u=f.u * (1 + 0.2 * np.exp(-grid_z(p)))[:, :, None])
        rep = energy(f)
        comp = sum(v for k, v in rep.partials.items() if k.startswith("component:"))
        assert comp == pytest.approx(rep.total, rel=1e-12)


class TestComplexGauge:
    def test_zero_is_identity(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        g = apply_complex_gauge(f, np.zeros(1))
        assert np.array_equal(g.u, f.u)
        assert np.array_equal(g.a_theta, f.a_theta)

    def test_constant_rescales_moduli_only(self):
        f = constant_field(cyl(), 0, TP1, [1.0, 2.0])
        g = apply_complex_gauge(f, np.array([0.5]))
        assert np.allclose(np.abs(g.u[0, 0]), np.exp(-0.5) * np.array([1.0, 2.0]))
        assert np.array_equal(g.a_r, f.a_r)
        assert np.array_equal(g.a_theta, f.a_theta)

    def test_holomorphy_preserved_second_order(self):
        errs = []
        for n_r, n_theta in [(81, 16), (161, 32)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            p = surf.pieces[0]
            f = constant_field(surf, 0, T1, [1.0])
            f = f.with_fields(u=(np.exp(-grid_z(p)) + 0.5)[:, :, None])
            xi = (0.4 * np.cos(p.h_theta * np.arange(p.n_theta))[None, :]
                  * np.exp(-0.2 * p.r)[:, None])[:, :, None]
            g = apply_complex_gauge(f, xi)
            errs.append(np.max(np.abs(dbar_residual(g))))
        assert refinement_slope(errs[0], errs[1]) > 1.5

    def test_strap_identity_second_order(self):
        # a_new^{0,1} - a_old^{0,1} = -i dbar(xi) for the pinned shift
        errs = []
        for n_r, n_theta in [(81, 16), (161, 32)]:
            surf = cyl(n_r, n_theta, h_r=10.0 / (n_r - 1))
            p = surf.pieces[0]
            f = constant_field(surf, 0, T1, [1.0])
            theta = p.h_theta * np.arange(p.n_theta)
            xi_fun = lambda r, t: 0.3 * np.sin(t) * np.exp(-0.3 * r)
            xi = xi_fun(p.r[:, None], theta[None, :])[:, :, None]
            g = apply_complex_gauge(f, xi)
            b_r = g.a_r - f.a_r
            b_t = g.a_theta - f.a_theta
            lhs = 0.5 * (b_r + 1j * b_t)[:, :, 0]
            dxi_r = -0.3 * xi_fun(p.r[:, None], theta[None, :])
            dxi_t = 0.3 * np.cos(theta[None, :]) * np.exp(-0.3 * p.r[:, None])
            rhs = -1j * 0.5 * (dxi_r + 1j * dxi_t)
            errs.append(np.max(np.abs(lhs - rhs)))
        assert refinement_slope(errs[0], errs[1]) > 1.5


class TestHolonomyAndEnds:
    def test_trivial(self):
        f = constant_field(cyl(), 0, T1, [1.0])
        lift, frac = holonomy(f, 5.0)
        assert np.allclose(lift, 0.0) and np.allclose(frac, 0.0)

    def test_integer_twist(self):
        f = constant_field(cyl(), 0, T1, [1.0], lam=[1.0])
        lift, frac = holonomy(f, 5.0)
        assert np.allclose(lift, 1.0)
        assert np.allclose(frac, 0.0, atol=1e-12)

    def test_limit_orbit_constant(self):
        f = constant_field(cyl(), 0, THALF, [1.0])
        fp = limit_orbit(f, "right")
        assert fp.moduli[0] == pytest.approx(1.0, abs=1e-10)

    def test_limit_orbit_gauge_invariant(self):
        f = constant_field(cyl(), 0, TP1, [1.0, 1.0])
        g = apply_unitary_gauge(f, np.array([1.2345]))
        d = fingerprint_distance(limit_orbit(f, "left"), limit_orbit(g, "left"))
        assert d < 1e-10

    def test_limit_orbit_untwists(self):
        surf = cyl()
        p = surf.pieces[0]
        f = constant_field(surf, 0, T1, [1.4], lam=[1.0])
        theta = p.h_theta * np.arange(p.n_theta)
        f = f.with_fields(u=(1.4 * np.exp(-1j * theta))[None, :, None]
                          * np.ones((p.n_r, 1, 1)))
        fp = limit_orbit(f, "right")
        assert fp.moduli[0] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_limit_orbit_base_point_escape(self):
        f = constant_field(cyl(), 0, T1, [1e-12])
        with pytest.raises(FieldError, match="base point"):
            limit_orbit(f, "right")

    def test_winding_number(self):
        surf = cyl()
        p = surf.pieces[0]
        theta = p.h_theta * np.arange(p.n_theta)
        f = constant_field(surf, 0, T1, [1.0])
        f = f.with_fields(u=np.exp(-2j * theta)[None, :, None] * np.ones((p.n_r, 1, 1)))
        assert winding_number(f, 3, 0) == -2

    def test_boundary_contract_flags_flatness(self):
        f = constant_field(cyl(), 0, THALF, [1.0])
        out = boundary_contract(f)
        assert out["left_moment"] < 1e-14
        assert out["left_flatness"] < 1e-14


class TestLambdaProfile:
    # the end-twist ramp a seed writes into a_theta, and its antiderivative
    def test_end_values(self):
        prof, _ = _twist_ramp(cyl().pieces[0], np.array([2.0]), np.array([0.0]), [[]])
        assert prof[0, 0] == pytest.approx(2.0)
        assert prof[-1, 0] == pytest.approx(0.0)

    def test_integral_consistent_with_profile(self):
        p = cyl().pieces[0]
        prof, integ = _twist_ramp(p, np.array([1.0]), np.array([-1.0]), [[]])
        assert integ[0, 0] == 0.0
        mid = (integ[1:, 0] - integ[:-1, 0]) / p.h_r
        avg = 0.5 * (prof[1:, 0] + prof[:-1, 0])
        assert np.max(np.abs(mid - avg)) < 5e-3


class TestSerialization:
    def test_round_trip(self, tmp_path):
        surf = cyl(n_r=16, n_theta=8, h_r=0.5)
        p = surf.pieces[0]
        rng = np.random.default_rng(2)
        f = constant_field(surf, 0, TP1, [1.0, 0.5])
        f = f.with_fields(
            a_r=rng.normal(size=f.a_r.shape),
            a_theta=rng.normal(size=f.a_theta.shape),
            u=rng.normal(size=f.u.shape) + 1j * rng.normal(size=f.u.shape),
        )
        csv, hdr = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, hdr)
        g = load_field(surf, 0, TP1, csv, hdr)
        assert np.allclose(g.a_r, f.a_r, atol=1e-15)
        assert np.allclose(g.u, f.u, atol=1e-15)

    def test_csv_bytes_match_per_site_writer(self, tmp_path):
        t22 = TargetSpace(2, 2, [[1, 0], [0, 1]], [1.0, 1.0])
        surf = cyl(n_r=16, n_theta=8, h_r=0.5)
        p = surf.pieces[0]
        rng = np.random.default_rng(4)
        f = constant_field(surf, 0, t22, [1.0, 0.5])
        f = f.with_fields(
            a_r=rng.normal(size=f.a_r.shape),
            a_theta=rng.normal(size=f.a_theta.shape),
            u=rng.normal(size=f.u.shape) + 1j * rng.normal(size=f.u.shape),
        )
        csv, hdr = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, hdr)
        # reference: the site table written one row at a time
        lines = ["site,r,theta,a_r_0,a_r_1,a_theta_0,a_theta_1,"
                 "re_u_0,im_u_0,re_u_1,im_u_1"]
        for i in range(p.n_r):
            for j in range(p.n_theta):
                row = [i * p.n_theta + j, p.r[i], j * p.h_theta]
                row += list(f.a_r[i, j]) + list(f.a_theta[i, j])
                for c in range(2):
                    row += [f.u[i, j, c].real, f.u[i, j, c].imag]
                lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                                      for x in row))
        assert csv.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("version", [None, 1, 3])
    def test_other_schema_version_rejected(self, tmp_path, version):
        surf = cyl(n_r=16, n_theta=8, h_r=0.5)
        csv, hdr = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(constant_field(surf, 0, T1, [1.0]), csv, hdr)
        header = json.loads(hdr.read_text())
        assert header["schema_version"] == 2
        if version is None:
            del header["schema_version"]
        else:
            header["schema_version"] = version
        hdr.write_text(json.dumps(header))
        with pytest.raises(FieldError, match="schema version"):
            load_field(surf, 0, T1, csv, hdr)

    def test_hash_mismatch(self, tmp_path):
        surf = cyl(n_r=16, n_theta=8, h_r=0.5)
        f = constant_field(surf, 0, T1, [1.0])
        csv, hdr = tmp_path / "f.csv", tmp_path / "f.json"
        save_field(f, csv, hdr)
        other = cyl(n_r=24, n_theta=8, h_r=0.5)
        with pytest.raises(FieldError, match="different mesh"):
            load_field(other, 0, T1, csv, hdr)


class TestHolonomyDecay:
    def test_converged_vortex_holonomy_approaches_lattice(self):
        # distance of the ring holonomy to the integer lattice decays
        # exponentially toward the ends, at the field rate
        from vortexlab.quasimap import QuasimapData, build_seed
        from vortexlab.solver import SolveConfig, newton_solve
        from vortexlab.modgraph import ModularGraph

        g = ModularGraph({0: 0}, (), ((1, 0), (2, 0)))
        surf = single_cylinder(201, 32, 0.2, r_min=-20.0, graph=g, vertex=0)
        q = QuasimapData(g, T1, {0: ((0.1 + 0.1j,),)})
        field, _, _ = newton_solve(build_seed(q, surf, 0), SolveConfig())
        radii = np.arange(4.0, 13.0, 1.0)
        dists = []
        for r0 in radii:
            _, frac = holonomy(field, r0)
            dists.append(max(abs(float(frac[0])), 1e-300))
        slope = np.polyfit(radii, np.log(dists), 1)[0]
        assert slope < -0.5  # exponential approach to the lattice
        assert dists[-1] < 1e-3
