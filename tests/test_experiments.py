import math

import numpy as np
import pytest

from vortexlab import experiments, solver
from vortexlab.experiments import (
    ExperimentError,
    NeckProfile,
    annulus_check,
    bubble_locator,
    decay_fit,
    energy_homology_check,
    ev_continuity,
    mass_scale,
    neck_family,
    neck_profile,
    pairing_value,
    quantization_scan,
)
from vortexlab.fields import constant_field, ring_energy
from vortexlab.modgraph import ModularGraph
from vortexlab.quasimap import QuasimapData, build_seed, correspondence
from vortexlab.solver import SolveConfig, newton_solve
from vortexlab.surface import ComponentMesh, End, SurfaceError, single_cylinder
from vortexlab.target import TargetError, TargetSpace, kempf_ness

T1 = TargetSpace(1, 1, [[1]], [1.0])
T2 = TargetSpace(1, 1, [[1]], [2.0])
TP1 = TargetSpace(2, 1, [[1, 1]], [1.0])
G1 = ModularGraph({0: 0}, (), ((1, 0), (2, 0)))


def cylinder(n_r=201, n_theta=32, h_r=0.2, graph=G1):
    return single_cylinder(n_r, n_theta, h_r, r_min=-(n_r - 1) * h_r / 2,
                           graph=graph, vertex=0)


def solve_degree_one(target=T1, n_r=201, n_theta=32, h_r=0.2, zero=0.1 + 0.1j):
    surf = cylinder(n_r, n_theta, h_r)
    q = QuasimapData(G1, target, {0: ((zero,),)})
    seed = build_seed(q, surf, 0)
    field, _, rep = newton_solve(seed, SolveConfig())
    return field, rep


@pytest.fixture(scope="module")
def vortex_field():
    return solve_degree_one()


def neck_factories(target, zero_in_neck):
    g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))

    def components(L):
        mk = lambda rmin, l, r: ComponentMesh(33, 16, 0.25, rmin, l, r)
        return g, {
            "u": mk(-8.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
            "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
        }, 0

    def qdata(L):
        if zero_in_neck:
            zeros = {"u": ((complex(L / 2, 0.1),),)}  # u-coordinate runs into the neck
        else:
            zeros = {"u": ((-4.0 + 0.1j,),)}
        return QuasimapData(g, target, zeros)

    return components, qdata


class TestDecayFit:
    def test_constant_vortex_rejected(self):
        surf = cylinder(n_r=101, n_theta=16)
        f = constant_field(surf, 0, T1, [math.sqrt(2.0)])
        fit = decay_fit(f, "right", (2.0, 8.0))
        assert fit.rejected

    def test_positive_rate_and_refinement_stability(self):
        f1, _ = solve_degree_one(n_r=267, n_theta=40, h_r=0.15)
        f2, _ = solve_degree_one(n_r=401, n_theta=64, h_r=0.1)
        fit1 = decay_fit(f1, "right", (5.0, 15.0))
        fit2 = decay_fit(f2, "right", (5.0, 15.0))
        assert fit1.gamma_hat > 0 and fit2.gamma_hat > 0
        assert abs(fit1.gamma_hat - fit2.gamma_hat) / fit2.gamma_hat < 0.10
        assert fit1.r_squared > 0.99

    def test_rate_recorded_against_mass_scale(self, vortex_field):
        f, _ = vortex_field
        fit = decay_fit(f, "right", (5.0, 15.0))
        reference = mass_scale(T1)
        assert reference == pytest.approx(2.0 * math.sqrt(2.0))
        # recorded comparison: the measured rate sits at the linearized scale
        assert fit.gamma_hat > 0
        assert abs(fit.gamma_hat - reference) / reference < 0.15

    def test_window_shifts_past_zero(self, vortex_field):
        f, _ = vortex_field
        fit = decay_fit(f, "right", (-1.0, 6.0))  # the section zero sits at 0.1
        assert "shifted" in fit.note
        assert fit.window[0] > -1.0

    def test_left_end_fit(self, vortex_field):
        # the left end carries the integer twist; its tail floors at the
        # angular-stencil error of the winding phase, so fit near the core
        f, _ = vortex_field
        fit = decay_fit(f, "left", (-4.0, -1.0))
        assert fit.gamma_hat > 0


@pytest.fixture(scope="module")
def small_energy_vortex():
    # near-vacuum perturbation entering from the left boundary
    surf = single_cylinder(151, 16, 0.2, r_min=0.0, graph=G1, vertex=0)
    f = constant_field(surf, 0, T1, [math.sqrt(2.0)])
    p = f.piece
    z = p.r[:, None] + 1j * p.h_theta * np.arange(p.n_theta)[None, :]
    f = f.with_fields(u=(math.sqrt(2.0) * (1 + 0.05 * np.exp(-z)))[:, :, None])
    solved, _, _ = newton_solve(f, SolveConfig())
    return solved


class TestAnnulus:
    def test_zero_energy_field(self):
        surf = cylinder(n_r=101, n_theta=16)
        f = constant_field(surf, 0, T1, [math.sqrt(2.0)])
        out = annulus_check(f, [0.0, 2.0, 4.0])
        assert np.allclose(out["table"][:, 1], 0.0, atol=1e-22)
        assert out["monotone"]

    def test_middle_energy_monotone_and_loglinear(self, small_energy_vortex):
        out = annulus_check(small_energy_vortex, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        assert out["monotone"]
        assert out["delta_hat"] > 0
        assert out["r_squared"] > 0.95

    def test_doubling_t_never_increases(self, small_energy_vortex):
        out = annulus_check(small_energy_vortex, [0.0, 3.0, 6.0])
        e = out["table"][:, 1]
        assert e[1] <= e[0] and e[2] <= e[1]

    def test_orbit_diameter_small_at_small_energy(self, small_energy_vortex):
        out = annulus_check(small_energy_vortex, [0.0, 5.0])
        assert out["orbit_diameter"] < 0.05


class TestReportRingEnergies:
    # given the ring energies a solve's report carries, each experiment gives
    # what it gives from the field alone, bit for bit
    def test_decay_fit(self, vortex_field):
        f, rep = vortex_field
        alone = decay_fit(f, "right", (5.0, 15.0))
        given = decay_fit(f, "right", (5.0, 15.0), rep.ring_energy)
        assert given.samples.tobytes() == alone.samples.tobytes()
        assert (given.gamma_hat, given.c_hat, given.r_squared, given.note) == (
            alone.gamma_hat, alone.c_hat, alone.r_squared, alone.note)

    def test_annulus_check(self):
        surf = single_cylinder(151, 16, 0.2, r_min=0.0, graph=G1, vertex=0)
        f = constant_field(surf, 0, T1, [1.3])
        solved, _, rep = newton_solve(f, SolveConfig())
        alone = annulus_check(solved, [0.0, 2.0, 4.0])
        given = annulus_check(solved, [0.0, 2.0, 4.0], rep.ring_energy)
        assert given["table"].tobytes() == alone["table"].tobytes()
        assert {k: v for k, v in given.items() if k != "table"} == {
            k: v for k, v in alone.items() if k != "table"}

    def test_neck_family_profiles(self):
        comps, qdata = neck_factories(T1, zero_in_neck=True)
        out = neck_family(comps, qdata, [12.0])
        prof = out["profiles"][12.0]
        f = out["families"][12.0].fields[0]
        alone = neck_profile(f, 0, ring_energy(f))
        assert prof.ring_energy.tobytes() == alone.ring_energy.tobytes()
        assert (prof.m0, prof.total_energy, prof.total_neck_energy, prof.tail_start) == (
            alone.m0, alone.total_energy, alone.total_neck_energy, alone.tail_start)


class TestQuantization:
    def test_constant_seeds_all_below_floor(self):
        surf = cylinder(n_r=101, n_theta=16)
        rng = np.random.default_rng(0)
        seeds = []
        for _ in range(4):
            v = kempf_ness(T1, rng.normal(size=1) + 1j * rng.normal(size=1)).point
            seeds.append(constant_field(surf, 0, T1, v))
        out = quantization_scan(seeds)
        assert out["n_constant"] == 4
        assert np.all(out["energies"] < out["floor"])

    def test_degree_one_energies_cluster(self):
        surf = cylinder(n_r=151, n_theta=24, h_r=0.25)
        seeds = []
        for z0 in (0.0 + 0.0j, 1.0 + 0.7j, -2.0 + 3.0j, 0.5 + 1.2j):
            q = QuasimapData(G1, T1, {0: ((z0,),)})
            seeds.append(build_seed(q, surf, 0))
        out = quantization_scan(seeds)
        e = out["energies"]
        assert np.max(e) / np.min(e) - 1 < 0.02
        assert abs(np.mean(e) - pairing_value(T1, 1)) / pairing_value(T1, 1) < 0.02

    def test_mixed_scan_band_empty(self):
        surf = cylinder(n_r=151, n_theta=24, h_r=0.25)
        rng = np.random.default_rng(1)
        seeds = []
        for _ in range(3):
            v = kempf_ness(T1, rng.normal(size=1) + 1j * rng.normal(size=1)).point
            seeds.append(constant_field(surf, 0, T1, v))
        for z0 in (0.3 + 0.4j, -1.0 + 2.0j):
            seeds.append(build_seed(QuasimapData(G1, T1, {0: ((z0,),)}), surf, 0))
        out = quantization_scan(seeds)
        assert out["band_empty"]
        assert out["gap"] > 1.0


class TestNeckFamily:
    def test_no_neck_zero_middle_energy_decays(self):
        comps, qdata = neck_factories(T1, zero_in_neck=False)
        out = neck_family(comps, qdata, [8.0, 12.0, 16.0])
        mids = []
        for L, prof in sorted(out["profiles"].items()):
            mid = prof.ring_energy[np.abs(prof.rho - L / 2) <= 1.0].sum() * prof.h_r
            mids.append(mid)
        assert mids[0] > mids[1] > mids[2]
        assert mids[2] < 1e-4

    def test_total_energy_independent_of_length(self):
        comps, qdata = neck_factories(T1, zero_in_neck=False)
        out = neck_family(comps, qdata, [8.0, 16.0])
        totals = [p.total_energy for p in out["profiles"].values()]
        assert abs(totals[0] - totals[1]) / totals[1] < 0.02

    def test_neck_zero_m0_persists(self):
        comps, qdata = neck_factories(T1, zero_in_neck=True)
        out = neck_family(comps, qdata, [12.0, 16.0])
        m0s = [out["profiles"][L].m0 for L in (12.0, 16.0)]
        assert all(m > 1.0 for m in m0s)
        assert abs(m0s[0] - m0s[1]) / m0s[1] < 0.05

    def test_a_short_last_length_fails_before_any_solve(self, monkeypatch):
        calls, real = [], solver.newton_solve
        monkeypatch.setattr(solver, "newton_solve",
                            lambda f, cfg=None: calls.append(1) or real(f, cfg))
        comps, qdata = neck_factories(T1, zero_in_neck=False)
        with pytest.raises(SurfaceError, match="shorter than twice"):
            neck_family(comps, qdata, [8.0, 12.0, 6.0])
        assert calls == []

    def test_ev_stable_across_neck_sweep(self):
        comps, qdata = neck_factories(T1, zero_in_neck=False)
        out = neck_family(comps, qdata, [8.0, 12.0, 16.0])
        fams = [out["families"][L] for L in (8.0, 12.0, 16.0)]
        dists = ev_continuity(fams)
        tol = max(f.tol_connect for f in fams)
        assert all(d <= tol for ds in dists.values() for d in ds)


def synthetic_profile(center=5.0, width=1.0, mass=2.0, L=16.0, h=0.25):
    rho = np.arange(0.0, L + h / 2, h)
    ring = mass / (width * math.sqrt(2 * math.pi)) * np.exp(
        -0.5 * ((rho - center) / width) ** 2)
    return NeckProfile(L, rho, ring, float(ring.sum() * h), float(ring.sum() * h),
                       m0=float(ring.sum() * h), tail_start=0.0, h_r=h)


class TestBubbleLocator:
    def test_zero_mass_returns_none(self):
        prof = synthetic_profile()
        prof.m0 = 0.0
        assert bubble_locator(prof, 0.5) is None

    def test_crossing_matches_cumulative_oracle(self):
        prof = synthetic_profile(center=6.0)
        delta = 0.8
        s = bubble_locator(prof, delta)
        # brute-force cumulative scan oracle
        target = prof.m0 - delta / 2
        weights = prof.ring_energy * prof.h_r
        best = None
        for i in range(len(prof.rho)):
            if weights[i:].sum() <= target:
                best = prof.rho[i]
                break
        assert s == pytest.approx(best, abs=prof.h_r)
        assert abs(s - 6.0) < 2.0  # near the bump

    def test_translation_equivariance_exact(self):
        # translate the profile data itself: pure index arithmetic
        p0 = synthetic_profile(center=4.0, L=20.0)
        cells = 13
        shifted = np.concatenate([np.zeros(cells), p0.ring_energy[:-cells]])
        p1 = NeckProfile(p0.neck_length, p0.rho, shifted,
                         p0.total_neck_energy, p0.total_energy,
                         m0=float(shifted.sum() * p0.h_r), tail_start=0.0,
                         h_r=p0.h_r)
        p0b = NeckProfile(p0.neck_length, p0.rho, p0.ring_energy,
                          p0.total_neck_energy, p0.total_energy,
                          m0=float(p0.ring_energy.sum() * p0.h_r),
                          tail_start=0.0, h_r=p0.h_r)
        s0 = bubble_locator(p0b, 0.6)
        s1 = bubble_locator(p1, 0.6)
        assert s1 - s0 == pytest.approx(cells * p0.h_r, abs=1e-12)

    def test_delta_out_of_range(self):
        prof = synthetic_profile()
        with pytest.raises(ExperimentError):
            bubble_locator(prof, 100.0)


class TestEvContinuity:
    def test_constant_sweep_all_zero(self):
        surf = cylinder(n_r=101, n_theta=16, h_r=0.25)
        q = QuasimapData(G1, TP1, {0: ((0.2 + 0.3j,),)})
        fams = [correspondence(q, surf) for _ in range(3)]
        out = ev_continuity(fams)
        assert all(d == 0.0 for ds in out.values() for d in ds)

    def test_zero_motion_linear_response(self):
        # zeros in two different coordinates: the left-end orbit carries the
        # ratio of the two tails, which responds linearly to the separation
        surf = cylinder(n_r=161, n_theta=24, h_r=0.25)
        steps = [0.4, 0.2, 0.1]
        dists = []
        for step in steps:
            fams = []
            for z0 in (0.0 + 0.2j, step + 0.2j):
                q = QuasimapData(G1, TP1, {0: ((z0,), (0.5 + 1.2j,))})
                fams.append(correspondence(q, surf))
            dists.append(ev_continuity(fams)[1][0])
        slope = np.polyfit(np.log(steps), np.log(dists), 1)[0]
        assert 0.7 < slope < 1.3


class TestEnergyHomology:
    def test_degree_zero(self):
        out = energy_homology_check(0.0, 0, T1)
        assert out["measured"] == 0.0 and out["pairing"] == 0.0

    def test_degree_one_within_two_percent(self, vortex_field):
        _, rep = vortex_field
        out = energy_homology_check(rep.final_energy, 1, T1)
        assert out["relative_gap"] < 0.02

    def test_tau_linearity(self):
        _, rep2 = solve_degree_one(target=T2)
        out = energy_homology_check(rep2.final_energy, 1, T2)
        assert out["relative_gap"] < 0.02
        assert pairing_value(T2, 1) == pytest.approx(2 * pairing_value(T1, 1))


class TestMassGapMonotonicity:
    def test_rate_does_not_drop_when_tau_increases(self):
        # fit within the clean decay regime of the faster rate (the tail of a
        # heavier vortex reaches the stencil floor sooner)
        f1, _ = solve_degree_one(target=T1, n_r=267, n_theta=40, h_r=0.15)
        f2, _ = solve_degree_one(target=T2, n_r=267, n_theta=40, h_r=0.15)
        g1 = decay_fit(f1, "right", (2.0, 5.0)).gamma_hat
        g2 = decay_fit(f2, "right", (2.0, 5.0)).gamma_hat
        assert g2 >= 0.9 * g1
        assert mass_scale(T2) > mass_scale(T1)


class TestMassScale:
    def test_reference_value(self):
        # |v|^2 = 2 tau on the zero level, so Gram = 2 tau and the rate 2 sqrt(2 tau)
        assert mass_scale(T1) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(t, v):
            raise ZeroDivisionError("defect in the retraction")

        monkeypatch.setattr(experiments, "kempf_ness", broken)
        with pytest.raises(ZeroDivisionError):
            mass_scale(T1)

    def test_unreachable_samples_are_an_experiment_error(self, monkeypatch):
        def unstable(t, v):
            raise TargetError("kempf_ness requires a semistable point")

        monkeypatch.setattr(experiments, "kempf_ness", unstable)
        with pytest.raises(ExperimentError, match="no zero-level sample"):
            mass_scale(T1)
