import collections
import dataclasses
import functools
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from vortexlab import target
from vortexlab.target import (
    L_operator,
    TargetError,
    TargetSpace,
    fingerprint,
    fingerprint_distance,
    is_semistable,
    kempf_ness,
    kempf_ness_shift,
    kempf_ness_shifts,
    moment_map,
    semistable_mask,
    validate_chamber,
)

T_STD = TargetSpace(1, 1, [[1]], [1.0])
T_HALF = TargetSpace(1, 1, [[1]], [0.5])
T_P1 = TargetSpace(2, 1, [[1, 1]], [1.0])
T_W12 = TargetSpace(2, 1, [[1, 2]], [2.0])
T_K2 = TargetSpace(3, 2, [[1, 0, 1], [0, 1, 1]], [1.0, 1.0])


def hm_oracle(t, v, box=3):
    """Brute-force dual Hilbert-Mumford test over integer directions."""
    act = [j for j in range(t.n) if abs(v[j]) > 1e-9]
    for lam in itertools.product(range(-box, box + 1), repeat=t.k):
        if all(x == 0 for x in lam):
            continue
        lam = np.array(lam, dtype=float)
        pairings = [t.weights[:, j] @ lam for j in act]
        if all(p >= 0 for p in pairings) and not (t.tau @ lam > 0):
            return False
    return True


@functools.cache
def hm_sweep():
    """Every target with k in {1, 2}, n in {1, 2, 3}, weights in {-1, 0, 1}
    (zero columns among them) and tau in {-1, 0, 1, 2}^k, each with
    hm_oracle's verdict on its point with every coordinate 1."""
    targets = [TargetSpace(n, k, np.reshape(w, (k, n)), tau)
               for k in (1, 2) for n in (1, 2, 3)
               for w in itertools.product((-1, 0, 1), repeat=k * n)
               for tau in itertools.product((-1.0, 0.0, 1.0, 2.0), repeat=k)]
    return [(t, hm_oracle(t, np.ones(t.n))) for t in targets]


def wall_oracle(t):
    """Exact wall test: tau lies in cone(w_S) for a column set S of rank
    below k, in Fraction arithmetic.  Every such S here has rank at most one,
    and such a cone is the union of the rays of its columns, so tau must be 0
    or a positive multiple of one of them."""
    tau = [Fraction(x) for x in t.tau]
    cols = [[Fraction(int(x)) for x in t.weights[:, j]] for j in range(t.n)]

    def rank(S):
        if not any(x for w in S for x in w):
            return 0
        return 2 if any(u[0] * v[1] != u[1] * v[0] for u in S for v in S if t.k == 2) else 1

    def on_ray(w):
        c = next((x / y for x, y in zip(tau, w) if y != 0), None)
        return c is not None and c > 0 and all(x == c * y for x, y in zip(tau, w))

    return any(rank(S) < t.k and (not any(tau) or any(on_ray(w) for w in S))
               for size in range(t.n + 1) for S in itertools.combinations(cols, size))


class TestMomentMap:
    def test_zero_point(self):
        assert moment_map(T_STD, [0.0]) == pytest.approx([-1.0])

    def test_symmetric_zero_level(self):
        assert moment_map(T_HALF, [1.0]) == pytest.approx([0.0], abs=1e-15)

    def test_mixed_weights_value(self):
        # frozen from the pairing oracle 1/2 Im(conj(v) . i(w xi)v)/xi - tau
        v = np.array([1.0, 1.0])
        w = np.array([1, 2])
        xi = 0.37
        oracle = 0.5 * np.imag(np.conj(v) @ (1j * w * xi * v)) / xi - 2.0
        assert oracle == pytest.approx(-0.5)
        assert moment_map(T_W12, v) == pytest.approx([-0.5])

    def test_unitary_invariance_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            phi = rng.uniform(0, 2 * np.pi, size=2)
            rotated = np.exp(1j * (T_K2.weights.T @ phi)) * v
            assert np.allclose(moment_map(T_K2, rotated), moment_map(T_K2, v), atol=1e-13)


class TestInfinitesimalAction:
    def test_moment_map_constant_on_orbits(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        xi = rng.normal(size=2)
        s = 1e-6
        moved = v + s * (1j * (T_K2.weights.T @ xi) * v)
        delta = moment_map(T_K2, moved) - moment_map(T_K2, v)
        assert np.linalg.norm(delta) < 1e-5 * max(1, np.linalg.norm(xi))


class TestLOperator:
    def test_zero_point(self):
        assert np.all(L_operator(T_K2, [0, 0, 0]) == 0)

    def test_scalar_value_against_flow_oracle(self):
        # dPhi along the radial (J-rotated) flow e^{(w s)} v at s=0
        v = np.array([np.sqrt(2.0)])
        s = 1e-7
        flowed = np.exp(T_STD.weights.T @ np.array([s])) * v
        fd = (moment_map(T_STD, flowed) - moment_map(T_STD, v)) / s
        assert fd == pytest.approx([2.0], rel=1e-5)
        assert np.allclose(L_operator(T_STD, v), [[2.0]])

    def test_symmetric_psd_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            L = L_operator(T_K2, v)
            assert np.allclose(L, L.T)
            assert np.min(np.linalg.eigvalsh(L)) >= -1e-12

    def test_quadratic_form_is_action_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            xi = rng.normal(size=2)
            lhs = xi @ L_operator(T_K2, v) @ xi
            rhs = np.linalg.norm(1j * (T_K2.weights.T @ xi) * v) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


class TestSemistability:
    def test_origin_unstable(self):
        assert not is_semistable(T_P1, [0.0, 0.0])
        assert not hm_oracle(T_P1, np.array([0.0, 0.0]))

    def test_basis_vector_stable(self):
        assert is_semistable(T_P1, [1.0, 0.0])
        assert hm_oracle(T_P1, np.array([1.0, 0.0]))

    def test_wrong_chamber_all_unstable(self):
        t = TargetSpace(2, 1, [[1, 1]], [-1.0])
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert not is_semistable(t, v)
            assert not hm_oracle(t, v)

    def test_matches_oracle_on_k2_samples(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v[rng.integers(0, 3)] *= rng.integers(0, 2)  # sometimes kill a coord
            assert is_semistable(T_K2, v) == hm_oracle(T_K2, v)

    def test_tau_zero_is_unstable_for_positive_weights(self):
        t = TargetSpace(1, 1, [[1]], [0.0])
        assert not is_semistable(t, [1.0])

    def test_matches_oracle_on_every_small_target(self):
        # weights that positively span exactly a half-plane are neither
        # collinear nor spanning, and their verdict must not depend on the
        # order of the coordinates
        disagree = [(t.weights.tolist(), t.tau.tolist()) for t, oracle in hm_sweep()
                    if is_semistable(t, np.ones(t.n)) != oracle]
        assert disagree == []

    def test_strict_at_a_rank_two_wall(self):
        # no cushion: tau a hair inside the positive quadrant is semistable
        t = TargetSpace(2, 2, np.eye(2, dtype=int), [1.0, 1e-12])
        assert is_semistable(t, [1.0, 1.0])
        assert not is_semistable(dataclasses.replace(t, tau=[1.0, 0.0]), [1.0, 1.0])


class TestKempfNess:
    def test_already_on_zero_level(self):
        p = kempf_ness(T_HALF, [1.0])
        assert np.allclose(p.point, [1.0])
        s, _ = kempf_ness_shift(T_HALF, [1.0])
        assert np.allclose(s, [0.0], atol=1e-12)

    def test_scalar_closed_form(self):
        # bisection oracle on 1/2 e^{2s} |v|^2 = tau
        v = 2.0
        lo, hi = -5.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * np.exp(2 * mid) * abs(v) ** 2 < 0.5:
                lo = mid
            else:
                hi = mid
        s_oracle = 0.5 * (lo + hi)
        p = kempf_ness(T_HALF, [v])
        assert np.exp(s_oracle) * v == pytest.approx(1.0, abs=1e-8)
        assert p.point[0] == pytest.approx(1.0, abs=1e-10)

    def test_unstable_input_raises(self):
        with pytest.raises(TargetError):
            kempf_ness(T_P1, [0.0, 0.0])

    def test_batched_matches_per_row(self):
        # rows with mixed active patterns and moduli spread over decades
        rng = np.random.default_rng(12)
        for t, kill in ((T_P1, (None, 0, 1)), (T_K2, (None, 2)), (T_W12, (None, 1))):
            V = (rng.normal(size=(30, t.n)) + 1j * rng.normal(size=(30, t.n)))
            V *= 10.0 ** rng.uniform(-3, 3, size=(30, 1))
            for i in range(len(V)):
                j = kill[i % len(kill)]
                if j is not None:
                    V[i, j] = 0.0
            S, iters = kempf_ness_shifts(t, V)
            assert S.shape == (30, t.k) and iters.shape == (30,)
            assert kempf_ness_shifts(t, V[:0])[0].shape == (0, t.k)
            for v, s, n_it in zip(V, S, iters):
                s_row, it_row = kempf_ness_shift(t, v)
                assert np.allclose(s, s_row, rtol=0, atol=1e-12)
                assert n_it == it_row
                on_level = np.exp(t.weights.T @ s) * v
                assert np.linalg.norm(moment_map(t, on_level)) < 1e-11

    def test_batched_rejects_an_unstable_row(self):
        V = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
        assert semistable_mask(T_P1, V).tolist() == [True, False, True]
        with pytest.raises(TargetError, match="semistable"):
            kempf_ness_shifts(T_P1, V)

    def test_zero_level_reached_and_idempotent(self):
        rng = np.random.default_rng(7)
        for t in (T_P1, T_K2):
            for _ in range(10):
                v = rng.normal(size=t.n) + 1j * rng.normal(size=t.n)
                if not is_semistable(t, v):
                    continue
                p = kempf_ness(t, v)
                assert np.linalg.norm(moment_map(t, p.point)) <= 1e-12
                again = kempf_ness(t, p.point)
                assert np.linalg.norm(again.point - p.point) <= 1e-10

    def test_orbit_scaling_does_not_move_fingerprint(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        f0 = kempf_ness(T_K2, v).fingerprint
        for _ in range(5):
            # complexified torus element: real rescale + rotation
            eta = rng.normal(size=2)
            phi = rng.uniform(0, 2 * np.pi, size=2)
            g = np.exp((T_K2.weights.T @ eta) + 1j * (T_K2.weights.T @ phi))
            f1 = kempf_ness(T_K2, g * v).fingerprint
            assert fingerprint_distance(f0, f1) < 1e-8


class TestPatternFactCache:
    """semistable_mask and fingerprint work out each active-coordinate
    pattern's facts once per target; a fresh target has an empty cache."""

    T_RANK1_K2 = TargetSpace(3, 2, [[1, 2, 3], [2, 4, 6]], [1.0, 2.0])  # rank 1 < k

    @pytest.mark.parametrize("t", [T_STD, T_P1, T_W12, T_K2, T_RANK1_K2],
                             ids=["std", "p1", "w12", "k2", "rank1-k2"])
    def test_cached_mask_equals_uncached_decision(self, t):
        rng = np.random.default_rng(t.n + 10 * t.k)
        V = rng.normal(size=(60, t.n)) + 1j * rng.normal(size=(60, t.n))
        V *= rng.integers(0, 2, size=V.shape)  # zero coordinates, zero rows among them
        V[:3] = 0.0
        cached = TargetSpace(t.n, t.k, t.weights, t.tau)
        first = semistable_mask(cached, V)
        again = semistable_mask(cached, V[::-1])[::-1]
        uncached = [is_semistable(TargetSpace(t.n, t.k, t.weights, t.tau), v) for v in V]
        assert first.tolist() == again.tolist() == uncached
        assert not first[:3].any()

    def test_cached_fingerprint_equals_uncached(self):
        rng = np.random.default_rng(12)
        cached = TargetSpace(T_K2.n, T_K2.k, T_K2.weights, T_K2.tau)
        for _ in range(20):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v[rng.integers(0, 3)] *= rng.integers(0, 2)
            fresh = TargetSpace(T_K2.n, T_K2.k, T_K2.weights, T_K2.tau)
            assert fingerprint(cached, v) == fingerprint(fresh, v)

    def test_cache_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(TargetSpace)] == ["n", "k", "weights", "tau"]
        assert is_semistable(T_P1, [1.0, 1.0])
        # a target built from another does not inherit its facts
        assert not is_semistable(dataclasses.replace(T_P1, tau=[-1.0]), [1.0, 1.0])


class TestFingerprint:
    def test_invariant_under_unitary_torus(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        f0 = fingerprint(T_K2, v)
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi, size=2)
            f1 = fingerprint(T_K2, np.exp(1j * (T_K2.weights.T @ phi)) * v)
            assert fingerprint_distance(f0, f1) < 1e-10

    def test_distinguishes_distinct_quotient_points(self):
        f0 = fingerprint(T_P1, [1.0, 1.0])
        f1 = fingerprint(T_P1, [1.0, 1j])
        assert fingerprint_distance(f0, f1) > 0.5

    def test_single_coordinate_has_no_phase(self):
        f = fingerprint(T_STD, [1j])
        assert f.phases == ()


class TestChamberValidation:
    def test_good_targets_pass(self):
        assert validate_chamber(T_STD)
        assert validate_chamber(dataclasses.replace(T_K2, tau=[1.0, 2.0]))
        # T_K2's tau = (1, 1) is a multiple of its column (1, 1): a wall
        with pytest.raises(TargetError, match="tau on a wall"):
            validate_chamber(T_K2)

    def test_wrong_chamber_reports_direction(self):
        t = TargetSpace(2, 1, [[1, 1]], [-1.0])
        with pytest.raises(TargetError, match="destabilizing direction"):
            validate_chamber(t)

    def test_tau_zero_fails(self):
        t = TargetSpace(1, 1, [[1]], [0.0])
        with pytest.raises(TargetError):
            validate_chamber(t)

    @pytest.mark.parametrize("w, tau, direction", [
        ([[1]], [-1.0], [1]), ([[1]], [0.0], [1]), ([[-1]], [1.0], [-1]),
        ([[0, 0]], [1.0], [-1]), ([[1, 0], [0, 1]], [1.0, -1.0], [0, 1]),
        ([[1, 2], [2, 4]], [1.0, 2.0], [-2, 1]),
    ])
    def test_refusal_names_the_direction(self, w, tau, direction):
        t = TargetSpace(len(w[0]), len(w), w, tau)
        with pytest.raises(TargetError, match=re.escape(
                f"tau outside the feasible cone; destabilizing direction {direction}")):
            validate_chamber(t)

    def test_every_refused_chamber_names_a_destabilizer(self):
        refused = 0
        for t, oracle in hm_sweep():
            if oracle:
                continue
            with pytest.raises(TargetError, match="destabilizing direction") as err:
                validate_chamber(t)
            lam = np.array(json.loads(str(err.value).rpartition("direction ")[2]))
            assert lam.dtype == int and lam.any()
            assert np.all(t.weights.T @ lam >= 0) and t.tau @ lam <= 0
            refused += 1
        assert refused > 0


class TestExactChamber:
    def test_agrees_with_the_exact_oracle_on_every_small_target(self):
        disagree, walls = [], collections.Counter()
        for t, stable in hm_sweep():
            expected = "cone" if not stable else "wall" if wall_oracle(t) else "ok"
            try:
                validate_chamber(t)
                got = "ok"
            except TargetError as err:
                got = "wall" if str(err).startswith("tau on a wall") else "cone"
                if got == "wall":
                    lam = np.array(json.loads(str(err).rpartition("direction ")[2]))
                    assert lam.any() and t.tau @ lam == 0
            if got != expected:
                disagree.append((t.weights.tolist(), t.tau.tolist(), expected, got))
            walls[t.k, bool(t.tau.any())] += got == "wall"
        assert disagree == []
        assert walls == {(1, False): 14, (1, True): 0, (2, False): 48, (2, True): 594}

    def test_decimal_tau(self):
        # 0.1 * 3 != 0.3 in floats: tau . (-3, 1) is a few ulps, not 0
        t = TargetSpace(3, 2, [[1, 1, 0], [3, 0, 1]], [0.1, 0.3])
        with pytest.raises(TargetError, match=re.escape(
                "tau on a wall; stabilizer direction [-3, 1]")):
            validate_chamber(t)
        assert validate_chamber(TargetSpace(2, 2, np.eye(2, dtype=int), [1.0, 1e-12]))

    def test_one_retraction_of_the_all_ones_point(self, monkeypatch):
        rows, real = [], target.kempf_ness_shifts
        monkeypatch.setattr(target, "kempf_ness_shifts",
                            lambda t, V: rows.append(np.asarray(V).tolist()) or real(t, V))
        monkeypatch.setattr(np.random, "default_rng", None)  # no sampling either
        for t in (T_STD, T_W12, dataclasses.replace(T_K2, tau=[1.0, 2.0])):
            rows.clear()
            assert validate_chamber(t)
            assert rows == [[[1.0] * t.n]]


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(TargetError):
            TargetSpace(2, 1, [[1]], [1.0])
        with pytest.raises(TargetError):
            TargetSpace(1, 1, [[0.5]], [1.0])


class TestTauFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, bad):
        with pytest.raises(TargetError, match="tau must be finite"):
            TargetSpace(1, 1, [[1]], [bad])


class TestLargeTau:
    # the convergence test is relative to |tau|: an absolute 1e-12 is below
    # the float resolution of Phi once |tau| >= 1e4
    @pytest.mark.parametrize("tau", [1e4, 1e12, 1e14, 3e14, 1e15])
    def test_large_tau_validates_and_retracts(self, tau):
        for w in ([[1]], [[1, 2]]):
            t = TargetSpace(len(w[0]), 1, w, [tau])
            assert validate_chamber(t)
            V = np.array([[0.3 + 0.1j] * t.n, [2.0 - 1.0j] * t.n])
            S, _ = kempf_ness_shifts(t, V)
            for v, s in zip(V, S):
                on_level = np.exp(t.weights.T @ s) * v
                assert np.linalg.norm(moment_map(t, on_level)) <= 1e-12 * tau

    # past |tau| ~ 1e154 the norm of Phi itself overflows, so the
    # convergence test divides by |tau| first, and so does this check
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [1e200, 1e300])
    def test_huge_tau_validates_and_retracts_weight_one(self, tau):
        t = TargetSpace(1, 1, [[1]], [tau])
        assert validate_chamber(t)
        V = np.array([[0.3 + 0.1j], [2.0 - 1.0j]])
        S, _ = kempf_ness_shifts(t, V)
        for v, s in zip(V, S):
            on_level = np.exp(t.weights.T @ s) * v
            assert np.linalg.norm(moment_map(t, on_level) / tau) <= 1e-12

    # the squared modulus of a coordinate overflows before any shift is
    # tried: the point's size is named, not tau's
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("modulus", [1e200, 1e308])
    def test_oversized_point_is_named(self, modulus):
        t = TargetSpace(2, 1, [[1, 1]], [1.0])
        with pytest.raises(TargetError, match=re.escape(f"a point of modulus {modulus:.3g} overflows")):
            kempf_ness_shifts(t, np.array([[0.5, 0.5], [modulus, 0.0]]))

    # validate_chamber retracts the all-ones point, which reaches 1e307 but
    # not 1e308; the row 0.1 does not reach 1e307
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [1e307, 1e308])
    def test_unreachable_tau_is_named(self, tau):
        t = TargetSpace(1, 1, [[1]], [tau])
        with pytest.raises(TargetError, match=r"\|tau\| = 1e\+(307|308)\b.*too large"):
            if tau == 1e308:
                validate_chamber(t)
            else:
                kempf_ness_shifts(t, np.array([[0.1]]))
