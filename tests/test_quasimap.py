import math
import warnings

import numpy as np
import pytest

from vortexlab.fields import (
    d_r,
    dbar_residual,
    holonomy,
    vortex_residual,
    winding_number,
)
from vortexlab import quasimap
from vortexlab.modgraph import ModularGraph
from vortexlab.quasimap import (
    QuasimapData,
    QuasimapError,
    build_seed,
    correspondence,
    is_stable_quasimap,
)
from vortexlab.solver import SolveConfig
from vortexlab.surface import ComponentMesh, End, SurfaceError, glue, single_cylinder
from vortexlab.target import (
    TargetSpace,
    fingerprint_distance,
    kempf_ness,
    kempf_ness_shifts,
)

T1 = TargetSpace(1, 1, [[1]], [1.0])
TP1 = TargetSpace(2, 1, [[1, 1]], [1.0])
G1 = ModularGraph({0: 0}, (), ((1, 0), (2, 0)))


def cylinder(n_r=201, n_theta=32, h_r=0.2):
    return single_cylinder(n_r, n_theta, h_r, r_min=-(n_r - 1) * h_r / 2,
                           graph=G1, vertex=0)


def broken_pair(target, zeros_u=(), zeros_v=(), asympt=None, n_theta=32):
    g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
    mk = lambda rmin, l, r: ComponentMesh(101, n_theta, 0.1, rmin, l, r)
    comps = {
        "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
        "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
    }
    surf = glue(comps, g, {0: 0}, sleeve_width=4.0, break_radius=8.0)
    zeros = {}
    if zeros_u:
        zeros["u"] = zeros_u
    if zeros_v:
        zeros["v"] = zeros_v
    q = QuasimapData(g, target, zeros, asymptotics=asympt or {})
    return q, surf


class TestStability:
    def test_degree_zero_equal_ends_unstable(self):
        q = QuasimapData(G1, T1, {})
        assert not is_stable_quasimap(q)

    def test_marked_cylinder_pinned_by_its_mesh(self):
        # constant data on a cylinder between two markings: unstable as
        # combinatorial data, stable once the mesh pins the translation
        q = QuasimapData(G1, T1, {})
        assert is_stable_quasimap(q, cylinder())

    def test_degree_one_stable(self):
        q = QuasimapData(G1, T1, {0: ((0.0j,),)})
        assert is_stable_quasimap(q)

    def test_distinct_asymptotics_stable(self):
        q = QuasimapData(
            G1, TP1, {},
            asymptotics={("leg", 1): [1.0, 0.2], ("leg", 2): [1.0, 5.0]},
        )
        assert is_stable_quasimap(q)

    def test_zero_at_marking_coordinate_unstable(self):
        surf = cylinder()
        mesh = surf.components[0]
        q = QuasimapData(G1, T1, {0: ((complex(mesh.r_min),),)})
        assert not is_stable_quasimap(q, surf)

    def test_degree_cap(self):
        q = QuasimapData(G1, T1, {0: (tuple(0.1j * k for k in range(5)),)})
        with pytest.raises(QuasimapError, match="cap"):
            is_stable_quasimap(q)


class TestBuildSeed:
    def test_degree_zero_constant_on_zero_level(self):
        surf = cylinder()
        q = QuasimapData(G1, TP1, {}, asymptotics={("leg", 1): [1, 1], ("leg", 2): [1, 1]})
        seed = build_seed(q, surf, 0)
        assert np.max(np.abs(vortex_residual(seed)[1:-1])) < 1e-10
        assert np.max(np.abs(dbar_residual(seed))) < 1e-12

    def test_degree_one_winding_matches_twist(self):
        surf = cylinder()
        q = QuasimapData(G1, T1, {0: ((0.3 + 0.2j,),)})
        seed = build_seed(q, surf, 0)
        assert seed.lam_left[0] == 1 and seed.lam_right[0] == 0
        p = seed.piece
        # winding of u on far rings equals -(w lambda) in the global frame
        assert winding_number(seed, 2, 0) == -1
        assert winding_number(seed, p.n_r - 3, 0) == 0
        lift, _ = holonomy(seed, p.r[2])
        assert lift[0] == pytest.approx(1.0, abs=1e-6)

    def test_dbar_second_order_refinement(self):
        errs = []
        for n_r, n_theta in [(101, 16), (201, 32)]:
            surf = single_cylinder(n_r, n_theta, 20.0 / (n_r - 1), r_min=-10.0,
                                   graph=G1, vertex=0)
            q = QuasimapData(G1, T1, {0: ((0.1 + 0.25j,),)})
            seed = build_seed(q, surf, 0)
            errs.append(np.max(np.abs(dbar_residual(seed))))
        assert np.log2(errs[0] / errs[1]) > 1.5

    def test_unstable_ring_is_named(self, monkeypatch):
        # a twist integral that sends rings 5 and 9 below the float range
        # leaves those rings with vanishing moduli
        real_ramp = quasimap._twist_ramp

        def sinking(*args):
            profile, integral = real_ramp(*args)
            integral[[5, 9]] = -1e4
            return profile, integral

        monkeypatch.setattr(quasimap, "_twist_ramp", sinking)
        q = QuasimapData(G1, T1, {}, asymptotics={("leg", 1): [1], ("leg", 2): [1]})
        with pytest.raises(QuasimapError, match="ring 5 is not semistable"):
            build_seed(q, cylinder(), 0)

    def test_zero_outside_mesh_rejected(self):
        surf = cylinder()
        q = QuasimapData(G1, T1, {0: ((100.0 + 0j,),)})
        with pytest.raises(QuasimapError, match="outside"):
            build_seed(q, surf, 0)

    def test_boundary_rings_on_zero_level(self):
        surf = cylinder()
        q = QuasimapData(G1, T1, {0: ((0.0j,),)})
        seed = build_seed(q, surf, 0)
        from vortexlab.fields import moment_map_field

        phi = moment_map_field(seed)
        assert np.max(np.abs(phi[0].mean(axis=0))) < 1e-9
        assert np.max(np.abs(phi[-1].mean(axis=0))) < 1e-9


def _complex_log_seed(q, surface, piece_index=0):
    """(u, a_theta) of build_seed with its section assembled in complex
    arithmetic, one complex log per elementary factor: the reference the
    real-arithmetic assembly must reproduce."""
    piece = surface.pieces[piece_index]
    t = q.target
    zeros = quasimap._piece_zeros_global(q, surface, piece_index)
    lam_left = quasimap._left_twist(t, [len(z) for z in zeros])
    x_right = kempf_ness(t, q.asymptotic(piece.right)).point
    dead = np.array([abs(x) == 0.0 for x in x_right])
    w = t.weights.astype(float)
    z = piece.r[:, None] + 1j * piece.h_theta * np.arange(piece.n_theta)[None, :]
    log_u = np.zeros((piece.n_r, piece.n_theta, t.n), dtype=complex)
    with np.errstate(divide="ignore"):
        for j in range(t.n):
            tail = complex(0)
            for zm in zeros[j]:
                log_u[:, :, j] += np.log(np.exp(-z) - np.exp(-complex(zm)))
                tail += np.log(-np.exp(-complex(zm)))
            if not dead[j]:
                log_u[:, :, j] += np.log(x_right[j]) - tail
    profile, integral = quasimap._twist_ramp(piece, lam_left, np.zeros(t.k), zeros)
    log_u += np.einsum("aj,xa->xj", w, integral)[:, None, :]
    vals = np.where(dead[None, None, :], 0.0, np.exp(log_u.real))
    s_prof = -kempf_ness_shifts(t, np.sqrt(np.mean(vals**2, axis=1)))[0]
    log_u -= np.einsum("aj,xa->xj", w, s_prof)[:, None, :]
    u = np.where(dead[None, None, :], 0.0, np.exp(log_u))
    return u, -d_r(s_prof, piece.h_r) + profile


def _glued_pair(zeros_u):
    g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
    mk = lambda rmin, l, r: ComponentMesh(101, 32, 0.1, rmin, l, r)
    comps = {
        "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
        "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
    }
    surf = glue(comps, g, {0: math.exp(-40.0)}, sleeve_width=8.0)
    return QuasimapData(g, T1, {"u": zeros_u}), surf


class TestSeedMatchesComplexLog:
    """build_seed splits each factor's log into log|.| and arg and forms u
    from the real exponential and cos + i sin; it must give the complex-log
    seed to 1e-13 relative (sup norm)."""

    @staticmethod
    def _check(q, surf):
        seed = build_seed(q, surf, 0)
        u, a_theta = _complex_log_seed(q, surf, 0)
        assert np.all(np.isfinite(seed.u)) and np.all(np.isfinite(seed.a_theta))
        assert np.max(np.abs(seed.u - u)) <= 1e-13 * np.max(np.abs(u))
        a_ref = np.broadcast_to(a_theta[:, None, :], seed.a_theta.shape)
        assert np.max(np.abs(seed.a_theta - a_ref)) <= 1e-13 * np.max(np.abs(a_ref))
        return seed

    def test_degree_one_cylinder(self):
        surf = single_cylinder(400, 64, 40.0 / 399, r_min=-20.0, graph=G1, vertex=0)
        self._check(QuasimapData(G1, T1, {0: ((0.05 + 0.1j,),)}), surf)

    def test_degree_two_cylinder(self):
        q = QuasimapData(G1, T1, {0: ((-2.0 + 0.4j, 1.5 + 3.0j),)})
        seed = self._check(q, cylinder())
        assert seed.lam_left[0] == 2

    def test_glued_pair(self):
        self._check(*_glued_pair(((-5.0 + 0.3j,),)))

    def test_zero_on_a_site(self):
        surf = cylinder()
        i = 120
        q = QuasimapData(G1, T1, {0: ((complex(surf.pieces[0].r[i]),),)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = self._check(q, surf)
        assert seed.u[i, 0, 0] == 0.0
        assert np.count_nonzero(seed.u == 0.0) == 1


class TestCorrespondence:
    def test_constant_quasimap(self):
        surf = cylinder(n_r=101, n_theta=16, h_r=0.2)
        q = QuasimapData(
            G1, TP1, {},
            asymptotics={("leg", 1): [1.0, 0.5], ("leg", 2): [1.0, 0.5 + 1e-9]},
        )
        fam = correspondence(q, surf)
        assert fam.total_energy < 1e-12
        expected = kempf_ness(TP1, np.array([1.0, 0.5])).fingerprint
        assert fingerprint_distance(fam.evaluations[1], expected) < 1e-8

    def test_degree_one_energy(self):
        surf = cylinder()
        q = QuasimapData(G1, T1, {0: ((0.05 + 0.1j,),)})
        fam = correspondence(q, surf)
        pairing = 4 * math.pi
        assert abs(fam.total_energy - pairing) / pairing < 0.02

    def test_broken_node_connectedness(self):
        # both sides carry a coordinate-1 zero, so both node-side limits sit
        # on the [1:0] orbit; the node data declares the same orbit
        q, surf = broken_pair(TP1, zeros_u=((-5.0 + 0.1j,),),
                              zeros_v=((5.0 + 0.2j,),),
                              asympt={("node", 0): [1.0, 0.0]})
        fam = correspondence(q, surf)
        assert len(fam.connect_gaps) == 1
        assert fam.connect_gaps[0] <= fam.tol_connect

    def test_mismatched_node_data_raises(self):
        # the u side is told to approach [1:1] at the node while the v side's
        # zero forces its node limit onto [1:0]
        q, surf = broken_pair(TP1, zeros_u=((-5.0 + 0.1j,),),
                              zeros_v=((5.0 + 0.2j,),),
                              asympt={("node", 0): [1.0, 1.0]})
        with pytest.raises(QuasimapError, match="connectedness"):
            correspondence(q, surf)

    def test_energies_additive_over_pieces(self):
        q, surf = broken_pair(T1, zeros_u=((-5.0 + 0.1j,),),
                              zeros_v=((5.0 + 0.2j,),))
        fam = correspondence(q, surf)
        assert fam.total_energy == pytest.approx(
            sum(r.final_energy for r in fam.reports.values()))
        pairing = 2 * 4 * math.pi  # one unit of degree per piece
        assert abs(fam.total_energy - pairing) / pairing < 0.03

    def test_global_group_rescale_fixes_nothing(self):
        # complex-gauge equivalent data produce the same vortex fingerprints
        surf = cylinder(n_r=151, n_theta=16, h_r=0.2)
        base = {("leg", 1): [1.0, 0.7], ("leg", 2): [1.0, 0.7]}
        scaled = {k: [3.0 * v[0], 3.0 * v[1]] for k, v in base.items()}
        fam0 = correspondence(QuasimapData(G1, TP1, {}, asymptotics=base), surf)
        fam1 = correspondence(QuasimapData(G1, TP1, {}, asymptotics=scaled), surf)
        for leg in (1, 2):
            assert fingerprint_distance(fam0.evaluations[leg],
                                        fam1.evaluations[leg]) < 1e-7

    def test_marking_permutation_permutes_evaluations(self):
        # a degree-one seed has distinct end orbits; relabeling the legs
        # permutes the evaluation fingerprints identically
        g_swapped = ModularGraph({0: 0}, (), ((2, 0), (1, 0)))
        surf0 = cylinder(n_r=151, n_theta=16, h_r=0.2)
        surf1 = single_cylinder(151, 16, 0.2, r_min=-15.0, graph=g_swapped, vertex=0)
        zeros = {0: ((0.2 + 0.3j,),)}
        fam0 = correspondence(QuasimapData(G1, TP1, zeros), surf0)
        fam1 = correspondence(QuasimapData(g_swapped, TP1, zeros), surf1)
        # marking 1 anchors the left end of surf0 but the right end of surf1
        assert fingerprint_distance(fam0.evaluations[1], fam0.evaluations[2]) > 0.1
        assert fingerprint_distance(fam0.evaluations[1], fam1.evaluations[2]) < 1e-6
        assert fingerprint_distance(fam0.evaluations[2], fam1.evaluations[1]) < 1e-6

    def test_base_point_locality(self):
        surf = cylinder()
        z0 = 0.3 + 0.5j
        q = QuasimapData(G1, T1, {0: ((z0,),)})
        fam = correspondence(q, surf)
        f = fam.fields[0]
        p = f.piece
        mags = np.abs(f.u[:, :, 0])
        i0, j0 = np.unravel_index(np.argmin(mags), mags.shape)
        zi = p.ring_of(z0.real)
        zj = int(round(z0.imag / p.h_theta)) % p.n_theta
        assert abs(i0 - zi) <= 2
        assert min(abs(j0 - zj), p.n_theta - abs(j0 - zj)) <= 2

    def test_unstable_data_rejected(self):
        # a node-anchored constant component is never a stable quasimap
        q, surf = broken_pair(T1)
        with pytest.raises(QuasimapError, match="stable"):
            correspondence(q, surf)

    def test_dangling_chain_ends(self):
        # u-v glued, v's right socket toward the unmeshed vertex x: no kept
        # node between meshed components, so no gap, and marking 2 sits on x
        g = ModularGraph({"u": 0, "v": 0, "x": 0}, (("u", "v"), ("v", "x")),
                         ((1, "u"), (2, "x")))
        comps = {
            "u": ComponentMesh(33, 16, 0.25, -8.0, End("truncation", ("leg", 1)),
                               End("socket", edge=0)),
            "v": ComponentMesh(33, 16, 0.25, 0.0, End("socket", edge=0),
                               End("socket", edge=1)),
        }
        surf = glue(comps, g, {0: math.exp(-10.0)}, sleeve_width=4.0, break_radius=2.0)
        assert surf.broken_edges == []
        fam = correspondence(QuasimapData(g, T1, {"v": ((6.0 + 0.1j,),)}), surf)
        assert fam.connect_gaps == {}
        assert list(fam.evaluations) == [1]

    def test_broken_edge_without_piece_ends(self):
        # both components keep their own markings at both ends, so the
        # broken edge between them would have no end on either piece: glue
        # refuses it, before anything is seeded or solved
        g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),),
                         ((1, "u"), (2, "u"), (3, "v"), (4, "v")))
        mk = lambda rmin, a, b: ComponentMesh(41, 16, 0.25, rmin,
                                              End("truncation", ("leg", a)),
                                              End("truncation", ("leg", b)))
        with pytest.raises(SurfaceError, match="broken edge 0 needs one socket on it at each"):
            glue({"u": mk(-5.0, 1, 2), "v": mk(0.0, 3, 4)}, g, {0: 0},
                 sleeve_width=4.0, break_radius=8.0)


class TestEvaluationResolution:
    def test_limit_orbits_agree_across_resolutions(self):
        # two discretizations of the same data: evaluation fingerprints agree
        # within the committed O(h^2) + O(e^{-gamma R}) error
        fams = []
        for n_r, n_theta, h in ((151, 16, 0.2), (301, 32, 0.1)):
            surf = single_cylinder(n_r, n_theta, h, r_min=-(n_r - 1) * h / 2,
                                   graph=G1, vertex=0)
            q = QuasimapData(G1, TP1, {0: ((0.2 + 0.3j,), (1.0 + 1.1j,))})
            fams.append(correspondence(q, surf))
        for leg in (1, 2):
            d = fingerprint_distance(fams[0].evaluations[leg],
                                     fams[1].evaluations[leg])
            assert d < 10 * (0.2**2)


class TestTwistedGluing:
    def test_twist_equals_rotated_data(self):
        # gluing with twist t and a v-local zero at angle b is the same
        # global problem as an untwisted gluing with the zero at b + t
        import cmath
        import math

        n_theta = 16
        t = math.pi / 2  # 4 angular steps
        g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
        mk = lambda rmin, l, r: ComponentMesh(41, n_theta, 0.25, rmin, l, r)

        def build(twist, v_angle):
            comps = {
                "u": mk(-8.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
                "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
            }
            surf = glue(comps, g, {0: cmath.exp(complex(-10.0, -twist))},
                        sleeve_width=4.0)
            q = QuasimapData(g, T1, {"u": ((-4.0 + 0.3j,),),
                                     "v": ((complex(4.0, v_angle),),)})
            return correspondence(q, surf)

        fam_twisted = build(t, 0.5)
        fam_rotated = build(0.0, 0.5 + t)
        e1 = fam_twisted.total_energy
        e2 = fam_rotated.total_energy
        assert e1 == pytest.approx(e2, rel=1e-12)
        pairing = 2 * 4 * math.pi
        assert abs(e1 - pairing) / pairing < 0.05
        for leg in (1, 2):
            d = fingerprint_distance(fam_twisted.evaluations[leg],
                                     fam_rotated.evaluations[leg])
            assert d < 1e-10
