import cmath
import math

import numpy as np
import pytest

from vortexlab.modgraph import ModularGraph
from vortexlab.surface import (
    ComponentMesh,
    End,
    SurfaceError,
    core_sleeve,
    cutoff_profile,
    glue,
    neck_parameters,
    single_cylinder,
)


def two_component_setup(n_theta=16, h_r=0.1):
    graph = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
    A = ComponentMesh(101, n_theta, h_r, -10.0,
                      End("truncation", ("leg", 1)), End("socket", edge=0))
    B = ComponentMesh(101, n_theta, h_r, 0.0,
                      End("socket", edge=0), End("truncation", ("leg", 2)))
    return graph, {"u": A, "v": B}


class TestBuildComponent:
    def test_extent(self):
        m = ComponentMesh(100, 32, 0.1, 0.0, End("truncation", ("leg", 1)),
                          End("truncation", ("leg", 2)))
        assert m.r_max == pytest.approx(9.9)
        assert m.h_theta == pytest.approx(2 * math.pi / 32)

    def test_below_minimum_resolution(self):
        with pytest.raises(SurfaceError):
            ComponentMesh(100, 4, 0.1, 0.0, End("truncation"), End("truncation"))

    def test_full_cylinder_two_truncations(self):
        surf = single_cylinder(81, 16, 0.25, r_min=-10.0)
        (piece,) = surf.pieces
        assert piece.left.anchor[0] == "leg" and piece.right.anchor[0] == "leg"
        assert piece.r[0] == pytest.approx(-10.0)
        assert piece.r[-1] == pytest.approx(10.0)


class TestNeckParameters:
    def test_real_delta(self):
        L, t = neck_parameters(math.exp(-10.0))
        assert L == pytest.approx(10.0)
        assert t == pytest.approx(0.0)

    def test_twisted_delta(self):
        L, t = neck_parameters(cmath.exp(-10.0 + 1j * math.pi))
        assert L == pytest.approx(10.0)
        assert t == pytest.approx(math.pi)


class TestGlue:
    def test_plain_gluing_geometry(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)
        (piece,) = surf.pieces
        (neck,) = piece.necks
        assert (neck.i_minus - neck.i_plus) * piece.h_r == pytest.approx(10.0)
        assert neck.roll == 0
        # geodesic distance between the former socket rings equals L
        assert piece.n_r == 101 + 99 + 101

    def test_twisted_site_identification_oracle(self):
        # push sample sites through the neck identification:
        # (rho_+, theta) on the + side lands at (rho_+ - L, theta - t) in the
        # minus component's own coordinates
        graph, comps = two_component_setup(n_theta=16)
        delta = cmath.exp(-10.0 + 1j * math.pi)
        surf = glue(comps, graph, {0: delta}, sleeve_width=4.0)
        (piece,) = surf.pieces
        (neck,) = piece.necks
        assert neck.twist == pytest.approx(math.pi)
        L = neck.length
        for rho, j in [(10.0, 0), (10.0, 5), (10.0, 11)]:
            theta = j * piece.h_theta
            z_minus = (rho - L) + 1j * (theta - math.pi)
            z_glob = piece.local_z_to_global("v", z_minus)
            assert z_glob.real == pytest.approx(piece.r0 + (neck.i_plus + rho / piece.h_r) * piece.h_r)
            assert z_glob.imag == pytest.approx(theta % (2 * math.pi), abs=1e-12)

    def test_roll_bookkeeping(self):
        graph, comps = two_component_setup(n_theta=16)
        surf = glue(comps, graph, {0: cmath.exp(-10.0 + 1j * math.pi)}, sleeve_width=4.0)
        (piece,) = surf.pieces
        strip = piece.strip_for("v")
        ring, col = strip.i0, strip.shift % piece.n_theta  # v's local site (0, 0)
        assert ring == piece.necks[0].i_minus
        assert col == 8  # pi twist = half of 16 angular sites

    def test_broken_surface_marker(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: 0}, sleeve_width=4.0, break_radius=5.0)
        assert surf.broken_edges == [0]
        assert len(surf.pieces) == 2
        pu, pv = (next(p for p in surf.pieces if any(s.vertex == v for s in p.strips))
                  for v in ("u", "v"))
        assert pu.right.anchor == ("node", 0, "+")
        assert pv.left.anchor == ("node", 0, "-")
        # truncated extension of 5.0 at the broken socket
        assert pu.n_r == 101 + 50
        assert pv.r[0] == pytest.approx(-5.0)

    def test_neck_too_short(self):
        graph, comps = two_component_setup()
        with pytest.raises(SurfaceError, match="sleeve"):
            glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=6.0)

    def test_incompatible_twist(self):
        graph, comps = two_component_setup(n_theta=16)
        with pytest.raises(SurfaceError, match="twist"):
            glue(comps, graph, {0: cmath.exp(-10.0 + 0.1j)}, sleeve_width=4.0)

    def test_incompatible_length(self):
        graph, comps = two_component_setup()
        with pytest.raises(SurfaceError, match="multiple"):
            glue(comps, graph, {0: math.exp(-10.05)}, sleeve_width=4.0)

    def test_area_additivity(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)
        (piece,) = surf.pieces
        comp_area = sum((m.n_r - 1) * m.h_r * 2 * math.pi for m in comps.values())
        neck_area = 10.0 * 2 * math.pi
        assert piece.area == pytest.approx(comp_area + neck_area, rel=1e-12)

    def test_misoriented_chain_rejected(self):
        graph = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
        A = ComponentMesh(101, 16, 0.1, -10.0,
                          End("truncation", ("leg", 1)), End("socket", edge=0))
        B = ComponentMesh(101, 16, 0.1, 0.0,
                          End("truncation", ("leg", 2)), End("socket", edge=0))
        with pytest.raises(SurfaceError, match="orient"):
            glue({"u": A, "v": B}, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)


class TestCutoffProfile:
    def test_midpoint(self):
        phi = cutoff_profile(4.0)
        assert phi(0.0) == pytest.approx(0.5)

    def test_support_edges(self):
        phi = cutoff_profile(4.0)
        assert phi(2.0) == 1.0
        assert phi(-2.0) == 0.0
        assert phi(5.0) == 1.0

    def test_antisymmetry_identity(self):
        phi = cutoff_profile(3.0)
        xs = np.linspace(-1.5, 1.5, 100)
        assert np.allclose(phi(xs) + phi(-xs), 1.0, atol=1e-15)

    def test_invalid_width(self):
        with pytest.raises(SurfaceError):
            cutoff_profile(0.0)


def _core_mask(cs, piece_index):
    """Rings of a piece outside the open sleeve bands of its necks."""
    mask = np.ones(cs.surface.pieces[piece_index].n_r, dtype=bool)
    for nc in cs.necks:
        if nc.piece_index == piece_index:
            mask[nc.j_lo + 1 : nc.j_hi] = False
    return mask


class TestCoreSleeve:
    def test_sleeve_band_span(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)
        cs = core_sleeve(surf)
        (nc,) = cs.necks
        piece = surf.pieces[0]
        rho_lo = (nc.j_lo - piece.necks[0].i_plus) * piece.h_r
        rho_hi = (nc.j_hi - piece.necks[0].i_plus) * piece.h_r
        assert rho_lo == pytest.approx(3.0)
        assert rho_hi == pytest.approx(7.0)

    def test_single_component_core_only(self):
        surf = single_cylinder(81, 16, 0.25)
        cs = core_sleeve(surf)
        assert cs.necks == ()
        assert np.all(_core_mask(cs, 0))
        (cover,) = cs.covers
        assert (cover.a, cover.b) == (0, surf.pieces[0].n_r - 1)
        assert np.all(cover.phi == 1.0)

    def test_partition_of_unity_exact(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)
        cs = core_sleeve(surf)
        piece = surf.pieces[0]
        weights = np.zeros(piece.n_r)
        for cover in cs.covers:
            weights[cover.a : cover.b + 1] += cover.phi
        assert np.allclose(weights, 1.0, atol=1e-12)

    def test_cover_spans_every_site_once_or_twice(self):
        graph, comps = two_component_setup()
        surf = glue(comps, graph, {0: math.exp(-10.0)}, sleeve_width=4.0)
        cs = core_sleeve(surf)
        piece = surf.pieces[0]
        count = np.zeros(piece.n_r, dtype=int)
        for cover in cs.covers:
            count[cover.a : cover.b + 1] += 1
        (nc,) = cs.necks
        assert np.all(count >= 1)
        assert np.all(count[nc.j_lo : nc.j_hi + 1] == 2)
        core = _core_mask(cs, 0)
        assert np.all(count[core] == 1) or np.all(count[nc.j_lo + 1 : nc.j_hi] == 2)


class TestThreeComponentChain:
    def test_two_necks(self):
        graph = ModularGraph(
            {"a": 0, "b": 0, "c": 0},
            (("a", "b"), ("b", "c")),
            ((1, "a"), (2, "c")),
        )
        mk = lambda rmin, left, right: ComponentMesh(41, 16, 0.25, rmin, left, right)
        comps = {
            "a": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
            "b": mk(0.0, End("socket", edge=0), End("socket", edge=1)),
            "c": mk(0.0, End("socket", edge=1), End("truncation", ("leg", 2))),
        }
        surf = glue(comps, graph, {0: math.exp(-10.0), 1: math.exp(-15.0)},
                    sleeve_width=4.0)
        (piece,) = surf.pieces
        assert len(piece.necks) == 2
        assert piece.necks[1].length == pytest.approx(15.0)
        cs = core_sleeve(surf)
        weights = np.zeros(piece.n_r)
        for cover in cs.covers:
            weights[cover.a : cover.b + 1] += cover.phi
        assert np.allclose(weights, 1.0, atol=1e-12)


class TestUnmeshedNeighbor:
    def test_socket_toward_unmeshed_component_becomes_truncation(self):
        # the edge partner is represented combinatorially but not meshed:
        # the meshed side gets a node-anchored truncated end
        graph = ModularGraph({"u": 0, "x": 2}, (("u", "x"),), ((1, "u"),))
        A = ComponentMesh(41, 16, 0.25, -10.0,
                          End("truncation", ("leg", 1)), End("socket", edge=0))
        surf = glue({"u": A}, graph, {}, sleeve_width=4.0, break_radius=5.0)
        (piece,) = surf.pieces
        assert piece.right.anchor == ("node", 0, "+")
        assert piece.n_r == 41 + 20
