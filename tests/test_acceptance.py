"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

from vortexlab.experiments import (
    annulus_check,
    bubble_locator,
    decay_fit,
    energy_homology_check,
    neck_family,
    quantization_scan,
)
from vortexlab.fields import (
    apply_unitary_gauge,
    constant_field,
    energy,
    vortex_residual,
)
from vortexlab.modgraph import (
    ModularGraph,
    contract_edge,
    graph_from_json,
    stabilize,
    total_genus,
)
from vortexlab.quasimap import QuasimapData, build_seed, correspondence
from vortexlab.solver import (
    SolveConfig,
    cg_solve,
    gauge_step_jacobian_apply,
    gauge_update,
    newton_solve,
    operator_defect,
    patched_preconditioner,
)
from vortexlab.surface import ComponentMesh, End, glue, single_cylinder
from vortexlab.target import (
    TargetSpace,
    is_semistable,
    kempf_ness_shift,
    moment_map,
)
from graphgen import connected_multigraphs

T1 = TargetSpace(1, 1, [[1]], [1.0])
G1 = ModularGraph({0: 0}, (), ((1, 0), (2, 0)))


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def solve_standard(n_theta=64, n_r=400, zeros=((0.05 + 0.1j,),), tol=1e-8):
    surf = single_cylinder(n_r, n_theta, 40.0 / (n_r - 1), r_min=-20.0,
                           graph=G1, vertex=0)
    q = QuasimapData(G1, T1, {0: zeros})
    seed = build_seed(q, surf, 0)
    t0 = time.perf_counter()
    field, xi, rep = newton_solve(seed, SolveConfig(newton_tol=tol))
    wall = time.perf_counter() - t0
    return seed, field, rep, wall


@pytest.fixture(scope="module")
def standard_vortex():
    return solve_standard()


@pytest.fixture(scope="module")
def standard_vortex_fine():
    return solve_standard(n_theta=128)


class TestAcceptance:
    def test_01_vortex_solve(self, standard_vortex):
        _, _, rep, wall = standard_vortex
        ok = (rep.residual_sup[-1] <= 1e-8 and rep.newton_iterations <= 12
              and wall <= 60.0)
        report(1, ok, f"sup residual {rep.residual_sup[-1]:.2e} in "
                      f"{rep.newton_iterations} Newton iterations, {wall:.2f} s")

    def test_02_gauge_invariance(self, standard_vortex):
        _, field, _, _ = standard_vortex
        e0 = energy(field).total
        n0 = np.abs(vortex_residual(field))
        rng = np.random.default_rng(20)
        worst_e, worst_r = 0.0, 0.0
        for _ in range(20):
            phi = rng.uniform(0.0, 2.0 * math.pi, size=1)
            gauged = apply_unitary_gauge(field, phi)
            worst_e = max(worst_e, abs(energy(gauged).total - e0) / e0)
            worst_r = max(worst_r,
                          float(np.max(np.abs(np.abs(vortex_residual(gauged)) - n0))))
        ok = worst_e <= 1e-10 and worst_r <= 1e-10
        report(2, ok, f"20 unitary transforms: energy change {worst_e:.2e}, "
                      f"residual-norm change {worst_r:.2e}")

    def test_03_linearization(self, standard_vortex):
        seed, _, _, _ = standard_vortex
        p = seed.piece
        rng = np.random.default_rng(3)
        slopes = []
        res0 = vortex_residual(seed)
        for _ in range(5):
            xi = rng.normal(size=(p.n_r, p.n_theta, 1))
            xi[0] = xi[-1] = 0.0
            lin = gauge_step_jacobian_apply(seed, xi)
            eps_list = (1e-2, 1e-3, 1e-4, 1e-5)
            errs = []
            for eps in eps_list:
                fd = (vortex_residual(gauge_update(seed, eps * xi)) - res0) / eps
                errs.append(np.linalg.norm((fd - lin)[1:-1]))
            slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
        ok = all(0.8 <= s <= 1.2 for s in slopes)
        report(3, ok, "finite-difference slopes " +
               ", ".join(f"{s:.3f}" for s in slopes))

    def test_04_decay(self, standard_vortex, standard_vortex_fine):
        _, f64, _, _ = standard_vortex
        _, f128, _, _ = standard_vortex_fine
        fit64 = decay_fit(f64, "right", (5.0, 15.0))
        fit128 = decay_fit(f128, "right", (5.0, 15.0))
        drift = abs(fit64.gamma_hat - fit128.gamma_hat) / fit128.gamma_hat
        ok = (fit64.gamma_hat > 0 and fit64.r_squared >= 0.99 and drift <= 0.10)
        report(4, ok, f"gamma 64: {fit64.gamma_hat:.4f} (R2 {fit64.r_squared:.4f}), "
                      f"gamma 128: {fit128.gamma_hat:.4f}, drift {drift:.2%}")

    def test_05_energy_homology(self, standard_vortex, standard_vortex_fine):
        _, f1c, rep1c, _ = standard_vortex
        _, f1f, rep1f, _ = standard_vortex_fine
        zeros2 = ((-1.5 + 0.3j, 1.5 + 1.9j),)
        _, _, rep2c, _ = solve_standard(zeros=zeros2)
        _, _, rep2f, _ = solve_standard(n_theta=128, zeros=zeros2)
        gaps = {}
        for d, (coarse, fine) in ((1, (rep1c, rep1f)), (2, (rep2c, rep2f))):
            gc = energy_homology_check(coarse.final_energy, d, T1)["relative_gap"]
            gf = energy_homology_check(fine.final_energy, d, T1)["relative_gap"]
            gaps[d] = (gc, gf)
        ok = all(gc <= 0.02 and gf < gc for gc, gf in gaps.values())
        report(5, ok, "relative gaps (coarse -> refined): " + ", ".join(
            f"d={d}: {gc:.3%} -> {gf:.3%}" for d, (gc, gf) in gaps.items()))

    def test_06_annulus(self):
        surf = single_cylinder(201, 32, 0.15, r_min=0.0, graph=G1, vertex=0)
        f = constant_field(surf, 0, T1, [math.sqrt(2.0)])
        p = f.piece
        z = p.r[:, None] + 1j * p.h_theta * np.arange(p.n_theta)[None, :]
        f = f.with_fields(u=f.u * (1 + 0.05 * np.exp(-(z - p.r[0])))[:, :, None])
        solved, _, _ = newton_solve(f, SolveConfig())
        out = annulus_check(solved, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0])
        ok = out["monotone"] and out["r_squared"] >= 0.95 and out["delta_hat"] > 0
        report(6, ok, f"middle energy monotone={out['monotone']}, "
                      f"log-linear R2 {out['r_squared']:.4f}, "
                      f"rate {out['delta_hat']:.3f}")

    def test_07_quantization(self):
        surf = single_cylinder(151, 24, 0.25, r_min=-18.75, graph=G1, vertex=0)
        rng = np.random.default_rng(7)
        seeds = []
        for _ in range(10):
            v = rng.normal(size=1) + 1j * rng.normal(size=1)
            s, _ = kempf_ness_shift(T1, v)
            seeds.append(constant_field(surf, 0, T1, np.exp(s) * v))
        offsets = np.linspace(-3.0, 3.0, 10)
        for i, off in enumerate(offsets):
            q = QuasimapData(G1, T1, {0: ((complex(off, 0.31 * i),),)})
            seeds.append(build_seed(q, surf, 0))
        scan = quantization_scan(seeds)
        ok = scan["band_empty"] and scan["n_constant"] == 10
        report(7, ok, f"20 seeds: gap {scan['gap']:.4f}, band "
                      f"({scan['band'][0]:.0e}, {scan['band'][1]:.3f}) empty: "
                      f"{scan['band_empty']}")

    def _neck_setup(self, zero_in_neck):
        g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
        mk = lambda rmin, l, r: ComponentMesh(41, 32, 0.2, rmin, l, r)
        template = glue({  # the one neck that neck_family stretches
            "u": mk(-8.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
            "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
        }, g, {0: math.exp(-10.0)}, sleeve_width=4.0)

        def qdata(L):
            if zero_in_neck:
                return QuasimapData(g, T1, {"u": ((complex(L / 2, 0.1),),)})
            return QuasimapData(g, T1, {"u": ((-4.0 + 0.1j,),)})

        return template, qdata

    def test_08_neck_family(self):
        template, qdata = self._neck_setup(zero_in_neck=False)
        flat = neck_family(template, qdata, [10.0, 20.0, 40.0])
        mids = []
        for L in (10.0, 20.0, 40.0):
            prof = flat["profiles"][L]
            sel = np.abs(prof.rho - L / 2) <= 1.0
            mids.append(float(prof.ring_energy[sel].sum() * prof.h_r))
        decreasing = mids[0] > mids[1] > mids[2] and mids[2] < 1e-6

        template_b, qdata_b = self._neck_setup(zero_in_neck=True)
        bubble = neck_family(template_b, qdata_b, [20.0, 40.0])
        m20 = bubble["profiles"][20.0].m0
        m40 = bubble["profiles"][40.0].m0
        stable = abs(m20 - m40) / m40 <= 0.05

        prof = bubble["profiles"][40.0]
        cells = 17
        shifted = np.concatenate([np.zeros(cells), prof.ring_energy[:-cells]])
        from vortexlab.experiments import NeckProfile

        base = NeckProfile(prof.neck_length, prof.rho, prof.ring_energy,
                           prof.total_neck_energy, prof.total_energy,
                           m0=float(prof.ring_energy.sum() * prof.h_r),
                           tail_start=0.0, h_r=prof.h_r)
        moved = NeckProfile(prof.neck_length, prof.rho, shifted,
                            prof.total_neck_energy, prof.total_energy,
                            m0=float(shifted.sum() * prof.h_r),
                            tail_start=0.0, h_r=prof.h_r)
        delta = base.m0 / 2
        equivariant = (bubble_locator(moved, delta) - bubble_locator(base, delta)
                       == pytest.approx(cells * prof.h_r, abs=1e-12))
        ok = decreasing and stable and equivariant
        report(8, ok, f"middle energies {mids[0]:.2e} > {mids[1]:.2e} > "
                      f"{mids[2]:.2e}; m0 20/40: {m20:.4f}/{m40:.4f} "
                      f"({abs(m20-m40)/m40:.2%}); translation exact: {equivariant}")

    def test_09_connectedness(self):
        g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
        mk = lambda rmin, l, r: ComponentMesh(101, 32, 0.1, rmin, l, r)
        comps = {
            "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
            "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
        }
        surf = glue(comps, g, {0: 0}, sleeve_width=4.0, break_radius=10.0)
        TP1 = TargetSpace(2, 1, [[1, 1]], [1.0])
        q = QuasimapData(g, TP1, {"u": ((-5.0 + 0.1j,),), "v": ((5.0 + 0.2j,),)},
                         asymptotics={("node", 0): [1.0, 0.0]})
        fam = correspondence(q, surf)
        gap = fam.connect_gaps[0]
        ok = gap <= fam.tol_connect
        report(9, ok, f"fingerprint gap {gap:.3e} <= tol_connect "
                      f"{fam.tol_connect:.3e}")

    def test_10_preconditioner(self):
        g = ModularGraph({"u": 0, "v": 0}, (("u", "v"),), ((1, "u"), (2, "v")))
        mk = lambda rmin, l, r: ComponentMesh(101, 32, 0.1, rmin, l, r)
        comps = {
            "u": mk(-10.0, End("truncation", ("leg", 1)), End("socket", edge=0)),
            "v": mk(0.0, End("socket", edge=0), End("truncation", ("leg", 2))),
        }
        surf = glue(comps, g, {0: math.exp(-40.0)}, sleeve_width=8.0)
        q = QuasimapData(g, T1, {"u": ((-5.0 + 0.3j,),)})
        field, _, _ = newton_solve(build_seed(q, surf, 0), SolveConfig())
        pre = patched_preconditioner(field)
        defects = operator_defect(field, pre, n_probes=10, seed=10)
        p = field.piece
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=(p.n_r, p.n_theta, 1))
        rhs[0] = rhs[-1] = 0.0
        cfg = SolveConfig(cg_tol=1e-10)
        _, it_plain = cg_solve(field, rhs, cfg)
        _, it_pre = cg_solve(field, rhs, cfg, preconditioner=pre.apply_symmetric)
        ok = max(defects) < 0.5 and it_plain >= 2 * it_pre
        report(10, ok, f"CG iterations {it_plain} -> {it_pre} "
                       f"({it_plain / max(it_pre, 1):.1f}x); max probe defect "
                       f"{max(defects):.3f}")

    def test_11_modular_graphs(self):
        checked_genus = 0
        for g in connected_multigraphs(max_vertices=4, max_edges=5,
                                       genus_values=(0, 1)):
            tg = total_genus(g)
            for e in range(len(g.edges)):
                assert total_genus(contract_edge(g, e)) == tg
                checked_genus += 1
        checked_idem = 0
        for g in connected_multigraphs(max_vertices=4, max_edges=5,
                                       genus_values=(0, 1)):
            base = dict(g.genus)
            legs = ((1, g.vertex_ids()[0]),)
            try:
                gg = ModularGraph(base, g.edges, legs)
            except Exception:
                continue
            if gg.n_markings + 2 * total_genus(gg) - 3 < 0:
                continue
            try:
                st = stabilize(gg)
            except Exception:
                continue
            assert stabilize(st) == st
            checked_idem += 1
        fig = graph_from_json(
            '{"vertices":[{"id":"a","genus":0},{"id":"b","genus":0}],'
            '"edges":[["a","b"],["a","b"]],"legs":[{"index":1,"vertex":"a"}]}'
        )
        genus_one = total_genus(fig) == 1
        ok = checked_genus > 10000 and checked_idem > 1000 and genus_one
        report(11, ok, f"{checked_genus} contractions genus-invariant, "
                       f"{checked_idem} stabilizations idempotent, "
                       f"banana graph genus 1: {genus_one}")

    def test_12_kempf_ness(self):
        configs = [
            TargetSpace(2, 1, [[1, 1]], [1.0]),
            TargetSpace(3, 2, [[1, 0, 1], [0, 1, 1]], [1.0, 1.0]),
        ]
        rng = np.random.default_rng(12)
        worst_phi, worst_iters, count = 0.0, 0, 0
        while count < 100:
            t = configs[count % 2]
            v = rng.normal(size=t.n) + 1j * rng.normal(size=t.n)
            if not is_semistable(t, v):
                continue
            s, iters = kempf_ness_shift(t, v)
            out = np.exp(t.weights.T.astype(float) @ s) * v
            worst_phi = max(worst_phi, float(np.linalg.norm(moment_map(t, out))))
            worst_iters = max(worst_iters, iters)
            count += 1
        ok = worst_phi <= 1e-12 and worst_iters <= 8
        report(12, ok, f"100 points: worst |Phi| {worst_phi:.2e}, "
                       f"worst Newton steps {worst_iters}")
