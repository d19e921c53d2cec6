"""Seeded inputs for the benchmark workloads.

Each workload is a list of operations; one operation is one ``cli.run`` call
on one generated config.  The seed only moves zero positions (and, on
``sweep``, the config's own ``seed:``) inside narrow windows, so every seed
asks the solver for the same amount of work while the inputs still differ.
The configs are plain dicts written out as YAML; the program only ever sees
those files.

Why each workload exists (cited by name from later performance work):

* ``cylinder`` -- ROADMAP's ladder on the single degree-one cylinder
  [-20, 20] x S^1: 400x64 (d=1), 800x128 (d=1) and 800x128 (d=2) with the
  shipped default ``preconditioner: none``.  Unpreconditioned CG is about
  85% of the time and its iteration count grows with the mesh, so this is
  where Jacobian-apply, ``gram_field`` and preconditioner work shows.
* ``neck`` -- the paper's neck-stretching family on the core/sleeve path:
  the ``neck`` subcommand over L in {10, 20, 40} on two 10-long components
  at h_r = 0.05, n_theta = 64, ``preconditioner: patched``.  Seed build and
  preconditioner setup dominate and CG is short, the opposite balance to
  ``cylinder``.
* ``sweep`` -- all eight subcommands on the shipped configs (26 small
  solves).  Seed build and ``kempf_ness_shift`` dominate; it is the only
  workload that parses configs at volume and exercises the artifact writer
  and the ``experiments`` and ``modgraph`` layers.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import yaml

#: zeros stay at least this far inside the truncated ends (build_seed's margin)
MARGIN = 0.5

#: relative energy gap |E - 4 pi tau d| / (4 pi tau d) accepted per solve
ENERGY_TOLERANCE = 0.02

NEWTON_TOL = 1.0e-8

WHY = {
    "cylinder": "ROADMAP ladder 400x64 and 800x128 on one cylinder, plain CG: "
                "Jacobian applies, gram_field and CG iterations dominate",
    "neck": "neck family L=10,20,40 at 1201x64 with the patched "
            "preconditioner: seed build and preconditioner setup dominate, CG is short",
    "sweep": "all 8 subcommands on the shipped configs, 26 small solves: config "
             "parsing, seed build, artifact writing, experiments and modgraph",
}


@dataclass(frozen=True)
class Op:
    """One ``cli.run`` call: a subcommand on one generated config."""

    label: str
    subcommand: str
    config: dict
    solves: int          # piece solves the subcommand performs
    degree: int = 0      # total bundle degree (0: no energy quantum to check)
    snapshots: bool = False


def _zero(r: float, theta: float) -> dict:
    return {"r": round(r, 6), "theta": round(theta, 6)}


def _rank_one_target(n: int = 1) -> dict:
    return {"n": n, "k": 1, "weights": [[1] * n], "tau": [1.0]}


def _one_cylinder_graph() -> dict:
    return {"vertices": [{"id": "c", "genus": 0}], "edges": [],
            "legs": [{"index": 1, "vertex": "c"}, {"index": 2, "vertex": "c"}]}


def _two_cylinder_graph() -> dict:
    return {"vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
            "edges": [["u", "v"]],
            "legs": [{"index": 1, "vertex": "u"}, {"index": 2, "vertex": "v"}]}


def _solve_block(**extra) -> dict:
    block = {"newton_tol": NEWTON_TOL, "max_newton": 30, "cg_tol": 1.0e-10}
    block.update(extra)
    return block


def _energy_block(**extra) -> dict:
    block = {"energy": {"tolerance": ENERGY_TOLERANCE}}
    block.update(extra)
    return block


# -- cylinder -----------------------------------------------------------------

def _cylinder_config(n_r: int, n_theta: int, zeros: list, seed: int) -> dict:
    return {
        "target": _rank_one_target(),
        "graph": _one_cylinder_graph(),
        "surface": {
            "n_theta": n_theta,
            "h_r": 40.0 / (n_r - 1),
            "sleeve_width": 8.0,
            "components": {"c": {"r_min": -20.0, "length": 40.0,
                                 "left": {"leg": 1}, "right": {"leg": 2}}},
        },
        "quasimap": {"zeros": {"c": [zeros]}},
        "solve": _solve_block(preconditioner="none"),
        "experiments": _energy_block(),
        "seed": seed,
    }


def cylinder(seed: int) -> list:
    rng = random.Random(seed)
    tau = 2.0 * math.pi

    def one():
        return [_zero(rng.uniform(-1.0, 1.0), rng.uniform(0.0, tau))]

    def two():
        return [_zero(rng.uniform(-2.5, -1.5), rng.uniform(0.0, tau)),
                _zero(rng.uniform(1.5, 2.5), rng.uniform(0.0, tau))]

    ladder = [("c400x64-d1", 400, 64, one()), ("c800x128-d1", 800, 128, one()),
              ("c800x128-d2", 800, 128, two())]
    return [Op(label, "solve", _cylinder_config(n_r, nth, zeros, seed),
               solves=1, degree=len(zeros))
            for label, n_r, nth, zeros in ladder]


# -- neck ---------------------------------------------------------------------

NECK_LENGTHS = [10.0, 20.0, 40.0]


def _glued_pair_config(n_theta, h_r, half_length, sleeve_width, u_zero,
                       preconditioner, lengths, seed) -> dict:
    return {
        "target": _rank_one_target(),
        "graph": _two_cylinder_graph(),
        "surface": {
            "n_theta": n_theta,
            "h_r": h_r,
            "sleeve_width": sleeve_width,
            "components": {
                "u": {"r_min": -half_length, "length": half_length,
                      "left": {"leg": 1}, "right": {"edge": 0}},
                "v": {"r_min": 0.0, "length": half_length,
                      "left": {"edge": 0}, "right": {"leg": 2}},
            },
            "gluings": {"0": {"length": lengths[1], "twist": 0.0}},
        },
        "quasimap": {"zeros": {"u": [[u_zero]]}},
        "solve": _solve_block(preconditioner=preconditioner),
        "experiments": _energy_block(neck={"lengths": list(lengths)}),
        "seed": seed,
    }


def neck(seed: int) -> list:
    rng = random.Random(seed)
    # the solved energy depends on where the zero sits on u (22% off 4 pi at
    # r = -7, 3% at r = -6, 0.2% at r = -3.5); this window keeps the energy
    # gap, and so energy_rel_gap.max, the same for every seed
    u_zero = _zero(rng.uniform(-3.6, -3.4), rng.uniform(0.0, 2.0 * math.pi))
    cfg = _glued_pair_config(64, 0.05, 10.0, 4.0, u_zero, "patched",
                             NECK_LENGTHS, seed)
    return [Op("neck", "neck", cfg, solves=len(NECK_LENGTHS), degree=1)]


# -- sweep: the shipped configs with jittered zeros ---------------------------

def _jitter(rng: random.Random, r: float, theta: float, amount: float = 0.25) -> dict:
    return _zero(r + rng.uniform(-amount, amount),
                 theta + rng.uniform(-amount, amount))


def _connectedness(rng, seed) -> dict:
    return {
        "target": _rank_one_target(2),
        "graph": _two_cylinder_graph(),
        "surface": {
            "n_theta": 32, "h_r": 0.1, "sleeve_width": 4.0, "break_radius": 10.0,
            "components": {
                "u": {"r_min": -10.0, "length": 10.0,
                      "left": {"leg": 1}, "right": {"edge": 0}},
                "v": {"r_min": 0.0, "length": 10.0,
                      "left": {"edge": 0}, "right": {"leg": 2}},
            },
            "gluings": {"0": {"broken": True}},
        },
        "quasimap": {
            "zeros": {"u": [[_jitter(rng, -5.0, 0.1)]],
                      "v": [[_jitter(rng, 5.0, 0.2)]]},
            "asymptotics": [{"anchor": ["node", 0],
                             "value": [[1.0, 0.0], [0.0, 0.0]]}],
        },
        "solve": _solve_block(),
        "experiments": _energy_block(),
        "seed": seed,
    }


def _degree_one(rng, seed) -> dict:
    cfg = _cylinder_config(400, 64, [_jitter(rng, 0.05, 0.1)], seed)
    cfg["experiments"]["decay"] = {"end": "right", "window": [5.0, 15.0]}
    return cfg


def _quantization(rng, seed) -> dict:
    base = [(-3.0, 0.0), (-1.0, 1.0), (0.0, 0.3), (1.5, 2.0), (3.0, 4.0)]
    return {
        "target": _rank_one_target(),
        "graph": _one_cylinder_graph(),
        "surface": {
            "n_theta": 24, "h_r": 0.25, "sleeve_width": 4.0,
            "components": {"c": {"r_min": -18.75, "length": 37.5,
                                 "left": {"leg": 1}, "right": {"leg": 2}}},
        },
        "quasimap": {},
        "solve": _solve_block(),
        "experiments": _energy_block(quantize={
            "n_constant": 10,
            "zero_positions": [_jitter(rng, r, th) for r, th in base],
        }),
        "seed": seed,
    }


def _ev_sweep(rng, seed) -> dict:
    return {
        "target": _rank_one_target(2),
        "graph": _one_cylinder_graph(),
        "surface": {
            "n_theta": 24, "h_r": 0.25, "sleeve_width": 4.0,
            "components": {"c": {"r_min": -20.0, "length": 40.0,
                                 "left": {"leg": 1}, "right": {"leg": 2}}},
        },
        "quasimap": {"zeros": {"c": [[_jitter(rng, 0.0, 0.2)],
                                     [_jitter(rng, 0.5, 1.2)]]}},
        "solve": _solve_block(),
        "experiments": _energy_block(ev={"offsets": [0.0, 0.2, 0.4],
                                         "coordinate": 0}),
        "seed": seed,
    }


def sweep(seed: int) -> list:
    rng = random.Random(seed)
    conn = _connectedness(rng, seed)
    deg1 = _degree_one(rng, seed)
    quant = _quantization(rng, seed)
    neck_cfg = _glued_pair_config(32, 0.2, 8.0, 4.0, _jitter(rng, -4.0, 0.1),
                                  "none", NECK_LENGTHS, seed)
    ev = _ev_sweep(rng, seed)
    n_quant = quant["experiments"]["quantize"]
    return [
        Op("sweep-solve", "solve", conn, solves=2, degree=2, snapshots=True),
        Op("sweep-decay", "decay", deg1, solves=1),
        Op("sweep-annulus", "annulus", deg1, solves=1),
        Op("sweep-energy", "energy", deg1, solves=1, degree=1),
        Op("sweep-quantize", "quantize", quant,
           solves=n_quant["n_constant"] + len(n_quant["zero_positions"]), degree=1),
        Op("sweep-neck", "neck", neck_cfg, solves=len(NECK_LENGTHS), degree=1),
        Op("sweep-ev", "ev", ev, solves=len(ev["experiments"]["ev"]["offsets"])),
        Op("sweep-graph", "graph", conn, solves=0),
    ]


WORKLOADS = {"cylinder": cylinder, "neck": neck, "sweep": sweep}


def generate(workload: str, seed: int) -> list:
    """The operations of one workload for one seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def config_bytes(op: Op, out_dir: str) -> bytes:
    """The YAML text the program reads for ``op``, writing into ``out_dir``."""
    cfg = dict(op.config, out=out_dir)
    return yaml.safe_dump(cfg, sort_keys=True).encode()


def write_configs(ops: list, directory: str, out_dir: str) -> dict:
    """Write one YAML file per distinct op label; returns label -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        path = os.path.join(directory, f"{op.label}.yaml")
        with open(path, "wb") as fh:
            fh.write(config_bytes(op, out_dir))
        paths[op.label] = path
    return paths
