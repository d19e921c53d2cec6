"""The seeded input generator: determinism and validity of every config.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import math

import pytest

import workloads
from vortexlab import cli

SEEDS = (0, 1, 7, 12345)


def all_ops(seed):
    return [op for name in workloads.WORKLOADS for op in workloads.generate(name, seed)]


def test_same_seed_gives_identical_bytes():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            a = [workloads.config_bytes(op, "out") for op in workloads.generate(name, seed)]
            b = [workloads.config_bytes(op, "out") for op in workloads.generate(name, seed)]
            assert a == b


def test_seed_changes_the_inputs():
    for name in workloads.WORKLOADS:
        a = [workloads.config_bytes(op, "out") for op in workloads.generate(name, 1)]
        b = [workloads.config_bytes(op, "out") for op in workloads.generate(name, 2)]
        assert a != b


def test_written_files_match_config_bytes(tmp_path):
    ops = workloads.generate("sweep", 3)
    paths = workloads.write_configs(ops, str(tmp_path), "out")
    for op in ops:
        assert open(paths[op.label], "rb").read() == workloads.config_bytes(op, "out")


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_parse_config_accepts_every_generated_config(tmp_path, seed):
    ops = all_ops(seed)
    paths = workloads.write_configs(ops, str(tmp_path), str(tmp_path / "out"))
    for op in ops:
        cfg = cli.parse_config(paths[op.label])
        assert cfg.surface().pieces
        assert op.subcommand in cli.SUBCOMMANDS


def _zeros(cfg):
    """(vertex, r) of every zero the program will place, sweeps included."""
    out = []
    for vertex, coords in (cfg["quasimap"].get("zeros") or {}).items():
        for j, coord in enumerate(coords):
            offsets = [0.0]
            ev = cfg["experiments"].get("ev")
            if ev and j == ev["coordinate"]:
                offsets = ev["offsets"]
            out += [(vertex, z["r"] + off) for z in coord for off in offsets]
    block = cfg["experiments"].get("quantize")
    if block:
        vertex = next(iter(cfg["surface"]["components"]))
        out += [(vertex, z["r"]) for z in block["zero_positions"]]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_zeros_lie_inside_the_meshed_interior(seed):
    for op in all_ops(seed):
        comps = op.config["surface"]["components"]
        for vertex, r in _zeros(op.config):
            lo = comps[vertex]["r_min"]
            hi = lo + comps[vertex]["length"]
            assert lo + workloads.MARGIN <= r <= hi - workloads.MARGIN, (op.label, r)


@pytest.mark.parametrize("seed", SEEDS)
def test_neck_lengths_fit_the_grid_and_the_sleeves(seed):
    for op in all_ops(seed):
        surf = op.config["surface"]
        lengths = [g["length"] for g in (surf.get("gluings") or {}).values()
                   if "length" in g]
        lengths += (op.config["experiments"].get("neck") or {}).get("lengths", [])
        for L in lengths:
            cells = L / surf["h_r"]
            assert math.isclose(cells, round(cells), abs_tol=1e-9), (op.label, L)
            assert L >= 2.0 * surf["sleeve_width"], (op.label, L)


def test_workload_shapes():
    cyl = workloads.generate("cylinder", 0)
    assert [op.label for op in cyl] == ["c400x64-d1", "c800x128-d1", "c800x128-d2"]
    assert all(op.config["solve"]["preconditioner"] == "none" for op in cyl)
    (neck,) = workloads.generate("neck", 0)
    assert neck.config["solve"]["preconditioner"] == "patched"
    assert neck.config["experiments"]["neck"]["lengths"] == [10.0, 20.0, 40.0]
    sweep = workloads.generate("sweep", 0)
    assert sorted(op.subcommand for op in sweep) == sorted(cli.SUBCOMMANDS)
    assert sum(op.solves for op in sweep) == 26
