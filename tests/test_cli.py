import dataclasses
import glob
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import yaml

from vortexlab import cli, experiments, fields, solver
from vortexlab.cli import (
    ConfigError,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    parse_config,
    run,
)
from vortexlab.fields import FieldError, energy, load_field
from vortexlab.modgraph import GraphError
from vortexlab.solver import SolveConfig

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = {
    "target": {"n": 1, "k": 1, "weights": [[1]], "tau": [1.0]},
    "graph": {
        "vertices": [{"id": "c", "genus": 0}],
        "edges": [],
        "legs": [{"index": 1, "vertex": "c"}, {"index": 2, "vertex": "c"}],
    },
    "surface": {
        "n_theta": 16,
        "h_r": 0.25,
        "sleeve_width": 4.0,
        "components": {
            "c": {"r_min": -10.0, "length": 20.0,
                  "left": {"leg": 1}, "right": {"leg": 2}},
        },
    },
    "quasimap": {"zeros": {"c": [[{"r": 0.1, "theta": 0.1}]]}},
    "solve": {"newton_tol": 1.0e-8},
    "seed": 7,
}


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.target.n == 1
        assert cfg.graph.n_markings == 2
        assert "c" in cfg.components

    def test_unknown_vertex_named_in_error(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["quasimap"]["zeros"] = {"nope": [[{"r": 0.0, "theta": 0.0}]]}
        with pytest.raises(ConfigError, match="nope"):
            parse_config(write_config(tmp_path, bad))

    def test_chamber_error(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["target"]["tau"] = [0.0]
        with pytest.raises(ConfigError, match="target"):
            parse_config(write_config(tmp_path, bad))

    def test_all_errors_collected(self, tmp_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["target"]["tau"] = [-1.0]
        bad["quasimap"]["zeros"] = {"nope": [[{"r": 0.0, "theta": 0.0}]]}
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, bad))
        assert len(err.value.problems) >= 2

    def test_gluing_forms(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["graph"]["vertices"].append({"id": "d", "genus": 0})
        data["graph"]["edges"] = [["c", "d"]]
        data["graph"]["legs"][1]["vertex"] = "d"
        data["surface"]["components"]["c"]["right"] = {"edge": 0}
        data["surface"]["components"]["d"] = {
            "r_min": 0.0, "length": 10.0, "left": {"edge": 0}, "right": {"leg": 2}}
        data["surface"]["gluings"] = {"0": {"length": 10.0, "twist": 0.0}}
        cfg = parse_config(write_config(tmp_path, data))
        assert cfg.gluings[0] == pytest.approx(math.exp(-10.0))
        data["surface"]["gluings"] = {"0": {"broken": True}}
        cfg = parse_config(write_config(tmp_path, data))
        assert cfg.gluings[0] == 0

    def test_non_mapping_config(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- target\n- graph\n")
        with pytest.raises(ConfigError, match="config must be a mapping, got list"):
            parse_config(str(path))


class TestRun:
    def test_solve_roundtrip(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "artifacts")
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "solve")
        assert code == EXIT_OK
        summary = load_json(paths["summary"])
        assert summary["converged"] is True
        pairing = 4 * math.pi
        assert abs(summary["total_energy"] - pairing) / pairing < 0.05

    def test_deterministic_reruns(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "a")
        cfg = parse_config(write_config(tmp_path, data))
        _, paths1 = run(cfg, "solve")
        blob1 = open(paths1["summary"], "rb").read()
        data["out"] = str(tmp_path / "b")
        cfg2 = parse_config(write_config(tmp_path, data, name="run2.yaml"))
        _, paths2 = run(cfg2, "solve")
        blob2 = open(paths2["summary"], "rb").read()
        assert os.path.basename(paths1["summary"]) == os.path.basename(paths2["summary"])
        assert blob1 == blob2

    def test_snapshots_reload_at_the_summary_energy(self, tmp_path):
        # a snapshot is the whole field: reloaded pieces sum to the energy
        # the solve reported
        config = os.path.join(CONFIGS, "connectedness.yaml")
        out = tmp_path / "snap"
        assert main(["solve", "--config", config, "--snapshots", "--out", str(out)]) == EXIT_OK
        cfg = parse_config(config)
        surf = cfg.surface()
        (summary,) = [p for p in out.glob("solve-*.json") if "-field-" not in p.name]
        total = 0.0
        for pi in range(len(surf.pieces)):
            stem = str(out / f"{summary.stem}-field-{pi}")
            f = load_field(surf, pi, cfg.target, stem + ".npy", stem + "-header.json")
            total += energy(f).total
        expected = load_json(summary)["total_energy"]
        assert total == pytest.approx(expected, rel=1e-12)

    def test_graph_subcommand_reports_genus_one(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        # two genus-0 components joined at two nodes: total genus 1
        data["graph"] = {
            "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
            "edges": [["v1", "v2"], ["v1", "v2"]],
            "legs": [{"index": 1, "vertex": "v1"}, {"index": 2, "vertex": "v2"}],
        }
        data["surface"]["components"] = {}
        data["quasimap"] = {}
        data["out"] = str(tmp_path / "g")
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "graph")
        assert code == EXIT_OK
        assert load_json(paths["summary"])["total_genus"] == 1

    def test_decay_emits_csv_schema(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "d")
        data["experiments"] = {"decay": {"end": "right", "window": [3.0, 8.0]}}
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "decay")
        assert code == EXIT_OK
        header = open(paths["decay"]).readline().strip()
        assert header == "r,e_r,log_e_r"
        summary = load_json(paths["summary"])
        assert summary["gamma_hat"] > 0

    def test_energy_subcommand(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "e")
        data["surface"]["n_theta"] = 24
        data["surface"]["h_r"] = 0.2
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "energy")
        assert code == EXIT_OK
        summary = load_json(paths["summary"])
        assert summary["degree"] == 1
        assert summary["relative_gap"] < 0.05

    def test_numerical_failure_exit_code(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "n")
        data["quasimap"] = {}  # constant data on a marked cylinder: fine
        data["solve"] = {"newton_tol": 1e-8, "max_newton": 30}
        cfg = parse_config(write_config(tmp_path, data))
        # force an unstable seed by zeroing tau feasibility: use an
        # asymptotic far outside the basin instead: direct approach below
        from vortexlab.quasimap import QuasimapData

        cfg.quasimap = QuasimapData(cfg.graph, cfg.target,
                                    {}, {("leg", 1): [0.0], ("leg", 2): [0.0]})
        code, _ = run(cfg, "solve")
        assert code == EXIT_NUMERICAL

    def test_main_entrypoint_graph_literal(self, tmp_path, capsys):
        lit = tmp_path / "g.json"
        lit.write_text(json.dumps({
            "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 0}],
            "edges": [["a", "b"], ["a", "b"]],
            "legs": [{"index": 1, "vertex": "a"}],
        }))
        code = main(["graph", "--graph-json", str(lit)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["total_genus"] == 1

    def test_graph_literal_prints_the_config_report(self, tmp_path, capsys):
        # --graph-json and --config build the graph report in one place
        with open(NECK_CONFIG) as fh:
            block = yaml.safe_load(fh)["graph"]
        lit = tmp_path / "g.json"
        lit.write_text(json.dumps(block))
        assert main(["graph", "--graph-json", str(lit)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert main(["graph", "--config", NECK_CONFIG, "--out", str(out)]) == EXIT_OK
        (summary,) = out.glob("graph-*.json")
        assert printed == load_json(summary)
        assert "stabilization_error" in printed  # the old literal path lacked it

    def test_main_missing_config(self, capsys):
        assert main(["solve"]) == EXIT_CONFIG

    def test_main_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("target: {n: 1}")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestRemainingSubcommands:
    def test_annulus(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "a")
        data["surface"]["components"]["c"]["r_min"] = 0.0
        data["quasimap"] = {}
        data["experiments"] = {"annulus": {"t_values": [0, 2, 4, 6],
                                           "perturbation": 0.05}}
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "annulus")
        assert code == EXIT_OK
        summary = load_json(paths["summary"])
        assert summary["monotone"] is True
        assert open(paths["annulus"]).readline().strip() == "T,E_mid"

    def test_quantize(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "q")
        data["quasimap"] = {}
        data["experiments"] = {
            "quantize": {"n_constant": 2,
                         "zero_positions": [{"r": 0.0, "theta": 0.0}]}}
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "quantize")
        assert code == EXIT_OK
        assert load_json(paths["summary"])["band_empty"] is True

    def test_neck(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "k")
        data["graph"] = {
            "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0}],
            "edges": [["u", "v"]],
            "legs": [{"index": 1, "vertex": "u"}, {"index": 2, "vertex": "v"}],
        }
        data["surface"]["components"] = {
            "u": {"r_min": -8.0, "length": 8.0,
                  "left": {"leg": 1}, "right": {"edge": 0}},
            "v": {"r_min": 0.0, "length": 8.0,
                  "left": {"edge": 0}, "right": {"leg": 2}},
        }
        data["surface"]["gluings"] = {"0": {"length": 10.0}}
        data["quasimap"] = {"zeros": {"u": [[{"r": -4.0, "theta": 0.1}]]}}
        data["experiments"] = {"neck": {"lengths": [8.0, 12.0]}}
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "neck")
        assert code == EXIT_OK
        summary = load_json(paths["summary"])
        assert summary["m0"]["L12"] < summary["m0"]["L8"]
        assert "profile-L8" in paths

    def test_ev(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "v")
        data["experiments"] = {"ev": {"offsets": [0.0, 0.2], "coordinate": 0}}
        cfg = parse_config(write_config(tmp_path, data))
        code, paths = run(cfg, "ev")
        assert code == EXIT_OK
        summary = load_json(paths["summary"])
        assert "1" in summary["distances"]

    def test_solve_snapshots_flag(self, tmp_path):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "s")
        cfg = parse_config(write_config(tmp_path, data))
        code, _ = run(cfg, "solve", snapshots=True)
        assert code == EXIT_OK
        files = os.listdir(data["out"])
        assert any("field-0.npy" in f for f in files)
        assert any("field-0-header.json" in f for f in files)

    def test_snapshot_files_are_among_the_printed_paths(self, tmp_path, capsys):
        out = tmp_path / "s"
        path = write_config(tmp_path, MINIMAL)
        assert main(["solve", "--config", path, "--snapshots", "--out", str(out)]) == EXIT_OK
        (summary_file,) = out.glob("solve-*[0-9a-f].json")
        stem = out / f"{summary_file.stem}-field-0"
        assert capsys.readouterr().out == (f"field-0: {stem}.npy\n"
                                           f"field-0-header: {stem}-header.json\n"
                                           f"summary: {summary_file}\n")
        assert sorted(out.iterdir()) == sorted([summary_file, out / f"{stem.name}.npy",
                                                out / f"{stem.name}-header.json"])


NECK_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "neck_family.yaml")


def neck_config(tmp_path, edit):
    with open(NECK_CONFIG) as fh:
        data = yaml.safe_load(fh)
    edit(data)
    data["out"] = str(tmp_path / "out")
    return write_config(tmp_path, data)


def _set(path, value):
    def edit(data):
        block = data
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return edit


class TestPatchedThroughMain:
    # the shipped neck family with the core/sleeve preconditioner and with
    # plain CG: the same energies, and a rerun writes the same bytes
    def _summary(self, tmp_path, name, preconditioner):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = neck_config(run_dir, _set(("solve", "preconditioner"), preconditioner))
        assert main(["neck", "--config", cfg]) == EXIT_OK
        (summary,) = (run_dir / "out").glob("neck-*.json")
        return summary.read_bytes()

    def test_patched_matches_plain_cg(self, tmp_path, monkeypatch):
        from vortexlab.solver import PatchedPreconditioner

        applies = []
        original = PatchedPreconditioner.apply_symmetric
        monkeypatch.setattr(PatchedPreconditioner, "apply_symmetric",
                            lambda self, eta: applies.append(1) or original(self, eta))
        patched = self._summary(tmp_path, "patched", "patched")
        assert applies
        assert self._summary(tmp_path, "rerun", "patched") == patched
        applies.clear()
        plain = self._summary(tmp_path, "none", "none")
        assert not applies
        totals, reference = json.loads(patched)["totals"], json.loads(plain)["totals"]
        assert totals.keys() == reference.keys() == {"L10", "L20", "L40"}
        for key, value in reference.items():
            assert totals[key] == pytest.approx(value, rel=1e-10)


def _neck_above_the_threshold(data):
    # perfbench's neck: two 10-long components, h_r 0.05, n_theta 64
    data["surface"].update({"h_r": 0.05, "n_theta": 64})
    data["surface"]["components"]["u"].update({"r_min": -10.0, "length": 10.0})
    data["surface"]["components"]["v"].update({"r_min": 0.0, "length": 10.0})
    data["quasimap"]["zeros"]["u"] = [[{"r": -3.5, "theta": 0.3}]]
    data["solve"]["preconditioner"] = "patched"


def _ev_above_the_threshold(data):
    data["surface"].update({"h_r": 0.1, "n_theta": 64})  # 401x64 per offset


class TestWorkerProcessesThroughMain:
    # above the size threshold the independent solves run in forked
    # processes, one per usable core; one usable core runs them all in this
    # process, and every run exits, prints and writes the same bytes
    def _run(self, tmp_path, monkeypatch, capsys, name, subcommand, cores):
        run_dir = tmp_path / f"{cores}-cores"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)  # the config's relative out keeps stdout alike
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        # a BLAS thread pool would keep the serial loop: count Python threads
        monkeypatch.setattr(solver, "_live_threads", threading.active_count)
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        code = main([subcommand, "--config", str(tmp_path / name)])
        printed = capsys.readouterr()
        artifacts = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
        return (code, printed.out, printed.err, artifacts), len(forks)

    @pytest.mark.parametrize("subcommand, shipped, edit", [
        ("neck", "neck_family.yaml", _neck_above_the_threshold),
        ("ev", "ev_sweep.yaml", _ev_above_the_threshold),
    ])
    def test_one_core_and_every_core_write_the_same_bytes(
            self, tmp_path, monkeypatch, capsys, subcommand, shipped, edit):
        with open(os.path.join(CONFIGS, shipped)) as fh:
            data = yaml.safe_load(fh)
        edit(data)
        assert data["out"] == "out"
        write_config(tmp_path, data)
        one, forks = self._run(tmp_path, monkeypatch, capsys, "run.yaml",
                               subcommand, 1)
        assert forks == 0 and one[0] == EXIT_OK
        cores = max(len(os.sched_getaffinity(0)), 2)  # every core, at least two
        many, forks = self._run(tmp_path, monkeypatch, capsys, "run.yaml",
                                subcommand, cores)
        assert forks == min(cores, 3) - 1  # three independent solves
        assert many == one
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestEnergyDensityOncePerSolvedPiece:
    # a solve's report carries the ring energies of the field it returns, so
    # no subcommand evaluates a solved piece's energy density again, neither
    # in this process nor in the worker processes solve_all forks
    @pytest.fixture
    def densities(self, tmp_path, monkeypatch):
        """The process id of every fields.energy_density call, through a file
        that this process and its forked workers append to."""
        log = tmp_path / "density-calls"
        real = fields.energy_density

        def spy(f):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(f)

        monkeypatch.setattr(fields, "energy_density", spy)
        return lambda: log.read_text().split() if log.exists() else []

    @pytest.mark.parametrize("subcommand, shipped, pieces, forked", [
        ("solve", "connectedness.yaml", 2, False),
        ("solve", "connectedness.yaml", 2, True),
        ("decay", "degree_one.yaml", 1, False),
        ("annulus", "degree_one.yaml", 1, False),
        ("energy", "degree_one.yaml", 1, False),
        ("neck", "neck_family.yaml", 3, False),
        ("neck", "neck_family.yaml", 3, True),
    ])
    def test_once_per_piece(self, tmp_path, monkeypatch, capsys, densities,
                            subcommand, shipped, pieces, forked):
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        if forked:  # one worker per seed, whatever the seeds' size
            monkeypatch.setattr(solver, "PARALLEL_MIN_SITES", 0)
            monkeypatch.setattr(solver, "_live_threads", threading.active_count)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        config = os.path.join(CONFIGS, shipped)
        out = str(tmp_path / "out")
        assert main([subcommand, "--config", config, "--out", out]) == EXIT_OK
        pids = densities()
        assert len(pids) == pieces
        assert len(forks) == (pieces - 1 if forked else 0)
        assert len(set(pids)) == (pieces if forked else 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestNoMeshedComponent:
    # degree_one.yaml without surface.components: every subcommand but graph
    # needs a meshed piece, so it is a configuration error naming the key
    def _run(self, tmp_path, subcommand):
        with open(os.path.join(CONFIGS, "degree_one.yaml")) as fh:
            data = yaml.safe_load(fh)
        del data["surface"]["components"]
        data["out"] = str(tmp_path / "out")
        return main([subcommand, "--config", write_config(tmp_path, data)])

    @pytest.mark.parametrize("subcommand",
                             ["solve", "decay", "annulus", "energy", "quantize",
                              "neck", "ev"])
    def test_a_config_error_naming_the_key(self, tmp_path, capsys, subcommand):
        assert self._run(tmp_path, subcommand) == EXIT_CONFIG
        problem = f"surface.components: {subcommand} needs at least one meshed component"
        assert capsys.readouterr().err == f"configuration error: {problem}\n"
        (error_file,) = (tmp_path / "out").glob(f"{subcommand}-*-error.json")
        assert load_json(error_file)["problems"] == [problem]

    def test_graph_needs_no_mesh(self, tmp_path, capsys):
        assert self._run(tmp_path, "graph") == EXIT_OK
        (summary,) = (tmp_path / "out").glob("graph-*.json")
        assert load_json(summary)["total_genus"] == 0


def _with_src_path(env):
    """env with the package's source directory first on PYTHONPATH."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class TestOneBlasThreadByDefault:
    # the console script fixes one BLAS thread before numpy loads, so a run
    # in the default environment writes the one-thread bytes
    def _run(self, tmp_path, name, threads):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
        env.update(threads)
        env = _with_src_path(env)
        run_dir = tmp_path / name
        run_dir.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "vortexlab.cli", "neck",
             "--config", str(tmp_path / "run.yaml"), "--out", "out"],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=300)
        artifacts = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
        return done.returncode, done.stdout, done.stderr, artifacts

    def test_no_thread_variable_writes_the_one_thread_bytes(self, tmp_path):
        with open(os.path.join(CONFIGS, "neck_family.yaml")) as fh:
            data = yaml.safe_load(fh)
        _neck_above_the_threshold(data)
        write_config(tmp_path, data)
        default = self._run(tmp_path, "default", {})
        assert default[0] == EXIT_OK, default[2]
        assert default == self._run(tmp_path, "one", {"OPENBLAS_NUM_THREADS": "1"})


#: main in a fresh process, with every scipy import failing when its first
#: argument is "blocked"; its last line of stdout lists the scipy modules
#: loaded by then
MAIN_WITH_SCIPY = """
import sys
if sys.argv.pop(1) == "blocked":
    sys.modules["scipy"] = None
from vortexlab.cli import main
code = main(sys.argv[1:])
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
sys.exit(code)
"""


class TestDefaultPathWithoutScipy:
    # scipy serves only the patched preconditioner: with it blocked, solve
    # on every shipped config exits, prints and writes as it does with it
    def _run(self, tmp_path, name, scipy, args):
        run_dir = tmp_path / name
        run_dir.mkdir()
        done = subprocess.run([sys.executable, "-c", MAIN_WITH_SCIPY, scipy, *args,
                               "--out", "out"],
                              cwd=run_dir, env=_with_src_path(os.environ),
                              capture_output=True, text=True, timeout=300)
        *printed, loaded = done.stdout.splitlines()
        artifacts = {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
        return (done.returncode, printed, done.stderr, artifacts), loaded

    @pytest.mark.parametrize("shipped", sorted(
        name for name in os.listdir(CONFIGS) if name.endswith(".yaml")))
    def test_solve_writes_the_bytes_of_a_run_with_scipy(self, tmp_path, shipped):
        args = ["solve", "--config", os.path.abspath(os.path.join(CONFIGS, shipped)),
                "--snapshots"]
        blocked, _ = self._run(tmp_path, "blocked", "blocked", args)
        assert blocked[0] == EXIT_OK, blocked[2]
        plain, loaded = self._run(tmp_path, "plain", "allowed", args)
        assert blocked == plain
        assert loaded == "[]"

    def test_patched_neck_loads_scipy_linalg_only(self, tmp_path):
        cfg = neck_config(tmp_path, _set(("solve", "preconditioner"), "patched"))
        (code, _, err, _), loaded = self._run(tmp_path, "patched", "allowed",
                                              ["neck", "--config", cfg])
        assert code == EXIT_OK, err
        assert "'scipy.linalg'" in loaded and "scipy.sparse" not in loaded


class TestNumericValidation:
    POSITIVE = [
        (("surface", "h_r"), "surface.h_r"),
        (("surface", "n_theta"), "surface.n_theta"),
        (("surface", "sleeve_width"), "surface.sleeve_width"),
        (("surface", "break_radius"), "surface.break_radius"),
        (("surface", "components", "u", "length"), "surface.components.u.length"),
        (("surface", "gluings", "0", "length"), "surface.gluings.0.length"),
    ]

    @pytest.mark.parametrize("path,name", POSITIVE)
    @pytest.mark.parametrize("bad", [0, -1.5, math.nan, math.inf])
    def test_finite_and_positive(self, tmp_path, path, name, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, _set(path, bad)))
        assert any(p.startswith(f"{name} must be finite and positive")
                   for p in err.value.problems)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_twist_finite(self, tmp_path, bad):
        twist = _set(("surface", "gluings", "0", "twist"), bad)
        with pytest.raises(ConfigError, match="surface.gluings.0.twist must be finite"):
            parse_config(neck_config(tmp_path, twist))

    def test_problems_are_collected(self, tmp_path):
        def edit(data):
            data["surface"]["h_r"] = 0
            data["surface"]["sleeve_width"] = math.nan
            data["surface"]["gluings"]["0"]["twist"] = math.inf
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, edit))
        assert len(err.value.problems) == 3

    def test_zero_h_r_exits_with_config_error(self, tmp_path, capsys):
        path = neck_config(tmp_path, _set(("surface", "h_r"), 0))
        assert main(["neck", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "surface.h_r must be finite and positive" in err
        assert "Traceback" not in err


class TestTauValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau(self, tmp_path, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, _set(("target", "tau"), [bad])))
        assert err.value.problems == ["target: tau must be finite"]


class TestRunClassifiesErrors:
    @pytest.mark.parametrize("exc", [FieldError("field values must be finite"),
                                     GraphError("edge endpoint unknown")])
    def test_field_and_graph_errors_are_numerical(self, tmp_path, monkeypatch, exc):
        data = json.loads(json.dumps(MINIMAL))
        data["out"] = str(tmp_path / "x")
        cfg = parse_config(write_config(tmp_path, data))

        def fail(cfg):
            raise exc

        monkeypatch.setitem(cli.SUBCOMMANDS, "graph", fail)
        code, paths = run(cfg, "graph")
        assert code == EXIT_NUMERICAL and paths == {}
        error = load_json(tmp_path / "x" / f"graph-{cfg.content_hash()}-error.json")
        assert error["error"] == str(exc)


def _main_config_error(tmp_path, capsys, subcommand, edit):
    """Run main on the edited neck config; returns (stderr, error JSON)."""
    path = neck_config(tmp_path, edit)
    assert main([subcommand, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (error_file,) = (tmp_path / "out").glob(f"{subcommand}-*-error.json")
    return err, load_json(error_file)


class TestNewtonTolValidation:
    @pytest.mark.parametrize("name", ["newton_tol", "cg_tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-8])
    def test_collected_by_parse_config(self, tmp_path, name, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, _set(("solve", name), bad)))
        assert err.value.problems == [
            f"solve: {name} must be finite and positive, got {bad!r}"]

    def test_nan_newton_tol_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "neck", _set(("solve", "newton_tol"), math.nan))
        assert "solve: newton_tol must be finite and positive" in err
        assert error["problems"] == [
            "solve: newton_tol must be finite and positive, got nan"]
        assert error["schema_version"] == cli.SCHEMA_VERSION


class TestNeckLengthValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -10.0, "long"])
    def test_each_length_checked(self, tmp_path, bad):
        edit = _set(("experiments", "neck", "lengths"), [10.0, bad])
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, edit))
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith("experiments.neck.lengths[1]")

    @pytest.mark.parametrize("bad", [[], 10.0, None])
    def test_lengths_must_be_a_list(self, tmp_path, bad):
        edit = _set(("experiments", "neck", "lengths"), bad)
        with pytest.raises(ConfigError, match="non-empty list"):
            parse_config(neck_config(tmp_path, edit))

    def test_nan_length_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "neck",
            _set(("experiments", "neck", "lengths"), [math.nan]))
        assert "experiments.neck.lengths[0] must be finite and positive" in err
        assert error["problems"] == [
            "experiments.neck.lengths[0] must be finite and positive, got nan"]


class TestRepeatedNeckLength:
    # each length names its own profile-L<length> artifact, so a repeated
    # one would be solved and then dropped
    @pytest.mark.parametrize("lengths, i, value, key", [
        ([10.0, 10.0, 20.0], 1, "10.0", "L10"),
        ([20.0, 10, 10.0000001], 2, "10.0000001", "L10"),
    ])
    def test_repeated_length_exits_with_config_error(self, tmp_path, capsys,
                                                     lengths, i, value, key):
        err, error = _main_config_error(
            tmp_path, capsys, "neck", _set(("experiments", "neck", "lengths"), lengths))
        problem = (f"experiments.neck.lengths[{i}]: length {value} repeats an earlier "
                   f"one (both are {key})")
        assert f"configuration error: {problem}" in err
        assert error["problems"] == [problem]


def _dangling_chain(data):
    """The neck family with v's right socket toward an unmeshed vertex x: the
    chain's right end is a truncated end break_radius long, and the zero sits
    3 from it, so the energy depends on break_radius."""
    data["graph"] = {
        "vertices": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0},
                     {"id": "x", "genus": 0}],
        "edges": [["u", "v"], ["v", "x"]],
        "legs": [{"index": 1, "vertex": "u"}, {"index": 2, "vertex": "x"}],
    }
    s = data["surface"]
    s.update(n_theta=16, h_r=0.25, break_radius=2.0)
    s["components"]["v"]["right"] = {"edge": 1}
    data["quasimap"]["zeros"] = {"v": [[{"r": 6.0, "theta": 0.1}]]}
    data["experiments"]["neck"]["lengths"] = [10.0, 20.0]


class TestNeckUsesBreakRadius:
    # neck glues each length as solve glues the config's one length, with
    # the config's break_radius (not glue's default of 12)
    def test_totals_equal_solve_energies(self, tmp_path):
        run_dir = tmp_path / "neck"
        run_dir.mkdir()
        assert main(["neck", "--config", neck_config(run_dir, _dangling_chain)]) == EXIT_OK
        (summary,) = (run_dir / "out").glob("neck-*.json")
        totals = load_json(summary)["totals"]
        for L in (10.0, 20.0):
            run_dir = tmp_path / f"solve-{L:g}"
            run_dir.mkdir()

            def edit(data):
                _dangling_chain(data)
                data["surface"]["gluings"]["0"]["length"] = L

            assert main(["solve", "--config", neck_config(run_dir, edit)]) == EXIT_OK
            (summary,) = (run_dir / "out").glob("solve-*.json")
            assert totals[f"L{L:g}"] == load_json(summary)["total_energy"]


class TestBreakRadiusRingCount:
    def test_infinite_ring_count_is_a_numerical_failure(self, tmp_path, capsys):
        # 1e308 / h_r overflows to inf: a glue error, not an internal one
        with open(os.path.join(CONFIGS, "connectedness.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["surface"]["break_radius"] = 1e308
        data["out"] = str(tmp_path / "out")
        assert main(["solve", "--config", write_config(tmp_path, data)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: break radius 1e+308 is not a finite number" in err
        (error,) = (tmp_path / "out").glob("solve-*-error.json")
        assert "traceback" not in load_json(error)

    @pytest.mark.parametrize("shipped, edit", [
        ("degree_one.yaml", lambda d: d["surface"]["components"]["c"].update(length=1e300)),
        ("connectedness.yaml", lambda d: d["surface"].update(break_radius=1e300)),
    ], ids=["component-length", "break-radius"])
    def test_unallocatable_ring_count_is_a_numerical_failure(self, tmp_path, capsys,
                                                             shipped, edit):
        # a finite ring count whose sites numpy cannot allocate: a glue error
        with open(os.path.join(CONFIGS, shipped)) as fh:
            data = yaml.safe_load(fh)
        edit(data)
        data["out"] = str(tmp_path / "out")
        assert main(["solve", "--config", write_config(tmp_path, data)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: piece has more than the" in err
        (error,) = (tmp_path / "out").glob("solve-*-error.json")
        assert "traceback" not in load_json(error)


class TestDecayExitCodes:
    # connectedness's window [5, 15] runs through the ring-energy minimum and
    # back up toward the neck: the fit is no exponential and must not pass
    @pytest.mark.parametrize("shipped, code, rejected", [
        ("connectedness.yaml", EXIT_ASSERTION, True),
        ("degree_one.yaml", EXIT_OK, False),
    ])
    def test_shipped_config(self, tmp_path, shipped, code, rejected):
        out = tmp_path / "decay"
        config = os.path.join(CONFIGS, shipped)
        assert main(["decay", "--config", config, "--out", str(out)]) == code
        (summary,) = out.glob("decay-*.json")
        summary = load_json(summary)
        assert summary["rejected"] is rejected
        if rejected:
            assert summary["r_squared"] < experiments.DECAY_MIN_R2
            assert f"R^2 {summary['r_squared']:.4f} below" in summary["note"]
        else:
            assert summary["r_squared"] >= experiments.DECAY_MIN_R2


class TestNThetaInteger:
    def test_fractional_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, _set(("surface", "n_theta"), 32.7)))
        assert err.value.problems == ["surface.n_theta must be an integer, got 32.7"]

    def test_integral_float_accepted(self, tmp_path):
        cfg = parse_config(neck_config(tmp_path, _set(("surface", "n_theta"), 32.0)))
        assert all(c.n_theta == 32 for c in cfg.components.values())

    def test_fractional_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "solve", _set(("surface", "n_theta"), 32.7))
        assert "surface.n_theta must be an integer" in err
        assert error["error"] == "surface.n_theta must be an integer, got 32.7"


class TestConfigErrorArtifact:
    def test_written_to_out_override(self, tmp_path, capsys):
        path = neck_config(tmp_path, _set(("surface", "h_r"), 0))
        override = tmp_path / "override"
        assert main(["neck", "--config", path, "--out", str(override)]) == EXIT_CONFIG
        (error_file,) = override.glob("neck-*-error.json")
        error = load_json(error_file)
        assert error["problems"] == ["surface.h_r must be finite and positive, got 0"]
        # the summary format: sorted keys, indent 1, a trailing newline
        assert error_file.read_text() == json.dumps(error, sort_keys=True, indent=1) + "\n"
        assert error["schema_version"] == cli.SCHEMA_VERSION
        assert not (tmp_path / "out").exists()

    def test_nothing_written_without_a_named_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text("target: {n: 1}")
        assert main(["solve", "--config", "bad.yaml"]) == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["bad.yaml"]


def _experiment_problems(tmp_path, block, spec):
    """Problems parse_config collects for experiments.<block> = spec."""
    with pytest.raises(ConfigError) as err:
        parse_config(neck_config(tmp_path, _set(("experiments", block), spec)))
    return err.value.problems


class TestCheckedExperimentDefaults:
    def test_defaults_filled_in_and_typed(self, tmp_path):
        cfg = parse_config(neck_config(tmp_path, lambda data: None))
        xp = cfg.experiments
        assert xp["decay"] == {"window": (5.0, 15.0), "end": "right"}
        assert xp["annulus"] == {"t_values": [0.0, 2.0, 4.0, 6.0, 8.0],
                                 "perturbation": 0.05}
        assert xp["energy"] == {"tolerance": 0.02}
        assert xp["quantize"] == {"n_constant": 5, "zero_positions": [0j]}
        assert xp["neck"] == {"lengths": [10.0, 20.0, 40.0]}
        assert xp["ev"] == {"offsets": [0.0, 0.2, 0.4], "coordinate": 0}

    def test_block_must_be_a_mapping(self, tmp_path):
        problems = _experiment_problems(tmp_path, "decay", [5.0, 15.0])
        assert problems == ["experiments.decay: expected a mapping"]


class TestAnnulusValidation:
    @pytest.mark.parametrize("spec,problem", [
        ({"t_values": [0.0, math.nan]}, "experiments.annulus.t_values[1] must be finite"),
        ({"t_values": [math.inf]}, "experiments.annulus.t_values[0] must be finite"),
        ({"t_values": []}, "experiments.annulus.t_values: expected a non-empty list"),
        ({"t_values": 4.0}, "experiments.annulus.t_values: expected a non-empty list"),
        ({"perturbation": math.nan}, "experiments.annulus.perturbation must be finite"),
        ({"perturbation": "big"}, "experiments.annulus.perturbation: not a number"),
    ])
    def test_collected_by_parse_config(self, tmp_path, spec, problem):
        (found,) = _experiment_problems(tmp_path, "annulus", spec)
        assert found.startswith(problem)

    def test_nan_t_value_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "annulus",
            _set(("experiments", "annulus"), {"t_values": [math.nan]}))
        assert "experiments.annulus.t_values[0] must be finite" in err
        assert error["problems"] == [
            "experiments.annulus.t_values[0] must be finite, got nan"]


class TestDecayValidation:
    @pytest.mark.parametrize("spec,problem", [
        ({"window": [math.nan, 5.0]}, "experiments.decay.window[0] must be finite"),
        ({"window": [5.0, math.inf]}, "experiments.decay.window[1] must be finite"),
        ({"window": [5.0, 5.0]}, "experiments.decay.window must be two numbers"),
        ({"window": [15.0, 5.0]}, "experiments.decay.window must be two numbers"),
        ({"window": [5.0]}, "experiments.decay.window must be two numbers"),
        ({"window": []}, "experiments.decay.window: expected a non-empty list"),
        ({"end": "middle"}, "experiments.decay.end must be 'left' or 'right'"),
    ])
    def test_collected_by_parse_config(self, tmp_path, spec, problem):
        (found,) = _experiment_problems(tmp_path, "decay", spec)
        assert found.startswith(problem)

    def test_nan_window_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "decay",
            _set(("experiments", "decay"), {"window": [math.nan, 5.0]}))
        assert "experiments.decay.window[0] must be finite" in err
        assert error["problems"] == [
            "experiments.decay.window[0] must be finite, got nan"]


class TestEnergyValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.02, "tight"])
    def test_collected_by_parse_config(self, tmp_path, bad):
        (found,) = _experiment_problems(tmp_path, "energy", {"tolerance": bad})
        assert found.startswith("experiments.energy.tolerance")

    def test_nan_tolerance_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "energy",
            _set(("experiments", "energy"), {"tolerance": math.nan}))
        assert "experiments.energy.tolerance must be finite and positive" in err
        assert error["problems"] == [
            "experiments.energy.tolerance must be finite and positive, got nan"]


class TestQuantizeValidation:
    @pytest.mark.parametrize("spec,problem", [
        ({"n_constant": math.nan}, "experiments.quantize.n_constant must be finite"),
        ({"n_constant": -1}, "experiments.quantize.n_constant must be an integer >= 0"),
        ({"n_constant": 2.5}, "experiments.quantize.n_constant must be an integer >= 0"),
        ({"n_constant": True}, "experiments.quantize.n_constant must be an integer >= 0"),
        ({"zero_positions": [{"r": math.nan, "theta": 0.0}]},
         "experiments.quantize.zero_positions[0].r must be finite"),
        ({"zero_positions": [{"r": 0.0}]},
         "experiments.quantize.zero_positions[0]: missing theta"),
        ({"zero_positions": [3.0]},
         "experiments.quantize.zero_positions[0]: expected a mapping"),
        ({"zero_positions": []},
         "experiments.quantize.zero_positions: expected a non-empty list"),
    ])
    def test_collected_by_parse_config(self, tmp_path, spec, problem):
        (found,) = _experiment_problems(tmp_path, "quantize", spec)
        assert found.startswith(problem)

    def test_nan_n_constant_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "quantize",
            _set(("experiments", "quantize"), {"n_constant": math.nan}))
        assert "experiments.quantize.n_constant must be finite" in err
        assert error["problems"] == [
            "experiments.quantize.n_constant must be finite, got nan"]


class TestEvValidation:
    @pytest.mark.parametrize("spec,problem", [
        ({"offsets": [0.0, math.nan]}, "experiments.ev.offsets[1] must be finite"),
        ({"offsets": []}, "experiments.ev.offsets: expected a non-empty list"),
        ({"coordinate": -1}, "experiments.ev.coordinate must be an integer in [0, 1)"),
        ({"coordinate": 1}, "experiments.ev.coordinate must be an integer in [0, 1)"),
        ({"coordinate": 0.5}, "experiments.ev.coordinate must be an integer in [0, 1)"),
        ({"coordinate": math.nan}, "experiments.ev.coordinate must be finite"),
    ])
    def test_collected_by_parse_config(self, tmp_path, spec, problem):
        (found,) = _experiment_problems(tmp_path, "ev", spec)
        assert found.startswith(problem)

    def test_nan_offset_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "ev",
            _set(("experiments", "ev"), {"offsets": [0.0, math.nan]}))
        assert "experiments.ev.offsets[1] must be finite" in err
        assert error["problems"] == [
            "experiments.ev.offsets[1] must be finite, got nan"]


class TestGluingDeltaValidation:
    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf], math.nan,
                                     {"re": -math.inf}])
    def test_non_finite_delta(self, tmp_path, bad):
        edit = _set(("surface", "gluings", "0"), {"delta": bad})
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, edit))
        (problem,) = err.value.problems
        assert problem.startswith("surface.gluings.0.delta must be finite")

    def test_finite_delta_accepted(self, tmp_path):
        edit = _set(("surface", "gluings", "0"), {"delta": [1e-8, 0.0]})
        assert parse_config(neck_config(tmp_path, edit)).gluings[0] == 1e-8

    def test_nan_delta_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "solve",
            _set(("surface", "gluings", "0"), {"delta": [math.nan, 0.0]}))
        assert "surface.gluings.0.delta must be finite" in err
        assert error["problems"] == [
            "surface.gluings.0.delta must be finite, got [nan, 0.0]"]


class TestQuasimapZeroValidation:
    @pytest.mark.parametrize("zeros,problem", [
        ([[{"r": math.nan, "theta": 0.1}]], "quasimap.zeros.u[0][0].r must be finite"),
        ([[{"r": -4.0, "theta": math.inf}]],
         "quasimap.zeros.u[0][0].theta must be finite"),
        ([[{"r": -4.0}]], "quasimap.zeros.u[0][0]: missing theta"),
        ([[3.0]], "quasimap.zeros.u[0][0]: expected a mapping"),
        ([3.0], "quasimap.zeros.u[0]: expected a list"),
        (3.0, "quasimap.zeros.u: expected a list per coordinate"),
    ])
    def test_collected_by_parse_config(self, tmp_path, zeros, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(neck_config(tmp_path, _set(("quasimap", "zeros", "u"), zeros)))
        (found,) = err.value.problems
        assert found.startswith(problem)

    def test_coordinate_without_zeros_accepted(self, tmp_path):
        cfg = parse_config(neck_config(tmp_path, _set(("quasimap", "zeros", "u"), [[]])))
        assert cfg.quasimap.zeros["u"] == ((),)

    def test_nan_zero_exits_with_config_error(self, tmp_path, capsys):
        err, error = _main_config_error(
            tmp_path, capsys, "solve",
            _set(("quasimap", "zeros", "u"), [[{"r": math.nan, "theta": 0.1}]]))
        assert "quasimap.zeros.u[0][0].r must be finite" in err
        assert error["problems"] == [
            "quasimap.zeros.u[0][0].r must be finite, got nan"]


class TestAsymptoticsAnchorValidation:
    def test_unknown_anchors_exit_with_config_error(self, tmp_path, capsys):
        anchors = [["leg", 9], ["bogus"], ["node", 1], ["node", "0"], ["leg", 2],
                   ["node", 0]]
        edit = _set(("quasimap", "asymptotics"),
                    [{"anchor": a, "value": [[1.0, 0.0]]} for a in anchors])
        err, error = _main_config_error(tmp_path, capsys, "graph", edit)
        expected = [f"quasimap.asymptotics[{i}].anchor: {anchors[i]!r} is not "
                    "[leg, <marking>] or [node, <edge>] of the graph"
                    for i in range(4)]
        assert error["problems"] == expected
        assert all(f"configuration error: {p}" in err for p in expected)


class TestSolveKeys:
    def test_one_key_per_solve_config_field(self):
        fields = {f.name for f in dataclasses.fields(SolveConfig)}
        assert cli._TABLE["solve"][1].keys() == fields

    def test_damping_is_an_unknown_key(self, tmp_path, capsys):
        err, error = _main_config_error(tmp_path, capsys, "solve",
                                        _set(("solve", "damping"), False))
        assert error["problems"] == ["solve: unknown key 'damping'"]


def _graph_literal(tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    return ["graph", "--graph-json", str(path)]


def _config_args(tmp_path, edit):
    return ["graph", "--config", neck_config(tmp_path, edit)]


def _set_vertex_genus(value):
    def edit(data):
        data["graph"]["vertices"][0]["genus"] = value
    return edit


def _set_leg_index(value):
    def edit(data):
        data["graph"]["legs"][0]["index"] = value
    return edit


def _same(a, b):
    """Equal values of equal types all the way down; arrays compare exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")


class TestYamlLoader:
    """parse_config reads with libyaml when PyYAML has it; the pure-Python
    SafeLoader gives the same objects on every shipped config."""

    SHIPPED = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))

    @needs_libyaml
    def test_libyaml_is_the_loader(self):
        assert cli._YAML_LOADER is yaml.CSafeLoader

    @needs_libyaml
    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_loaders_give_equal_objects(self, path):
        with open(path) as fh:
            text = fh.read()
        assert _same(yaml.load(text, Loader=yaml.CSafeLoader),
                     yaml.load(text, Loader=yaml.SafeLoader))

    @needs_libyaml
    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_loaders_give_equal_run_configs(self, path, monkeypatch):
        with_libyaml = parse_config(path)
        monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        assert _same(with_libyaml, parse_config(path))

    @pytest.mark.parametrize("text", ["target: [1, 2\n", "target:\n\tn: 1\n"],
                             ids=["unclosed-bracket", "tab-indent"])
    def test_malformed_yaml_exits_with_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["graph", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: cannot read config:" in err
        assert "Traceback" not in err
        (artifact,) = tmp_path.glob("graph-*-error.json")
        assert load_json(artifact)["problems"][0].startswith("cannot read config:")


class TestEveryBadValueIsAConfigError:
    """Each case used to end in a traceback, or in a run on a truncated
    value; each now exits 2 with the problem named on stderr."""

    CASES = {
        "seed-not-a-number": (
            lambda tmp: _config_args(tmp, _set(("seed",), "abc")),
            "seed: not a number: 'abc'"),
        "target-n-fractional": (
            lambda tmp: _config_args(tmp, _set(("target", "n"), 1.5)),
            "target.n must be an integer >= 1, got 1.5"),
        "genus-not-a-number": (
            lambda tmp: _config_args(tmp, _set_vertex_genus("x")),
            "graph.vertices[0].genus: not a number: 'x'"),
        "genus-fractional": (
            lambda tmp: _config_args(tmp, _set_vertex_genus(0.5)),
            "graph.vertices[0].genus must be an integer >= 0, got 0.5"),
        "leg-index-not-a-number": (
            lambda tmp: _config_args(tmp, _set_leg_index("first")),
            "graph.legs[0].index: not a number: 'first'"),
        "components-a-list": (
            lambda tmp: _config_args(tmp, _set(("surface", "components"), [1, 2])),
            "surface.components: expected a mapping"),
        "gluings-a-list": (
            lambda tmp: _config_args(tmp, _set(("surface", "gluings"), [{"length": 20.0}])),
            "surface.gluings: expected a mapping"),
        "gluing-keys-of-mixed-types": (
            lambda tmp: _config_args(tmp, _set(("surface", "gluings"), {
                0: {"length": 20.0}, "1": {"broken": True}})),
            "surface.gluings: unknown edge 1"),
        "quasimap-a-list": (
            lambda tmp: _config_args(tmp, _set(("quasimap",), ["zeros"])),
            "quasimap: expected a mapping"),
        "graph-json-malformed": (
            lambda tmp: _graph_literal(tmp, "{bad"),
            "malformed graph literal: Expecting property name"),
        "graph-json-genus-not-a-number": (
            lambda tmp: _graph_literal(tmp, json.dumps(
                {"vertices": [{"id": "a", "genus": "x"}], "edges": [], "legs": []})),
            "malformed graph literal: genus must be an integer, got 'x'"),
        "graph-json-unhashable-endpoint": (
            lambda tmp: _graph_literal(tmp, json.dumps(
                {"vertices": [{"id": "a", "genus": 0}], "edges": [[["a"], "a"]]})),
            "malformed graph literal: unhashable type: 'list'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_with_config_error(self, tmp_path, capsys, case):
        args, problem = self.CASES[case]
        assert main(args(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"configuration error: {problem}" in err


def _shipped_args(tmp_path, shipped, edit):
    """solve on the shipped config edited by edit, writing under tmp_path/out."""
    with open(os.path.join(CONFIGS, shipped)) as fh:
        data = yaml.safe_load(fh)
    edit(data)
    data["out"] = str(tmp_path / "out")
    return ["solve", "--config", write_config(tmp_path, data)]


class TestMisspelledNumbers:
    """A complex number's mapping is checked like every other block, so a
    misspelled part is a problem rather than a silent zero; and a boolean is
    no number."""

    CASES = {
        "asymptotic-imag": (
            "connectedness.yaml",
            _set(("quasimap", "asymptotics"),
                 [{"anchor": ["node", 0], "value": [{"re": 1.0, "imag": 0.5}, 0.0]}]),
            "quasimap.asymptotics[0].value[0]: unknown key 'imag'"),
        "delta-real": (
            "neck_family.yaml", _set(("surface", "gluings", "0"), {"delta": {"real": 2.06e-9}}),
            "surface.gluings.0.delta: unknown key 'real'"),
        "h_r-boolean": (
            "neck_family.yaml", _set(("surface", "h_r"), True),
            "surface.h_r: not a number: True"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_with_config_error(self, tmp_path, capsys, case):
        shipped, edit, problem = self.CASES[case]
        assert main(_shipped_args(tmp_path, shipped, edit)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"configuration error: {problem}\n"
        (error_file,) = (tmp_path / "out").glob("solve-*-error.json")
        assert load_json(error_file)["problems"] == [problem]

    @pytest.mark.parametrize("value, delta", [
        ({"re": 2e-9}, 2e-9), ({"im": 1e-9}, 1e-9j), ([0.0, 1e-9], 1e-9j), (3e-9, 3e-9)])
    def test_each_form_read(self, tmp_path, value, delta):
        edit = _set(("surface", "gluings", "0"), {"delta": value})
        assert parse_config(neck_config(tmp_path, edit)).gluings[0] == delta


class TestHalfPlaneTarget:
    # weights that positively span exactly a half-plane, which is neither
    # collinear nor the whole plane; swapping coordinates 0 and 1 must not
    # change the verdict or the solution
    def test_both_coordinate_orders_solve(self, tmp_path, capsys):
        energies = []
        for name, weights in (("a", [[-1, 1, 0], [0, 0, 1]]), ("b", [[1, -1, 0], [0, 0, 1]])):
            data = json.loads(json.dumps(MINIMAL))
            data["target"] = {"n": 3, "k": 2, "weights": weights, "tau": [1.0, 1.0]}
            data["quasimap"] = {}
            out = tmp_path / name
            path = write_config(tmp_path, data, f"{name}.yaml")
            assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
            (summary,) = out.glob("solve-*.json")
            energies.append(load_json(summary)["total_energy"])
        assert energies[0] == energies[1]


def _renamed(node, old, new):
    """node with every string equal to old, key or value, replaced by new."""
    if isinstance(node, dict):
        return {_renamed(k, old, new): _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


class TestSocketsDecideTheChain:
    """Pieces follow the meshes' sockets, so neither vertex names nor the
    key order of the YAML change a run's bytes."""

    def _run(self, tmp_path, sub, data, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        out = tmp_path / name
        assert main([sub, "--config", str(path), "--out", str(out)]) == EXIT_OK
        return out

    @pytest.mark.parametrize("sub", ["solve", "neck"])
    def test_left_component_renamed(self, tmp_path, sub):
        # u renamed z sorts after v, its right-hand neighbour
        with open(NECK_CONFIG) as fh:
            data = yaml.safe_load(fh)
        ref = self._run(tmp_path, sub, data, "u")
        ren = self._run(tmp_path, sub, _renamed(data, "u", "z"), "z")
        (ref_hash,), (ren_hash,) = ({p.name[len(sub) + 1 : len(sub) + 13]
                                     for p in out.iterdir()} for out in (ref, ren))
        assert ref_hash != ren_hash
        assert ({p.name.replace(ren_hash, ref_hash): p.read_bytes() for p in ren.iterdir()}
                == {p.name: p.read_bytes() for p in ref.iterdir()})

    @pytest.mark.parametrize("sub", ["quantize", "ev"])
    def test_components_in_reverse_order(self, tmp_path, sub):
        # the zeros of quantize and ev go on the first component of piece 0
        with open(os.path.join(CONFIGS, "connectedness.yaml")) as fh:
            data = yaml.safe_load(fh)
        ref = self._run(tmp_path, sub, data, "ref")
        comps = data["surface"]["components"]
        data["surface"]["components"] = {v: comps[v] for v in reversed(list(comps))}
        rev = self._run(tmp_path, sub, data, "rev")
        assert ({p.name: p.read_bytes() for p in rev.iterdir()}
                == {p.name: p.read_bytes() for p in ref.iterdir()})

    LOOP = {"vertices": [{"id": "u", "genus": 0}], "edges": [["u", "u"]], "legs": []}
    TRIANGLE = {"vertices": [{"id": v, "genus": 0} for v in "uvw"],
                "edges": [["u", "v"], ["v", "w"], ["w", "u"]], "legs": []}

    @pytest.mark.parametrize("graph", [LOOP, TRIANGLE], ids=["loop", "triangle"])
    def test_glued_cycle_is_a_numerical_failure(self, tmp_path, capsys, graph):
        n = len(graph["edges"])
        data = json.loads(json.dumps(MINIMAL))
        data["graph"] = graph
        data["surface"]["components"] = {
            v["id"]: {"r_min": 0.0, "length": 10.0, "left": {"edge": (i - 1) % n},
                      "right": {"edge": i}}
            for i, v in enumerate(graph["vertices"])}
        data["surface"]["gluings"] = {str(e): {"length": 10.0, "twist": 0.0}
                                      for e in range(n)}
        data["quasimap"] = {}
        path = write_config(tmp_path, data)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: glued components form a cycle\n"
        (error_file,) = (tmp_path / "out").glob("solve-*-error.json")
        assert load_json(error_file)["error"] == "glued components form a cycle"

    def test_socket_off_its_edge_is_a_config_error(self, tmp_path, capsys):
        # w's left socket names edge 0, which joins u and v, not w
        with open(os.path.join(CONFIGS, "connectedness.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["graph"]["vertices"].append({"id": "w", "genus": 0})
        data["graph"]["edges"].append(["v", "w"])
        data["surface"]["components"]["w"] = {"r_min": 0.0, "length": 10.0,
                                              "left": {"edge": 0}, "right": {"edge": 1}}
        data["surface"]["gluings"]["1"] = {"broken": True}
        path = write_config(tmp_path, data)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        problem = "surface.components.w: edge 0 does not touch 'w'"
        assert capsys.readouterr().err == f"configuration error: {problem}\n"
        (error_file,) = (tmp_path / "out").glob("solve-*-error.json")
        assert load_json(error_file)["problems"] == [problem]

    def test_broken_self_node_solves(self, tmp_path):
        # both sockets of one component on a broken loop edge: its left end is
        # the node's "-" half and its right end the "+" half
        data = json.loads(json.dumps(MINIMAL))
        data["graph"] = {"vertices": [{"id": "w", "genus": 0}], "edges": [["w", "w"]],
                         "legs": []}
        data["surface"]["components"] = {"w": {"r_min": -10.0, "length": 20.0,
                                               "left": {"edge": 0}, "right": {"edge": 0}}}
        data["surface"]["gluings"] = {"0": {"broken": True}}
        data["quasimap"] = {"zeros": {"w": [[{"r": 0.0, "theta": 0.0}]]}}
        path = write_config(tmp_path, data)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        (summary_file,) = (tmp_path / "out").glob("solve-*.json")
        summary = load_json(summary_file)
        assert summary["converged"]
        assert summary["connect_gaps"]["0"] <= summary["tol_connect"]


class TestInternalError:
    def test_exit_4_with_one_line_and_an_artifact(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise ZeroDivisionError("a defect")

        monkeypatch.setitem(cli.SUBCOMMANDS, "graph", fail)
        path = neck_config(tmp_path, lambda data: None)
        assert main(["graph", "--config", path]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: ZeroDivisionError('a defect')\n"
        (error_file,) = (tmp_path / "out").glob("graph-*-error.json")
        error = load_json(error_file)
        assert error["error"] == "ZeroDivisionError('a defect')"
        assert "raise ZeroDivisionError" in error["traceback"]

    def test_config_error_inside_run_still_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["neck", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: neck experiment needs exactly one glued edge" in err


class TestRunWritesTheOutcome:
    """A subcommand returns (ok, summary, tables); run writes them and
    picks the exit code, and _failure reports a numerical failure."""

    def test_not_ok_exits_1_and_writes_its_artifacts(self, tmp_path, capsys, monkeypatch):
        header, rows = ["i", "x"], [(0, 0.5), (1, 0.25)]
        monkeypatch.setitem(cli.SUBCOMMANDS, "graph",
                            lambda cfg: (False, {"value": 2.0}, {"t": (header, rows)}))
        out = tmp_path / "out"
        path = write_config(tmp_path, MINIMAL)
        assert main(["graph", "--config", path, "--out", str(out)]) == EXIT_ASSERTION
        (summary_file,) = out.glob("graph-*.json")
        table_file = out / f"{summary_file.stem}-t.csv"
        assert capsys.readouterr().out == f"summary: {summary_file}\nt: {table_file}\n"
        assert load_json(summary_file) == {"value": 2.0,
                                           "schema_version": cli.SCHEMA_VERSION}
        assert table_file.read_text() == "i,x\n0,0.5\n1,0.25\n"

    def test_numerical_failure_with_an_unwritable_out(self, tmp_path, capsys):
        # a directory stands where the error artifact goes: it cannot be
        # written, and the run still ends as the numerical failure it is
        with open(os.path.join(CONFIGS, "connectedness.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["surface"]["break_radius"] = 1e308
        out = tmp_path / "out"
        path = write_config(tmp_path, data)
        (out / f"solve-{parse_config(path).content_hash()}-error.json").mkdir(parents=True)
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_NUMERICAL
        numerical, artifact = capsys.readouterr().err.splitlines()
        assert numerical.startswith("numerical failure: break radius 1e+308 is not a finite")
        assert artifact.startswith("cannot write the error artifact: ")


class TestOutputDirectory:
    """run makes the output directory before the subcommand runs: one that
    cannot be made is a configuration error, and nothing is solved."""

    @pytest.mark.parametrize("argv", [["graph"], ["solve", "--snapshots"]],
                             ids=["graph", "solve"])
    def test_out_naming_a_file_exits_2_before_any_solve(self, tmp_path, capsys,
                                                         monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "correspondence", no_solve)
        out = tmp_path / "out"
        out.write_text("")
        config = os.path.join(CONFIGS, "degree_one.yaml")
        assert main(argv + ["--config", config, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        config_error, artifact = captured.err.splitlines()
        assert config_error == ("configuration error: cannot create the output "
                                f"directory {out}: File exists")
        assert artifact.startswith("cannot write the error artifact: ")
        assert out.read_text() == ""


@pytest.mark.parametrize("subcommand", ["decay", "neck", "ev", "graph"])
def test_snapshots_outside_solve_is_a_usage_error(tmp_path, capsys, subcommand):
    path = write_config(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--config", path, "--snapshots"])
    assert exit_.value.code == EXIT_CONFIG
    assert "--snapshots applies only to the solve subcommand" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["solve", "quantize", "energy"])
def test_graph_json_outside_graph_is_a_usage_error(tmp_path, capsys, subcommand):
    path = write_config(tmp_path, MINIMAL)
    lit = tmp_path / "g.json"
    lit.write_text('{"vertices": [{"id": "a", "genus": 0}], "edges": [], "legs": []}')
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--config", path, "--graph-json", str(lit)])
    assert exit_.value.code == EXIT_CONFIG
    assert "--graph-json applies only to the graph subcommand" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_is_a_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exit_:
        main(["quantize", "--config", path, "--seed", "-1"])
    assert exit_.value.code == EXIT_CONFIG
    assert "--seed must be an integer >= 0" in capsys.readouterr().err


class TestEmitReportTables:
    # emit_report writes a table with one % over a row format built from
    # its column types; the bytes are those of formatting value by value
    ROWS = [
        (0, "leg-1", 1.0, -0.0, math.inf, True),
        (7, "b", 0.1 + 0.2, math.nan, 1e-300, False),
        (np.int64(-3), "", -math.inf, 1.2345678901234567, np.float64(2.0 / 3.0), True),
        (10**20, "x,y", 5e-324, 1.7976931348623157e308, -123456789.01234567, False),
    ]

    @staticmethod
    def _value_by_value(header, rows):
        lines = [",".join(header)]
        lines += [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
                  for row in rows]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("rows", [ROWS, ROWS[:1], []])
    def test_bytes_equal_formatting_value_by_value(self, tmp_path, rows):
        header = ["i", "name", "a", "b", "c", "flag"]
        paths = cli.emit_report(tmp_path, "t", {}, {"mixed": (header, rows)})
        with open(paths["mixed"], "rb") as fh:
            assert fh.read() == self._value_by_value(header, rows)
