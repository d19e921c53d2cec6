"""Configuration parsing, run orchestration, and report emission.

One YAML config file describes the target, the modular graph, the meshed
surface, the quasimap data, the solver settings and the experiment
parameters.  Subcommands: solve, decay, annulus, quantize, neck, ev, graph,
energy.  Artifacts are named by a content hash of the config so sweeps never
collide; identical (config, seed) reruns give byte-identical JSON.

Exit codes: 0 success, 1 hard assertion failed, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import experiments as xp
from .fields import FieldError, save_field
from .modgraph import (
    GraphError,
    ModularGraph,
    cyl_chains,
    graph_from_json,
    is_stable,
    stabilize,
    total_genus,
)
from .quasimap import QuasimapData, QuasimapError, build_seed, correspondence
from .solver import SolveConfig, SolverError, newton_solve
from .surface import ComponentMesh, End, GluedSurface, SurfaceError, glue
from .target import TargetError, TargetSpace, validate_chamber

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "emit_report", "main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Carries every validation problem found in a config file, and the
    file's content when it could be read (it names the error artifact)."""

    def __init__(self, problems, raw=None):
        self.problems = list(problems)
        self.raw = raw
        super().__init__("; ".join(self.problems))


def _content_hash(raw: dict) -> str:
    content = {k: v for k, v in raw.items() if k != "out"}
    blob = json.dumps(content, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class RunConfig:
    target: TargetSpace
    graph: ModularGraph
    components: dict
    gluings: dict
    sleeve_width: float
    break_radius: float
    quasimap: QuasimapData
    solve: SolveConfig
    experiments: dict  # every block checked, defaults filled in (_experiments)
    seed: int
    out_dir: str
    raw: dict

    def surface(self) -> GluedSurface:
        return glue(self.components, self.graph, self.gluings,
                    self.sleeve_width, self.break_radius)

    def content_hash(self) -> str:
        return _content_hash(self.raw)


def _complex_from(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, dict):
        return complex(value.get("re", 0.0), value.get("im", 0.0))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ValueError(f"cannot read complex value from {value!r}")


def _finite(value, name: str, problems: list, positive: bool = True):
    """value as a float that is finite and, if asked, positive; otherwise
    None, with the problem appended."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        problems.append(f"{name}: not a number: {value!r}")
        return None
    if not math.isfinite(number) or (positive and number <= 0):
        need = "finite and positive" if positive else "finite"
        problems.append(f"{name} must be {need}, got {value!r}")
        return None
    return number


def _number(block: dict, key: str, where: str, problems: list,
            default=None, positive: bool = True):
    """block[key] (or default) checked by _finite; None when missing."""
    value = block.get(key, default)
    if value is None:
        problems.append(f"{where}: missing {key}")
        return None
    return _finite(value, f"{where}.{key}", problems, positive)


def _numbers(value, name: str, problems: list, positive: bool = True):
    """value as a non-empty list of numbers each checked by _finite; None
    when any is not."""
    if not isinstance(value, (list, tuple)) or not value:
        problems.append(f"{name}: expected a non-empty list")
        return None
    out = [_finite(x, f"{name}[{i}]", problems, positive) for i, x in enumerate(value)]
    return None if None in out else out


def _integer(value, name: str, problems: list, hi=None):
    """value as an int >= 0, and < hi unless hi is None; None otherwise."""
    number = _finite(value, name, problems, positive=False)
    if number is None:
        return None
    if (isinstance(value, bool) or not number.is_integer() or number < 0
            or (hi is not None and number >= hi)):
        bound = ">= 0" if hi is None else f"in [0, {hi})"
        problems.append(f"{name} must be an integer {bound}, got {value!r}")
        return None
    return int(number)


def _window(value, name: str, problems: list):
    """value as two finite numbers (lo, hi) with lo < hi; None otherwise."""
    pair = _numbers(value, name, problems, positive=False)
    if pair is None:
        return None
    if len(pair) != 2 or not pair[0] < pair[1]:
        problems.append(
            f"{name} must be two numbers [lo, hi] with lo < hi, got {value!r}")
        return None
    return tuple(pair)


def _end(value, name: str, problems: list):
    """value if it names a cylinder end; None otherwise."""
    if value not in ("left", "right"):
        problems.append(f"{name} must be 'left' or 'right', got {value!r}")
        return None
    return value


def _zero_positions(value, name: str, problems: list, empty: bool = False):
    """value as a list of complex zeros r + i theta, each given as a mapping
    with finite r and theta, non-empty unless empty; None otherwise."""
    if not isinstance(value, (list, tuple)) or not (value or empty):
        problems.append(f"{name}: expected a {'' if empty else 'non-empty '}list")
        return None
    out = []
    for i, spec in enumerate(value):
        where = f"{name}[{i}]"
        if not isinstance(spec, dict):
            problems.append(f"{where}: expected a mapping with r and theta")
            out.append(None)
            continue
        r, theta = (_number(spec, key, where, problems, positive=False)
                    for key in ("r", "theta"))
        out.append(None if None in (r, theta) else complex(r, theta))
    return None if None in out else out


def _experiments(block, n_coordinates, problems: list) -> dict:
    """Every experiments.<name>.<key> the subcommands read, checked, with its
    default where the config leaves it out; unknown keys are ignored."""
    checks = {
        "decay": {"window": ((5.0, 15.0), _window), "end": ("right", _end)},
        "annulus": {"t_values": ((0, 2, 4, 6, 8), partial(_numbers, positive=False)),
                    "perturbation": (0.05, partial(_finite, positive=False))},
        "energy": {"tolerance": (0.02, _finite)},
        "quantize": {"n_constant": (5, _integer),
                     "zero_positions": ([{"r": 0.0, "theta": 0.0}], _zero_positions)},
        "neck": {"lengths": ((10.0, 20.0, 40.0), _numbers)},
        "ev": {"offsets": ((0.0, 0.2, 0.4), partial(_numbers, positive=False)),
               "coordinate": (0, partial(_integer, hi=n_coordinates))},
    }
    if not isinstance(block, dict):
        problems.append("experiments: expected a mapping")
        return {}
    out = {}
    for name, keys in checks.items():
        spec = block.get(name)
        if spec is None:
            spec = {}
        elif not isinstance(spec, dict):
            problems.append(f"experiments.{name}: expected a mapping")
            continue
        out[name] = {key: check(spec.get(key, default), f"experiments.{name}.{key}",
                                problems)
                     for key, (default, check) in keys.items()}
    return out


def parse_config(path) -> RunConfig:
    """Read and validate a config file, collecting every error found."""
    problems = []
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a mapping, got {type(raw).__name__}"])

    target = None
    tblock = raw.get("target")
    if not isinstance(tblock, dict):
        problems.append("missing block: target")
    else:
        try:
            target = TargetSpace(
                int(tblock.get("n", 0)), int(tblock.get("k", 0)),
                tblock.get("weights", []), tblock.get("tau", []),
            )
            validate_chamber(target)
        except (TargetError, TypeError, ValueError) as exc:
            problems.append(f"target: {exc}")
            target = None

    graph = None
    gblock = raw.get("graph")
    if not isinstance(gblock, dict):
        problems.append("missing block: graph")
    else:
        try:
            graph = graph_from_json(json.dumps(gblock))
        except (GraphError, TypeError) as exc:
            problems.append(f"graph: {exc}")

    components, gluings = {}, {}
    sleeve_width, break_radius = 8.0, 12.0
    sblock = raw.get("surface")
    if not isinstance(sblock, dict):
        problems.append("missing block: surface")
    elif graph is not None:
        sleeve_width = _number(sblock, "sleeve_width", "surface", problems, 8.0)
        break_radius = _number(sblock, "break_radius", "surface", problems, 12.0)
        specs = sblock.get("components") or {}
        # the mesh is required once a component is meshed
        n_theta, h_r = (
            _number(sblock, key, "surface", problems)
            if specs or key in sblock else None
            for key in ("n_theta", "h_r")
        )
        if n_theta is not None and not n_theta.is_integer():
            problems.append(
                f"surface.n_theta must be an integer, got {sblock['n_theta']!r}")
            n_theta = None

        def parse_end(spec, vid, side):
            if not isinstance(spec, dict):
                problems.append(f"surface.components.{vid}: missing {side} end")
                return End("truncation")
            if "leg" in spec:
                idx = spec["leg"]
                if graph is not None and idx not in [i for i, _ in graph.legs]:
                    problems.append(
                        f"surface.components.{vid}: unknown marking {idx}")
                return End("truncation", ("leg", idx))
            if "edge" in spec:
                eid = spec["edge"]
                if graph is not None and not 0 <= eid < len(graph.edges):
                    problems.append(f"surface.components.{vid}: unknown edge {eid}")
                return End("socket", edge=eid)
            problems.append(f"surface.components.{vid}: end needs 'leg' or 'edge'")
            return End("truncation")

        for vid, spec in specs.items():
            where = f"surface.components.{vid}"
            if graph is not None and vid not in graph.genus:
                problems.append(f"surface.components: unknown vertex {vid!r}")
                continue
            if not isinstance(spec, dict):
                problems.append(f"{where}: expected a mapping")
                continue
            length = _number(spec, "length", where, problems)
            if length is None:
                continue
            r_min = _number(spec, "r_min", where, problems, -length / 2,
                            positive=False)
            if None in (r_min, n_theta, h_r):
                continue
            try:
                n_r = int(round(length / h_r)) + 1
                components[vid] = ComponentMesh(
                    n_r, int(n_theta), h_r, r_min,
                    parse_end(spec.get("left"), vid, "left"),
                    parse_end(spec.get("right"), vid, "right"),
                )
            except (ValueError, SurfaceError, TypeError) as exc:
                problems.append(f"{where}: {exc}")
        for key, spec in (sblock.get("gluings") or {}).items():
            try:
                eid = int(key)
                if graph is not None and not 0 <= eid < len(graph.edges):
                    problems.append(f"surface.gluings: unknown edge {eid}")
                    continue
                if spec.get("broken"):
                    gluings[eid] = 0
                elif "delta" in spec:
                    delta = _complex_from(spec["delta"])
                    if cmath.isfinite(delta):
                        gluings[eid] = delta
                    else:
                        problems.append(f"surface.gluings.{key}.delta must be "
                                        f"finite, got {spec['delta']!r}")
                else:
                    where = f"surface.gluings.{key}"
                    L = _number(spec, "length", where, problems)
                    t = _number(spec, "twist", where, problems, 0.0,
                                positive=False)
                    if None not in (L, t):
                        gluings[eid] = cmath.exp(complex(-L, -t))
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                problems.append(f"surface.gluings.{key}: {exc}")

    quasimap = None
    qblock = raw.get("quasimap") or {}
    zeros = {}
    if graph is not None:
        for vid, coords in (qblock.get("zeros") or {}).items():
            if vid not in graph.genus:
                problems.append(f"quasimap.zeros: unknown vertex {vid!r}")
                continue
            where = f"quasimap.zeros.{vid}"
            if not isinstance(coords, (list, tuple)):
                problems.append(f"{where}: expected a list per coordinate")
                continue
            checked = [_zero_positions(coord, f"{where}[{j}]", problems, empty=True)
                       for j, coord in enumerate(coords)]
            if None not in checked:
                zeros[vid] = tuple(tuple(coord) for coord in checked)
    if graph is not None and target is not None:
        asympt = {}
        for item in qblock.get("asymptotics") or []:
            try:
                anchor = tuple(item["anchor"])
                anchor = (anchor[0],) + tuple(
                    int(x) if isinstance(x, (int, float)) else x for x in anchor[1:])
                asympt[anchor] = [_complex_from(v) for v in item["value"]]
                if len(asympt[anchor]) != target.n:
                    problems.append(
                        f"quasimap.asymptotics {anchor}: needs {target.n} values")
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"quasimap.asymptotics: {exc}")
        quasimap = QuasimapData(graph, target, zeros, asympt,
                                deltas=dict(gluings))

    try:
        solve = SolveConfig(**(raw.get("solve") or {}))
    except (SolverError, TypeError) as exc:
        problems.append(f"solve: {exc}")
        solve = SolveConfig()

    experiments = _experiments(raw.get("experiments") or {},
                               None if target is None else target.n, problems)

    if problems:
        raise ConfigError(problems, raw)
    return RunConfig(
        target=target,
        graph=graph,
        components=components,
        gluings=gluings,
        sleeve_width=sleeve_width,
        break_radius=break_radius,
        quasimap=quasimap,
        solve=solve,
        experiments=experiments,
        seed=int(raw.get("seed", 0)),
        out_dir=str(raw.get("out", "out")),
        raw=raw,
    )


# -- report emission ----------------------------------------------------------

def emit_report(out_dir, name, summary: dict, tables: dict):
    """One JSON summary plus one CSV per table; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    summary = dict(summary)
    summary["schema_version"] = SCHEMA_VERSION
    jpath = os.path.join(out_dir, f"{name}.json")
    with open(jpath, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1, default=float)
        fh.write("\n")
    paths["summary"] = jpath
    for tname, (header, rows) in tables.items():
        cpath = os.path.join(out_dir, f"{name}-{tname}.csv")
        with open(cpath, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        paths[tname] = cpath
    return paths


def _family_summary(fam) -> dict:
    return {
        "total_energy": fam.total_energy,
        "converged": all(r.converged for r in fam.reports.values()),
        "newton_iterations": {str(k): r.newton_iterations
                              for k, r in fam.reports.items()},
        "residual_sup": {str(k): r.residual_sup[-1]
                         for k, r in fam.reports.items()},
        "connect_gaps": {str(k): v for k, v in fam.connect_gaps.items()},
        "tol_connect": fam.tol_connect,
        "evaluations": {str(k): fp.as_dict() for k, fp in fam.evaluations.items()},
    }


def _total_bundle_degree(cfg: RunConfig) -> int:
    degs = np.asarray(cfg.quasimap.total_degree(), dtype=float)
    if not np.any(degs):
        return 0
    w = cfg.target.weights[0].astype(float)
    return int(round(float(np.max(degs / w))))


# -- subcommand implementations ------------------------------------------------

def _run_solve(cfg: RunConfig, out, name, snapshots=False):
    surf = cfg.surface()
    fam = correspondence(cfg.quasimap, surf, cfg.solve)
    summary = _family_summary(fam)
    tables = {}
    if snapshots:
        os.makedirs(out, exist_ok=True)
        for pi, f in fam.fields.items():
            csv = os.path.join(out, f"{name}-field-{pi}.csv")
            hdr = os.path.join(out, f"{name}-field-{pi}-header.json")
            save_field(f, csv, hdr)
    paths = emit_report(out, name, summary, tables)
    return EXIT_OK if summary["converged"] else EXIT_ASSERTION, paths


def _run_decay(cfg: RunConfig, out, name):
    block = cfg.experiments["decay"]
    surf = cfg.surface()
    fam = correspondence(cfg.quasimap, surf, cfg.solve)
    pi = sorted(fam.fields)[0]
    fit = xp.decay_fit(fam.fields[pi], block["end"], block["window"])
    summary = {
        "gamma_hat": fit.gamma_hat,
        "c_hat": fit.c_hat,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "rejected": fit.rejected,
        "note": fit.note,
        "mass_scale_reference": xp.mass_scale(cfg.target),
    }
    rows = [(float(r), float(e), float(np.log(max(e, 1e-300))))
            for r, e in fit.samples]
    paths = emit_report(out, name, summary, {"decay": (["r", "e_r", "log_e_r"], rows)})
    code = EXIT_OK if (not fit.rejected and fit.gamma_hat > 0) else EXIT_ASSERTION
    return code, paths


def _run_annulus(cfg: RunConfig, out, name):
    block = cfg.experiments["annulus"]
    eps = block["perturbation"]
    surf = cfg.surface()
    from .fields import constant_field
    from .target import kempf_ness

    point = kempf_ness(cfg.target, np.ones(cfg.target.n)).point
    f = constant_field(surf, 0, cfg.target, point)
    p = f.piece
    z = p.r[:, None] + 1j * p.h_theta * np.arange(p.n_theta)[None, :]
    f = f.with_fields(u=f.u * (1 + eps * np.exp(-(z - p.r[0])))[:, :, None])
    solved, _, _ = newton_solve(f, cfg.solve)
    out_data = xp.annulus_check(solved, block["t_values"])
    summary = {
        "monotone": out_data["monotone"],
        "delta_hat": out_data["delta_hat"],
        "r_squared": out_data["r_squared"],
        "orbit_diameter": out_data["orbit_diameter"],
    }
    rows = [(float(t), float(e)) for t, e in out_data["table"]]
    paths = emit_report(out, name, summary, {"annulus": (["T", "E_mid"], rows)})
    code = EXIT_OK if out_data["monotone"] else EXIT_ASSERTION
    return code, paths


def _run_quantize(cfg: RunConfig, out, name):
    block = cfg.experiments["quantize"]
    surf = cfg.surface()
    from .fields import constant_field
    from .target import kempf_ness

    rng = np.random.default_rng(cfg.seed)
    seeds = []
    for _ in range(block["n_constant"]):
        v = rng.normal(size=cfg.target.n) + 1j * rng.normal(size=cfg.target.n)
        seeds.append(constant_field(surf, 0, cfg.target,
                                    kempf_ness(cfg.target, v).point))
    vertex = next(iter(cfg.components))
    for z0 in block["zero_positions"]:
        q = QuasimapData(cfg.graph, cfg.target, {vertex: ((z0,),)})
        seeds.append(build_seed(q, surf, 0))
    scan = xp.quantization_scan(seeds, cfg.solve)
    summary = {
        "gap": scan["gap"],
        "floor": scan["floor"],
        "band": list(scan["band"]),
        "band_empty": scan["band_empty"],
        "n_constant": scan["n_constant"],
        "pairing_reference": xp.pairing_value(cfg.target, 1),
    }
    rows = [(i, float(e)) for i, e in enumerate(scan["energies"])]
    paths = emit_report(out, name, summary, {"energies": (["seed", "energy"], rows)})
    return (EXIT_OK if scan["band_empty"] else EXIT_ASSERTION), paths


def _run_neck(cfg: RunConfig, out, name):
    lengths = cfg.experiments["neck"]["lengths"]
    if len(cfg.gluings) != 1:
        raise ConfigError(["neck experiment needs exactly one glued edge"])
    (eid,) = cfg.gluings

    def components_factory(L):
        return cfg.graph, cfg.components, eid

    def q_factory(L):
        return cfg.quasimap

    fam = xp.neck_family(components_factory, q_factory, lengths, cfg.solve,
                         cfg.sleeve_width)
    summary = {"lengths": lengths, "m0": {}, "totals": {}, "bubble": {}}
    tables = {}
    for L, prof in fam["profiles"].items():
        key = f"L{L:g}"
        summary["m0"][key] = prof.m0
        summary["totals"][key] = prof.total_energy
        delta = min(prof.m0, xp.pairing_value(cfg.target, 1)) / 2.0
        s = xp.bubble_locator(prof, delta) if prof.m0 > 1e-8 else None
        summary["bubble"][key] = s
        rows = [(float(r), float(e)) for r, e in zip(prof.rho, prof.ring_energy)]
        tables[f"profile-{key}"] = (["rho", "ring_energy"], rows)
    paths = emit_report(out, name, summary, tables)
    return EXIT_OK, paths


def _run_ev(cfg: RunConfig, out, name):
    offsets = cfg.experiments["ev"]["offsets"]
    coord = cfg.experiments["ev"]["coordinate"]
    surf = cfg.surface()
    fams = []
    base = cfg.quasimap
    vertex = next(iter(cfg.components))
    for off in offsets:
        zeros = {v: tuple(tuple(z for z in zl) for zl in zls)
                 for v, zls in base.zeros.items()}
        zls = list(zeros.get(vertex, tuple(() for _ in range(cfg.target.n))))
        while len(zls) <= coord:
            zls.append(())
        zls[coord] = tuple(z + off for z in zls[coord]) or (complex(off, 0.0),)
        zeros[vertex] = tuple(zls)
        q = QuasimapData(base.graph, base.target, zeros, base.asymptotics,
                         base.deltas)
        fams.append(correspondence(q, surf, cfg.solve))
    dists = xp.ev_continuity(fams)
    summary = {"offsets": offsets,
               "distances": {str(k): v for k, v in dists.items()}}
    rows = []
    for leg, ds in sorted(dists.items()):
        for i, d in enumerate(ds):
            rows.append((leg, float(offsets[i]), float(offsets[i + 1]), float(d)))
    paths = emit_report(out, name, summary,
                        {"distances": (["leg", "from", "to", "distance"], rows)})
    return EXIT_OK, paths


def _run_graph(cfg: RunConfig, out, name):
    g = cfg.graph
    summary = {
        "total_genus": total_genus(g),
        "n_markings": g.n_markings,
        "stable": is_stable(g),
    }
    try:
        st = stabilize(g)
        summary["stabilization_vertices"] = len(st.genus)
        dec = cyl_chains(g)
        summary["cylinder_chains"] = [
            {"kind": c.kind, "length": len(c.vertices)} for c in dec.chains
        ]
    except GraphError as exc:
        summary["stabilization_error"] = str(exc)
    paths = emit_report(out, name, summary, {})
    return EXIT_OK, paths


def _run_energy(cfg: RunConfig, out, name):
    surf = cfg.surface()
    fam = correspondence(cfg.quasimap, surf, cfg.solve)
    degree = _total_bundle_degree(cfg)
    check = xp.energy_homology_check(fam.total_energy, degree, cfg.target)
    summary = dict(check)
    summary["degree"] = degree
    paths = emit_report(out, name, summary, {})
    tol = cfg.experiments["energy"]["tolerance"]
    ok = degree == 0 or check["relative_gap"] <= tol
    return (EXIT_OK if ok else EXIT_ASSERTION), paths


SUBCOMMANDS = {
    "solve": _run_solve,
    "decay": _run_decay,
    "annulus": _run_annulus,
    "quantize": _run_quantize,
    "neck": _run_neck,
    "ev": _run_ev,
    "graph": _run_graph,
    "energy": _run_energy,
}


def run(cfg: RunConfig, subcommand: str, snapshots: bool = False):
    """Run one subcommand; returns (exit code, artifact paths)."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    name = f"{subcommand}-{cfg.content_hash()}"
    out = cfg.out_dir
    try:
        if subcommand == "solve":
            return _run_solve(cfg, out, name, snapshots=snapshots)
        return SUBCOMMANDS[subcommand](cfg, out, name)
    except (SolverError, QuasimapError, TargetError, SurfaceError, FieldError,
            GraphError, xp.ExperimentError) as exc:
        _write_error(out, name, {"error": str(exc)})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL, {}


def _write_error(out_dir, name, content: dict) -> str:
    """<out_dir>/<name>-error.json holding content; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-error.json")
    with open(path, "w") as fh:
        json.dump({**content, "schema_version": SCHEMA_VERSION},
                  fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _config_failure(exc: ConfigError, subcommand: str, raw, out_dir) -> int:
    """Report a configuration error on stderr and, when the output directory
    is named (--out or the config's out key), as an error artifact named
    like the run's; returns the exit code."""
    for p in exc.problems:
        print(f"configuration error: {p}", file=sys.stderr)
    if out_dir is None and raw is not None and "out" in raw:
        out_dir = str(raw["out"])
    if out_dir is not None:
        name = f"{subcommand}-{_content_hash(raw) if raw is not None else 'config'}"
        try:
            _write_error(out_dir, name, {"error": str(exc), "problems": exc.problems})
        except OSError as err:
            print(f"cannot write the error artifact: {err}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="vortex equation laboratory on cylinders with gluing",
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=False,
                        help="YAML config file (required except for graph "
                             "with --graph-json)")
    parser.add_argument("--graph-json",
                        help="modular-graph JSON literal file for the graph "
                             "subcommand")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--snapshots", action="store_true",
                        help="write per-piece field snapshots (solve)")
    args = parser.parse_args(argv)

    if args.subcommand == "graph" and args.graph_json:
        try:
            with open(args.graph_json) as fh:
                g = graph_from_json(fh.read())
        except (OSError, GraphError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        summary = {"total_genus": total_genus(g), "stable": is_stable(g),
                   "n_markings": g.n_markings, "schema_version": SCHEMA_VERSION}
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK

    if not args.config:
        print("configuration error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        return _config_failure(exc, args.subcommand, exc.raw, args.out)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["seed"] = args.seed
    try:
        code, paths = run(cfg, args.subcommand, snapshots=args.snapshots)
    except ConfigError as exc:
        return _config_failure(exc, args.subcommand, cfg.raw, cfg.out_dir)
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
