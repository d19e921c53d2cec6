"""Configuration parsing, run orchestration, and report emission.

One YAML config file describes the target, the modular graph, the meshed
surface, the quasimap data, the solver settings and the experiment
parameters.  Every key is checked against one table (_TABLE) and every bad
value is one listed problem; the domain objects are built from checked
blocks only.  Subcommands: solve, decay, annulus, quantize, neck, ev, graph,
energy.  Artifacts are named by a content hash of the config so sweeps never
collide; identical (config, seed) reruns give byte-identical JSON.

Each subcommand returns (ok, summary, tables); run writes one <name>.json
summary plus one <name>-<table>.csv per table (solve --snapshots adds
<name>-field-<piece>.npy and its -header.json), or _failure one
<name>-error.json.  Exit codes: 0 success, 1 hard assertion failed,
2 configuration error (an output directory that cannot be made is one),
3 numerical failure, 4 internal error (any other exception: one line on
stderr, and its traceback in the error artifact).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from functools import partial

# One BLAS/OpenMP thread unless the caller chose otherwise, set before numpy
# loads its BLAS: a thread pool sums long dot products in pieces sized by the
# usable cores, which changes the last digits of the results from machine to
# machine, and keeps solve_all from forking (a library caller that imported
# numpy first keeps whatever pool numpy started).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import yaml

from . import VortexlabError
from . import experiments as xp
from .fields import constant_field, save_field
from .modgraph import (GraphError, ModularGraph, cyl_chains, graph_from_json,
                       is_stable, stabilize, total_genus)
from .quasimap import QuasimapData, build_seed, correspondence, correspondences
from .solver import SolveConfig, SolverError, newton_solve
from .surface import ComponentMesh, End, GluedSurface, SurfaceError, glue
from .target import TargetError, TargetSpace, kempf_ness, validate_chamber

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "emit_report", "main"]

SCHEMA_VERSION = 1

#: libyaml's safe loader when PyYAML was built with it: the same objects as
#: yaml.SafeLoader, parsed in C
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class ConfigError(VortexlabError, ValueError):
    """Carries every validation problem found in a config file, and the
    file's content when it could be read (it names the error artifact)."""

    def __init__(self, problems, raw=None):
        self.problems = list(problems)
        self.raw = raw
        super().__init__("; ".join(self.problems))


def _content_hash(raw: dict) -> str:
    # keys become strings first, so that keys of mixed types sort
    content = json.loads(json.dumps({k: v for k, v in raw.items() if k != "out"},
                                    default=str))
    blob = json.dumps(content, sort_keys=True)
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
    experiments: dict  # every block checked, defaults filled in (_experiment_table)
    seed: int
    out_dir: str
    raw: dict

    def surface(self) -> GluedSurface:
        return glue(self.components, self.graph, self.gluings,
                    self.sleeve_width, self.break_radius)

    def content_hash(self) -> str:
        return _content_hash(self.raw)


# -- the config table -----------------------------------------------------------
# A kind is a check function (value, name, problems) returning the checked
# value, or None with the problem appended; [kind] is a list of such values,
# (key kind, kind) a mapping with keys of its own and {key: (default, kind)}
# a table, a mapping with known keys.

REQUIRED = object()  # the default of a key that must be given


def _real(value, name: str, problems: list):
    """value as a float, finite or not; a boolean is no number."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    problems.append(f"{name}: not a number: {value!r}")
    return None


def _finite(value, name: str, problems: list, positive: bool = True):
    """value as a float that is finite and, if asked, positive."""
    number = _real(value, name, problems)
    if number is not None and (not math.isfinite(number) or (positive and number <= 0)):
        need = "finite and positive" if positive else "finite"
        problems.append(f"{name} must be {need}, got {value!r}")
        return None
    return number


_signed = partial(_finite, positive=False)


def _numbers(value, name: str, problems: list, positive: bool = True):
    """value as a non-empty list of numbers each checked by _finite."""
    if not isinstance(value, (list, tuple)) or not value:
        problems.append(f"{name}: expected a non-empty list")
        return None
    return _check(value, [partial(_finite, positive=positive)], name, problems)


def _lengths(value, name: str, problems: list):
    """value checked by _numbers, no two lengths sharing the L<length:g>
    key that names their profile artifact and summary entries."""
    lengths = _numbers(value, name, problems)
    keys = set()
    for i, length in enumerate(lengths or ()):
        key = f"L{length:g}"
        if key in keys:
            problems.append(f"{name}[{i}]: length {value[i]!r} repeats an earlier "
                            f"one (both are {key})")
            return None
        keys.add(key)
    return lengths


def _integer(value, name: str, problems: list, lo=0, hi=None, positive=False):
    """value checked by _finite as an int >= lo and < hi (None: no bound)."""
    # a boolean gets this kind's message below, not _real's
    number = 0.5 if isinstance(value, bool) else _finite(value, name, problems, positive)
    if number is None:
        return None
    if (not number.is_integer()
            or (lo is not None and number < lo) or (hi is not None and number >= hi)):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi})"
        problems.append(f"{name} must be an integer{bound}, got {value!r}")
        return None
    return int(number)


def _of_type(types, what: str):
    """The kind of the values of the given types (bool only if named)."""
    def check(value, name: str, problems: list):
        if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
            return value
        problems.append(f"{name} must be {what}, got {value!r}")
        return None
    return check


_flag = _of_type((bool,), "true or false")
_name = _of_type((str, int), "a string or an integer")


def _window(value, name: str, problems: list):
    """value as two finite numbers (lo, hi) with lo < hi."""
    pair = _numbers(value, name, problems, positive=False)
    if pair is not None and (len(pair) != 2 or not pair[0] < pair[1]):
        problems.append(
            f"{name} must be two numbers [lo, hi] with lo < hi, got {value!r}")
        return None
    return None if pair is None else tuple(pair)


def _end(value, name: str, problems: list):
    """value if it names a cylinder end."""
    if value not in ("left", "right"):
        problems.append(f"{name} must be 'left' or 'right', got {value!r}")
        return None
    return value


def _complex(value, name: str, problems: list):
    """value as a finite complex number: a number, [re, im] or {re, im},
    each part checked by _real."""
    if isinstance(value, dict):
        parts = _check(value, {"re": (0.0, _real), "im": (0.0, _real)}, name, problems)
        parts = parts and (parts["re"], parts["im"])
    elif not isinstance(value, (list, tuple)):
        parts = (_real(value, name, problems), 0.0)
    elif len(value) == 2:
        parts = _check(value, [_real], name, problems)
    else:
        problems.append(f"{name}: not a complex number: {value!r}")
        return None
    if parts is None or None in parts:
        return None
    number = complex(*parts)
    if not cmath.isfinite(number):
        problems.append(f"{name} must be finite, got {value!r}")
        return None
    return number


def _zero_positions(value, name: str, problems: list, empty: bool = False):
    """value as a list of complex zeros r + i theta, each given as a mapping
    with finite r and theta, non-empty unless empty."""
    if not isinstance(value, (list, tuple)) or not (value or empty):
        problems.append(f"{name}: expected a {'' if empty else 'non-empty '}list")
        return None
    zeros = _check(value, [{"r": (REQUIRED, _signed), "theta": (REQUIRED, _signed)}],
                   name, problems)
    return None if zeros is None else [complex(z["r"], z["theta"]) for z in zeros]


def _zeros(value, name: str, problems: list):
    """value as a tuple over coordinates of each coordinate's zeros."""
    if not isinstance(value, (list, tuple)):
        problems.append(f"{name}: expected a list per coordinate")
        return None
    zeros = _check(value, [partial(_zero_positions, empty=True)], name, problems)
    return None if zeros is None else tuple(map(tuple, zeros))


def _cylinder_end(value, name: str, problems: list):
    """value as an End: {leg: marking} or {edge: id}."""
    end = _check(value, {"leg": (None, _integer), "edge": (None, _integer)},
                 name, problems)
    if end is not None and end["leg"] is not None:
        return End("truncation", ("leg", end["leg"]))
    if end is not None and end["edge"] is not None:
        return End("socket", edge=end["edge"])
    if end is not None:
        problems.append(f"{name}: needs 'leg' or 'edge'")
    return None


def _gluing(value, name: str, problems: list):
    """A gluing as its parameter delta: 0 when broken, else the given delta
    or exp(-(length + i twist))."""
    g = _check(value, {"broken": (False, _flag), "delta": (None, _complex),
                       "length": (None, _finite), "twist": (0.0, _signed)},
               name, problems)
    if g is None or g["broken"] or g["delta"] is not None:
        return None if g is None else 0 if g["broken"] else g["delta"]
    if g["length"] is None:
        problems.append(f"{name}: missing length")
        return None
    return cmath.exp(complex(-g["length"], -g["twist"]))


_TABLE = {
    "target": (REQUIRED, {
        "n": (REQUIRED, partial(_integer, lo=1)),
        "k": (REQUIRED, partial(_integer, lo=1)),
        "weights": (REQUIRED, [[partial(_integer, lo=None)]]),
        "tau": (REQUIRED, [_real]),  # TargetSpace checks that it is finite
    }),
    "graph": (REQUIRED, {  # a graph_from_json literal
        "vertices": (REQUIRED, [{"id": (REQUIRED, _name), "genus": (REQUIRED, _integer)}]),
        "edges": ([], [[_name]]),
        "legs": ([], [{"index": (REQUIRED, _integer), "vertex": (REQUIRED, _name)}]),
    }),
    "surface": (REQUIRED, {
        "n_theta": (REQUIRED, partial(_integer, lo=None, positive=True)),
        "h_r": (REQUIRED, _finite),
        "sleeve_width": (8.0, _finite),
        "break_radius": (12.0, _finite),
        "components": ({}, (_name, {"length": (REQUIRED, _finite),
                                    "r_min": (None, _signed),  # else -length / 2
                                    "left": (REQUIRED, _cylinder_end),
                                    "right": (REQUIRED, _cylinder_end)})),
        "gluings": ({}, (_integer, _gluing)),
    }),
    "quasimap": ({}, {
        "zeros": ({}, (_name, _zeros)),
        "asymptotics": ([], [{"anchor": (REQUIRED, [_name]),
                              "value": (REQUIRED, [_complex])}]),
    }),
    "solve": ({}, {  # the types; SolveConfig checks the values
        "newton_tol": (SolveConfig.newton_tol, _real),
        "max_newton": (SolveConfig.max_newton, partial(_integer, lo=None)),
        "cg_tol": (SolveConfig.cg_tol, _real),
        "max_cg": (SolveConfig.max_cg, partial(_integer, lo=None)),
        "preconditioner": (SolveConfig.preconditioner, _name),
    }),
    "experiments": ({}, None),  # _experiment_table, once the target is known
    "seed": (0, _integer),
    "out": ("out", _name),
}


def _experiment_table(n_coordinates) -> dict:
    """Every experiments.<name>.<key> the subcommands read."""
    return {
        "decay": ({}, {"window": ((5.0, 15.0), _window), "end": ("right", _end)}),
        "annulus": ({}, {"t_values": ((0, 2, 4, 6, 8), partial(_numbers, positive=False)),
                         "perturbation": (0.05, _signed)}),
        "energy": ({}, {"tolerance": (0.02, _finite)}),
        "quantize": ({}, {"n_constant": (5, _integer),
                          "zero_positions": ([{"r": 0.0, "theta": 0.0}], _zero_positions)}),
        "neck": ({}, {"lengths": ((10.0, 20.0, 40.0), _lengths)}),
        "ev": ({}, {"offsets": ((0.0, 0.2, 0.4), partial(_numbers, positive=False)),
                    "coordinate": (0, partial(_integer, hi=n_coordinates))}),
    }


def _fields(value: dict, table: dict, name: str, problems: list) -> dict:
    """The entries of mapping value checked against table.  A key left out
    takes its default (REQUIRED: a problem), and so does a null one whose
    default is an empty block or list; a key the table does not know is a
    problem.  A failed entry, or a left-out one without default, is None."""
    where = f"{name}: " if name else ""
    problems += [f"{where}unknown key {key!r}"
                 for key in sorted(value.keys() - table.keys(), key=str)]
    out = {}
    for key, (default, kind) in table.items():
        entry = value.get(key, default)
        if entry is None and isinstance(default, (dict, list)):
            entry = default
        if entry is REQUIRED:
            problems.append(f"{where}missing {key}" if name else f"missing block: {key}")
            entry = None
        elif kind is not None and (entry is not None or default is not None):
            entry = _check(entry, kind, f"{name}.{key}" if name else key, problems)
        out[key] = entry
    return out


def _check(value, kind, name: str, problems: list):
    """value checked against kind; None when any part of it fails."""
    if callable(kind):
        return kind(value, name, problems)
    listed = isinstance(kind, list)
    if not isinstance(value, (list, tuple) if listed else dict):
        problems.append(f"{name}: expected a {'list' if listed else 'mapping'}")
        return None
    before = len(problems)
    if listed:
        out = [_check(v, kind[0], f"{name}[{i}]", problems) for i, v in enumerate(value)]
    elif isinstance(kind, tuple):
        out = {kind[0](k, f"{name}.{k}", problems): _check(v, kind[1], f"{name}.{k}", problems)
               for k, v in value.items()}
    else:
        out = _fields(value, kind, name, problems)
    return out if len(problems) == before else None


# -- domain objects, built from checked blocks only ----------------------------

def _meshes(spec: dict, graph: ModularGraph, problems: list) -> dict:
    """ComponentMesh per meshed vertex of a checked surface block."""
    out = {}
    for vid, c in spec["components"].items():
        where = f"surface.components.{vid}"
        found = [] if vid in graph.genus else [
            f"surface.components: unknown vertex {vid!r}"]
        for end in (c["left"], c["right"]):
            if end.anchor and end.anchor[1] not in [i for i, _ in graph.legs]:
                found.append(f"{where}: unknown marking {end.anchor[1]}")
            if end.edge is not None and end.edge >= len(graph.edges):
                found.append(f"{where}: unknown edge {end.edge}")
            elif end.edge is not None and vid not in graph.edges[end.edge]:
                found.append(f"{where}: edge {end.edge} does not touch {vid!r}")
        rings = c["length"] / spec["h_r"]
        if not math.isfinite(rings):
            found.append(f"{where}: length / h_r is not finite")
        problems += found
        try:
            if not found:
                r_min = -c["length"] / 2 if c["r_min"] is None else c["r_min"]
                out[vid] = ComponentMesh(round(rings) + 1, spec["n_theta"],
                                         spec["h_r"], r_min, c["left"], c["right"])
        except SurfaceError as exc:
            problems.append(f"{where}: {exc}")
    return out


def parse_config(path) -> RunConfig:
    """Read a config file, check every key against _TABLE and build the
    domain objects from the blocks that passed; a ConfigError lists every
    problem found."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a mapping, got {type(raw).__name__}"])

    problems = []
    spec = _fields(raw, _TABLE, "", problems)
    t, g, s, q = (spec[key] for key in ("target", "graph", "surface", "quasimap"))
    target = graph = quasimap = solve = None
    components, gluings = {}, {}
    try:
        if t is not None:
            target = TargetSpace(t["n"], t["k"], t["weights"], t["tau"])
            validate_chamber(target)
    except TargetError as exc:
        problems.append(f"target: {exc}")
        target = None
    try:
        graph = None if g is None else graph_from_json(g)
    except GraphError as exc:
        problems.append(f"graph: {exc}")
    if None not in (graph, s):
        components = _meshes(s, graph, problems)
        gluings = {e: d for e, d in s["gluings"].items() if e < len(graph.edges)}
        problems += [f"surface.gluings: unknown edge {e}"
                     for e in s["gluings"] if e not in gluings]
    if None not in (graph, q):
        problems += [f"quasimap.zeros: unknown vertex {vid!r}"
                     for vid in q["zeros"] if vid not in graph.genus]
        anchors = ({("leg", j) for j, _ in graph.legs}
                   | {("node", e) for e in range(len(graph.edges))})
        problems += [f"quasimap.asymptotics[{i}].anchor: {a['anchor']!r} is not "
                     "[leg, <marking>] or [node, <edge>] of the graph"
                     for i, a in enumerate(q["asymptotics"])
                     if tuple(a["anchor"]) not in anchors]
    if None not in (graph, target, q):
        asymptotics = {tuple(a["anchor"]): a["value"] for a in q["asymptotics"]}
        problems += [f"quasimap.asymptotics {anchor}: needs {target.n} values"
                     for anchor, value in asymptotics.items() if len(value) != target.n]
        quasimap = QuasimapData(graph, target, q["zeros"], asymptotics, dict(gluings))
    try:
        solve = None if spec["solve"] is None else SolveConfig(**spec["solve"])
    except SolverError as exc:
        problems.append(f"solve: {exc}")
    experiments = _check(spec["experiments"],
                         _experiment_table(None if target is None else target.n),
                         "experiments", problems)
    if problems:
        raise ConfigError(problems, raw)
    return RunConfig(target, graph, components, gluings, s["sleeve_width"],
                     s["break_radius"], quasimap, solve, experiments, spec["seed"],
                     str(spec["out"]), raw)


# -- report emission ----------------------------------------------------------

def emit_report(out_dir, name, summary: dict, tables: dict):
    """One JSON summary plus one CSV per table; returns the written paths.

    tables maps a name to (header, rows).  Each column holds values of one
    type, the first row's: a float column is written "%.17g", any other
    str(), with one % over the whole table."""
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
            row = ",".join("%.17g" if isinstance(x, float) else "%s"
                           for x in (rows[0] if rows else ())) + "\n"
            fh.write(row * len(rows) % tuple(x for r in rows for x in r))
        paths[tname] = cpath
    return paths


# -- subcommand implementations: (ok, summary, tables) from a checked config --

def _field_files(prefix, pi):
    """solve --snapshots' artifacts of piece pi: its array, then its header."""
    stem = f"{prefix}-field-{pi}"
    return {f"field-{pi}": stem + ".npy", f"field-{pi}-header": stem + "-header.json"}


def _run_solve(cfg: RunConfig, snapshots=None):
    """snapshots: the path prefix of per-piece field files, if any."""
    fam = correspondence(cfg.quasimap, cfg.surface(), cfg.solve)
    if snapshots:
        for pi, f in fam.fields.items():
            save_field(f, *_field_files(snapshots, pi).values())
    converged = all(r.converged for r in fam.reports.values())
    return converged, {
        "total_energy": fam.total_energy,
        "converged": converged,
        "newton_iterations": {str(k): r.newton_iterations
                              for k, r in fam.reports.items()},
        "residual_sup": {str(k): r.residual_sup[-1]
                         for k, r in fam.reports.items()},
        "connect_gaps": {str(k): v for k, v in fam.connect_gaps.items()},
        "tol_connect": fam.tol_connect,
        "evaluations": {str(k): fp.as_dict() for k, fp in fam.evaluations.items()},
    }, {}


def _run_decay(cfg: RunConfig):
    block = cfg.experiments["decay"]
    fam = correspondence(cfg.quasimap, cfg.surface(), cfg.solve)
    fit = xp.decay_fit(fam.fields[0], block["end"], block["window"],
                       fam.reports[0].ring_energy)
    summary = {"gamma_hat": fit.gamma_hat, "c_hat": fit.c_hat,
               "r_squared": fit.r_squared, "window": list(fit.window),
               "rejected": fit.rejected, "note": fit.note,
               "mass_scale_reference": xp.mass_scale(cfg.target)}
    rows = [(float(r), float(e), float(np.log(max(e, 1e-300))))
            for r, e in fit.samples]
    return (not fit.rejected and fit.gamma_hat > 0, summary,
            {"decay": (["r", "e_r", "log_e_r"], rows)})


def _run_annulus(cfg: RunConfig):
    block = cfg.experiments["annulus"]
    eps = block["perturbation"]
    surf = cfg.surface()
    point = kempf_ness(cfg.target, np.ones(cfg.target.n)).point
    f = constant_field(surf, 0, cfg.target, point)
    p = f.piece
    z = p.r[:, None] + 1j * p.h_theta * np.arange(p.n_theta)[None, :]
    f = f.with_fields(u=f.u * (1 + eps * np.exp(-(z - p.r[0])))[:, :, None])
    solved, _, report = newton_solve(f, cfg.solve)
    out_data = xp.annulus_check(solved, block["t_values"], report.ring_energy)
    summary = {key: out_data[key]
               for key in ("monotone", "delta_hat", "r_squared", "orbit_diameter")}
    rows = [(float(t), float(e)) for t, e in out_data["table"]]
    return out_data["monotone"], summary, {"annulus": (["T", "E_mid"], rows)}


def _run_quantize(cfg: RunConfig):
    block = cfg.experiments["quantize"]
    surf = cfg.surface()
    rng = np.random.default_rng(cfg.seed)
    seeds = []
    for _ in range(block["n_constant"]):
        v = rng.normal(size=cfg.target.n) + 1j * rng.normal(size=cfg.target.n)
        seeds.append(constant_field(surf, 0, cfg.target,
                                    kempf_ness(cfg.target, v).point))
    vertex = surf.pieces[0].strips[0].vertex
    for z0 in block["zero_positions"]:
        q = QuasimapData(cfg.graph, cfg.target, {vertex: ((z0,),)})
        seeds.append(build_seed(q, surf, 0))
    scan = xp.quantization_scan(seeds, cfg.solve)
    summary = {"gap": scan["gap"], "floor": scan["floor"], "band": list(scan["band"]),
               "band_empty": scan["band_empty"], "n_constant": scan["n_constant"],
               "pairing_reference": xp.pairing_value(cfg.target, 1)}
    rows = [(i, float(e)) for i, e in enumerate(scan["energies"])]
    return scan["band_empty"], summary, {"energies": (["seed", "energy"], rows)}


def _run_neck(cfg: RunConfig):
    lengths = cfg.experiments["neck"]["lengths"]
    (eid,) = cfg.gluings  # run() checks there is exactly one
    fam = xp.neck_family(lambda L: (cfg.graph, cfg.components, eid),
                         lambda L: cfg.quasimap, lengths, cfg.solve, cfg.sleeve_width,
                         cfg.break_radius)
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
    return True, summary, tables


def _run_ev(cfg: RunConfig):
    offsets = cfg.experiments["ev"]["offsets"]
    coord = cfg.experiments["ev"]["coordinate"]
    surf = cfg.surface()
    base = cfg.quasimap
    vertex = surf.pieces[0].strips[0].vertex
    members = []
    for off in offsets:
        zeros = dict(base.zeros)
        zls = list(zeros.get(vertex, tuple(() for _ in range(cfg.target.n))))
        while len(zls) <= coord:
            zls.append(())
        zls[coord] = tuple(z + off for z in zls[coord]) or (complex(off, 0.0),)
        zeros[vertex] = tuple(zls)
        members.append((QuasimapData(base.graph, base.target, zeros,
                                     base.asymptotics, base.deltas), surf))
    dists = xp.ev_continuity(correspondences(members, cfg.solve))
    summary = {"offsets": offsets,
               "distances": {str(k): v for k, v in dists.items()}}
    rows = [(leg, float(offsets[i]), float(offsets[i + 1]), float(d))
            for leg, ds in sorted(dists.items()) for i, d in enumerate(ds)]
    return True, summary, {"distances": (["leg", "from", "to", "distance"], rows)}


def _graph_summary(g) -> dict:
    """The graph report, from a config's graph block or a --graph-json literal."""
    summary = {"total_genus": total_genus(g), "n_markings": g.n_markings,
               "stable": is_stable(g)}
    try:
        summary["stabilization_vertices"] = len(stabilize(g).genus)
        summary["cylinder_chains"] = [{"kind": c.kind, "length": len(c.vertices)}
                                      for c in cyl_chains(g).chains]
    except GraphError as exc:
        summary["stabilization_error"] = str(exc)
    return summary


def _run_graph(cfg: RunConfig):
    return True, _graph_summary(cfg.graph), {}


def _run_energy(cfg: RunConfig):
    fam = correspondence(cfg.quasimap, cfg.surface(), cfg.solve)
    degree = int(sum(f.lam_left[0] for f in fam.fields.values()))
    check = xp.energy_homology_check(fam.total_energy, degree, cfg.target)
    tol = cfg.experiments["energy"]["tolerance"]
    return degree == 0 or check["relative_gap"] <= tol, {**check, "degree": degree}, {}


SUBCOMMANDS = {"solve": _run_solve, "decay": _run_decay, "annulus": _run_annulus,
               "quantize": _run_quantize, "neck": _run_neck, "ev": _run_ev,
               "graph": _run_graph, "energy": _run_energy}


def run(cfg: RunConfig, subcommand: str, snapshots: bool = False):
    """Run one subcommand and write its summary and tables; returns (exit
    code, artifact paths), the code 0 if it returned ok and 1 if not.  Every
    subcommand but graph needs a meshed component, and neck exactly one
    glued edge, and an output directory made before anything runs (a
    ConfigError otherwise).  snapshots adds solve's field files (other
    subcommands ignore it).  A package error inside is a numerical failure:
    exit 3, reported by _failure."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"], cfg.raw)
    if subcommand != "graph" and not cfg.components:
        raise ConfigError([f"surface.components: {subcommand} needs at least one "
                           "meshed component"], cfg.raw)
    if subcommand == "neck" and len(cfg.gluings) != 1:
        raise ConfigError(["neck experiment needs exactly one glued edge"], cfg.raw)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create the output directory {cfg.out_dir}: "
                           f"{exc.strerror or exc}"], cfg.raw) from exc
    name = f"{subcommand}-{cfg.content_hash()}"
    extra = ({"snapshots": os.path.join(cfg.out_dir, name)}
             if snapshots and subcommand == "solve" else {})
    try:
        ok, summary, tables = SUBCOMMANDS[subcommand](cfg, **extra)
    except VortexlabError as exc:
        return _failure(EXIT_NUMERICAL, [f"numerical failure: {exc}"], {"error": str(exc)},
                        subcommand, cfg.raw, cfg.out_dir), {}
    paths = emit_report(cfg.out_dir, name, summary, tables)
    for pi in range(len(cfg.surface().pieces)) if extra else ():
        paths.update(_field_files(extra["snapshots"], pi))
    return (EXIT_OK if ok else EXIT_ASSERTION), paths


def _failure(code: int, lines: list, content: dict, subcommand: str, raw, out_dir):
    """Report a failed run, the one writer of error artifacts: lines on
    stderr and, when the output directory is named (--out, the config's out
    key, or run's config), content as an error artifact named like the
    run's; returns code."""
    for line in lines:
        print(line, file=sys.stderr)
    if out_dir is None and raw is not None and "out" in raw:
        out_dir = str(raw["out"])
    if out_dir is not None:
        name = f"{subcommand}-{_content_hash(raw) if raw is not None else 'config'}"
        try:
            emit_report(out_dir, f"{name}-error", content, {})
        except OSError as err:
            print(f"cannot write the error artifact: {err}", file=sys.stderr)
    return code


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
                        help="write per-piece field snapshots (solve only)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be an integer >= 0")
    if args.snapshots and args.subcommand != "solve":
        parser.error("--snapshots applies only to the solve subcommand")
    if args.graph_json is not None and args.subcommand != "graph":
        parser.error("--graph-json applies only to the graph subcommand")

    cfg = None
    try:
        if args.subcommand == "graph" and args.graph_json:
            try:
                with open(args.graph_json) as fh:
                    g = graph_from_json(fh.read())
            except (OSError, GraphError) as exc:
                raise ConfigError([str(exc)]) from exc
            print(json.dumps({**_graph_summary(g), "schema_version": SCHEMA_VERSION},
                             sort_keys=True))
            return EXIT_OK
        if not args.config:
            raise ConfigError(["--config is required"])
        cfg = parse_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        code, paths = run(cfg, args.subcommand, snapshots=args.snapshots)
    except ConfigError as exc:
        return _failure(EXIT_CONFIG, [f"configuration error: {p}" for p in exc.problems],
                        {"error": str(exc), "problems": exc.problems},
                        args.subcommand, exc.raw, args.out)
    except Exception as exc:  # anything else is a defect of the program
        return _failure(EXIT_INTERNAL, [f"internal error: {exc!r}"],
                        {"error": repr(exc), "traceback": traceback.format_exc()},
                        args.subcommand, None if cfg is None else cfg.raw, args.out)
    for label, path in sorted(paths.items()):
        print(f"{label}: {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
