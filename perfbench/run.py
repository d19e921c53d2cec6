"""vortexlab benchmark: one workload, one seed, a closed loop through cli.run.

Usage:
  python3 perfbench/run.py --workload {cylinder,neck,sweep,all} --seed N \
      --seconds S --trace {0,1}

A single caller runs the workload's operations one after another (each
``cli.parse_config`` + ``cli.run`` starts only after the previous returns),
pass after pass, with one BLAS/OpenMP thread.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` spends half the time on
untraced passes and half on traced ones and reports the per-layer metrics.
Every operation's outputs are checked (see checks.py).  The last line of
standard output is one JSON object; the full record (environment stamp,
failures, per-problem counts, ROADMAP cross-check) and the spans go to
.perfbench_work/<workload>-seed<N>-trace<T>/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: one thread for every BLAS/OpenMP runtime numpy or scipy may load
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: fresh processes timed per run for setup_s; the median is reported
SETUP_REPEATS = 5

#: a run always makes at least this many untraced passes, so that the
#: determinism check has two summaries to compare
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
    "energy_rel_gap.max": "frac",
}

#: per-layer metric -> the span it reads; each gets ".s" (total, outermost
#: occurrences only) and ".self_s", and the ones in COUNTED also ".calls"
SPAN_METRICS = {
    "solver.jacobian_apply": "solver.gauge_step_jacobian_apply",
    "solver.cg_solve": "solver.cg_solve",
    "solver.precond_setup": "solver.PatchedPreconditioner.__init__",
    "solver.precond_apply": "solver.PatchedPreconditioner.apply_symmetric",
    "solver.newton_solve": "solver.newton_solve",
    "solver.line_search": "solver.gauge_update",
    "fields.gram_field": "fields.gram_field",
    "fields.vortex_residual": "fields.vortex_residual",
    "fields.energy": "fields.energy",
    "fields.save_field": "fields.save_field",
    "quasimap.build_seed": "quasimap.build_seed",
    "quasimap.correspondence": "quasimap.correspondence",
    "target.kempf_ness_shift": "target.kempf_ness_shift",
    "target.validate_chamber": "target.validate_chamber",
    "surface.glue": "surface.glue",
    "surface.core_sleeve": "surface.core_sleeve",
    "cli.parse_config": "cli.parse_config",
    "cli.emit_report": "cli.emit_report",
    "cli.run": "cli.run",
    "experiments.decay_fit": "experiments.decay_fit",
    "experiments.annulus_check": "experiments.annulus_check",
    "experiments.quantization_scan": "experiments.quantization_scan",
    "experiments.neck_profile": "experiments.neck_profile",
    "experiments.ev_continuity": "experiments.ev_continuity",
}
COUNTED = ("solver.jacobian_apply", "solver.precond_apply", "fields.gram_field",
           "fields.vortex_residual", "quasimap.build_seed",
           "target.kempf_ness_shift")
#: counts that must repeat exactly for a fixed seed
REPEATING_COUNTS = ("solver.cg_iterations", "solver.jacobian_apply.calls",
                    "fields.gram_field.calls", "target.kempf_ness_shift.calls",
                    "solver.newton_iterations")
PROBLEMS = ("c400x64-d1", "c800x128-d1", "c800x128-d2",
            "neck-L10", "neck-L20", "neck-L40")

#: ROADMAP's baseline table, for the cross-check on ``cylinder``:
#: (what, problem, roadmap figure, low, high)
ROADMAP_BASELINE = (
    ("CG iterations per Newton step", "c400x64-d1", "108-112", 108, 112),
    ("CG iterations per Newton step", "c800x128-d1", "223-226", 223, 226),
    ("kempf_ness_shift calls", "c800x128-d1", "about 800 (803)", 760, 840),
    ("gram_field calls", "c800x128-d1", "896", 896, 896),
)


def per_layer_names():
    names = ["solver.cg_iterations"]
    names += [f"solver.cg_iters_per_newton.{p}" for p in PROBLEMS]
    for metric in SPAN_METRICS:
        if metric in COUNTED:
            names.append(f"{metric}.calls")
        names += [f"{metric}.s", f"{metric}.self_s"]
    names += ["solver.jacobian_apply.Msites_per_s", "solver.newton_iterations",
              "solver.line_search.trials", "solver.step_accept_ratio",
              "fields.save_field.bytes", "surface.sites", "cli.artifact_bytes"]
    for layer in tracing.MODULES:
        names += [f"{layer}.s", f"{layer}.self_s"]
    names += ["trace.overhead_frac", "trace.coverage", "trace.spans"]
    return names


def per_layer_unit(name):
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("Msites_per_s"):
        return "Msites/s"
    if name.endswith("bytes"):
        return "bytes"
    if name in ("solver.step_accept_ratio", "trace.overhead_frac", "trace.coverage"):
        return "frac"
    return "count"


# -- environment --------------------------------------------------------------

def environment(seed):
    import numpy
    import scipy
    import yaml

    try:
        # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ,
                                         GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vortexlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# -- one pass -----------------------------------------------------------------

class Pass:
    """Outcome of one closed-loop pass over a workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.problems = {}     # op label -> list of problems
        self.summaries = {}    # op label -> summary bytes
        self.gaps = {}         # op label -> relative energy gaps of its solves
        self.solves = 0        # piece solves of the operations that passed


def run_pass(cli, ops, configs, out_dir, reference=None, tracer=None):
    """Runs every operation once, then checks the outputs (untimed).

    ``reference`` holds the first pass's summary bytes; a summary that
    differs from it is a failure of that operation."""
    shutil.rmtree(out_dir, ignore_errors=True)
    # each pass starts from a collected heap, as a fresh CLI process would
    gc.collect()
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        try:
            cfg = cli.parse_config(configs[op.label])
            cfg.out_dir = out_dir
            code, paths = cli.run(cfg, op.subcommand, snapshots=op.snapshots)
            outcomes.append((op, code, paths, None))
        except Exception:  # a raising operation is a counted failure
            outcomes.append((op, None, {}, traceback.format_exc(limit=-1)))
    res = Pass()
    res.wall = time.perf_counter() - t0
    for op, code, paths, exc in outcomes:
        if exc is not None:
            res.problems[op.label] = ["raised: " + exc.strip().splitlines()[-1]]
            continue
        try:
            problems, raw, gaps = checks.check(op, code, paths)
        except Exception:  # unreadable outputs are a counted failure
            problems, raw, gaps = ["outputs unreadable: " + traceback.format_exc(limit=-1)
                                   .strip().splitlines()[-1]], None, []
        if raw is not None:
            res.summaries[op.label] = raw
            if reference is not None and reference.get(op.label) != raw:
                problems.append("summary bytes differ from the first pass")
        res.gaps[op.label] = gaps
        if problems:
            res.problems[op.label] = problems
        else:
            res.solves += op.solves
    return res


# -- set-up -------------------------------------------------------------------

def measure_setup(config_paths):
    """Median wall time of fresh processes that import vortexlab, parse every
    config and build each surface; a probe that fails is reported."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, probe, *config_paths],
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, ["setup probe timed out"]
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            return statistics.median(times), [f"setup probe exited {proc.returncode}: {tail}"]
    return statistics.median(times), []


# -- per-layer figures ----------------------------------------------------------

def layer_metrics(tracer, wall):
    """Per-layer figures of one traced pass."""
    names, layers = tracing.span_times(tracer.spans)
    get = lambda span, q: names.get(span, {}).get(q, 0)
    m = {}
    for metric, span in SPAN_METRICS.items():
        if metric in COUNTED:
            m[f"{metric}.calls"] = get(span, "calls")
        m[f"{metric}.s"] = get(span, "s")
        m[f"{metric}.self_s"] = get(span, "self_s")
    for layer in tracing.MODULES:
        m[f"{layer}.s"] = layers.get(layer, {}).get("s", 0.0)
        m[f"{layer}.self_s"] = layers.get(layer, {}).get("self_s", 0.0)
    newton = sum(s["newton_iterations"] for s in tracer.solves)
    trials = get("solver.gauge_update", "calls")
    jac_s = get("solver.gauge_step_jacobian_apply", "s")
    m["solver.cg_iterations"] = tracer.cg_iterations
    m["solver.newton_iterations"] = newton
    m["solver.line_search.trials"] = trials
    m["solver.step_accept_ratio"] = newton / trials if trials else 0.0
    m["solver.jacobian_apply.Msites_per_s"] = (tracer.jacobian_sites / jac_s / 1e6
                                                if jac_s else 0.0)
    for p in PROBLEMS:
        steps = [it for s in tracer.solves if s["problem"] == p
                 for it in s["cg_iterations"]]
        m[f"solver.cg_iters_per_newton.{p}"] = sum(steps) / len(steps) if steps else 0.0
    m["fields.save_field.bytes"] = tracer.field_bytes
    m["cli.artifact_bytes"] = tracer.artifact_bytes + tracer.field_bytes
    m["surface.sites"] = sum(s["shape"][0] * s["shape"][1] for s in tracer.solves)
    root_self = get(tracing.ROOT, "self_s")
    covered = sum(v["self_s"] for v in names.values()) - root_self
    m["trace.coverage"] = covered / wall
    m["trace.spans"] = len(tracer.spans)
    return m


def per_problem(tracer):
    """Per problem: Newton steps and CG iterations of each step."""
    out = {}
    for s in tracer.solves:
        entry = out.setdefault(s["problem"], {"shape": s["shape"], "solves": 0,
                                              "newton_iterations": 0,
                                              "cg_per_step": []})
        entry["solves"] += 1
        entry["newton_iterations"] += s["newton_iterations"]
        entry["cg_per_step"] += s["cg_iterations"]
    return out


def baseline_check(tracer):
    """ROADMAP's baseline figures next to the measured ones, as found."""
    problems = per_problem(tracer)
    kns = tracing.calls_by_op(tracer.spans, "target.kempf_ness_shift")
    gram = tracing.calls_by_op(tracer.spans, "fields.gram_field")
    rows = []
    for what, problem, figure, lo, hi in ROADMAP_BASELINE:
        if problem not in problems:
            continue
        if what.startswith("CG"):
            measured = problems[problem]["cg_per_step"]
        elif what.startswith("kempf"):
            measured = [kns.get(problem, 0)]
        else:
            measured = [gram.get(problem, 0)]
        rows.append({"what": what, "problem": problem, "roadmap": figure,
                     "measured": measured,
                     "agrees": all(lo <= x <= hi for x in measured)})
    return rows


# -- one workload ---------------------------------------------------------------

def run_workload(args):
    sys.path.insert(0, SRC)
    from vortexlab import cli

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed)
    out_dir = os.path.join(run_dir, "out")
    configs = workloads.write_configs(ops, os.path.join(run_dir, "configs"), out_dir)
    env_stamp = environment(args.seed)
    print("environment " + json.dumps(env_stamp, sort_keys=True), flush=True)

    record = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "environment": env_stamp, "problems": {}}
    setup_problems = []
    if not args.trace:
        setup_s, setup_problems = measure_setup(sorted(configs.values()))
    plain, traced, tracers = [], [], []
    reference = None
    start = time.perf_counter()

    def another(done, minimum, budget):
        # stop before a pass that would end past the budget
        return len(done) < minimum or (
            time.perf_counter() - start + done[-1].wall <= budget)

    budget = args.seconds / 2 if args.trace else args.seconds
    while another(plain, 1 if args.trace else MIN_PASSES, budget):
        p = run_pass(cli, ops, configs, out_dir, reference)
        reference = reference or p.summaries
        plain.append(p)
        print(f"pass {len(plain)} untraced wall {p.wall:.3f} s, "
              f"{len(p.problems)} failed", flush=True)
    while args.trace and another(traced, 1, args.seconds):
        tracer = tracing.Tracer()
        restore = tracer.install()
        try:
            p = run_pass(cli, ops, configs, out_dir, reference, tracer)
        finally:
            restore()
        traced.append(p)
        tracers.append(tracer)
        print(f"pass {len(traced)} traced wall {p.wall:.3f} s, "
              f"{len(p.problems)} failed", flush=True)

    passes = plain + traced
    attempted = len(ops) * len(passes)
    failed = sum(len(p.problems) for p in passes)
    for i, p in enumerate(passes):
        for label, probs in p.problems.items():
            record["problems"][f"pass{i + 1}:{label}"] = probs
            print(f"FAILED pass {i + 1} {label}: {'; '.join(probs)}", flush=True)
    if setup_problems:
        record["problems"]["setup"] = setup_problems
        print(f"FAILED setup: {'; '.join(setup_problems)}", flush=True)
    correct = failed == 0 and not setup_problems
    median_wall = statistics.median(p.wall for p in plain)

    if args.trace:
        per_pass = [layer_metrics(t, p.wall) for t, p in zip(tracers, traced)]
        metrics = {}
        for name in per_layer_names():
            if name.startswith("trace.overhead"):
                continue
            values = [m[name] for m in per_pass]
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / median_wall - 1.0)
        record["counts"] = {c: per_pass[0][c] for c in REPEATING_COUNTS}
        record["counts_repeat"] = all(m[c] == per_pass[0][c]
                                      for m in per_pass for c in REPEATING_COUNTS)
        record["per_problem"] = per_problem(tracers[0])
        record["roadmap_baseline"] = baseline_check(tracers[0])
        for row in record["roadmap_baseline"]:
            print(f"roadmap {row['what']} at {row['problem']}: table {row['roadmap']}, "
                  f"measured {row['measured']} -> "
                  f"{'agrees' if row['agrees'] else 'DISAGREES'}", flush=True)
        spans_path = os.path.join(run_dir, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump([{"fields": ["name", "start", "end", "parent", "op"],
                        "spans": t.spans, "solves": t.solves} for t in tracers], fh)
        units = {n: per_layer_unit(n) for n in metrics}
    else:
        gaps = [g for p in passes for gs in p.gaps.values() for g in gs]
        metrics = {
            "setup_s": setup_s,
            "wall_s": median_wall,
            "solves_per_s": statistics.median(p.solves / p.wall for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
            # no energy read back at all counts as a 100% gap
            "energy_rel_gap.max": max(gaps) if gaps else 1.0,
        }
        units = END_TO_END
    record["energy_gaps"] = passes[0].gaps
    record["pass_walls"] = {"untraced": [p.wall for p in plain],
                            "traced": [p.wall for p in traced]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    record["result"] = result
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, v in metrics.items():
        print(f"{args.workload} {name} = {v:.6g} {units[name]}", flush=True)
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)", flush=True)
    print(json.dumps(result))
    return 0


# -- all workloads, one process each ------------------------------------------

def run_all(args):
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "failed_frac", res["failed"] / res["attempted"], "frac"))
    for name, metric, value, unit in rows:
        print(f"{name:9s} {metric:40s} {value:14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vortexlab", "cli.py")):
        print(f"no vortexlab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # before numpy loads, so every BLAS/OpenMP runtime starts one thread
    os.environ.update(THREAD_VARS)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
