"""Output checks and the outside-in tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math

import pytest

import checks
import tracing
import workloads
from vortexlab import cli, solver


def _summary(tmp_path, **fields):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(fields))
    return {"summary": str(path)}


def _solve_op():
    return workloads.generate("cylinder", 0)[0]


def test_clean_solve_passes(tmp_path):
    paths = _summary(tmp_path, converged=True, residual_sup={"0": 1e-9},
                     total_energy=4 * math.pi * 1.001)
    problems, raw, gaps = checks.check(_solve_op(), 0, paths)
    assert problems == []
    assert raw and gaps == [pytest.approx(0.001, rel=1e-9)]


def test_each_failure_rule_fires(tmp_path):
    op = _solve_op()
    good = dict(converged=True, residual_sup={"0": 1e-9}, total_energy=4 * math.pi)
    cases = [
        (dict(good), 3, "exit code 3"),
        (dict(good, converged=False), 0, "converged is false"),
        (dict(good, residual_sup={"0": 1e-6}), 0, "sup residual"),
        (dict(good, total_energy=4 * math.pi * 1.05), 0, "misses"),
    ]
    for fields, code, expect in cases:
        problems, _, _ = checks.check(op, code, _summary(tmp_path, **fields))
        assert any(expect in p for p in problems), (expect, problems)
    assert checks.check(op, 0, {})[0] == ["no summary written"]


def test_quantize_band_and_counts(tmp_path):
    op = next(o for o in workloads.generate("sweep", 0) if o.subcommand == "quantize")
    table = tmp_path / "energies.csv"
    table.write_text("seed,energy\n0,0.0\n1,12.6\n")
    paths = _summary(tmp_path, band_empty=False)
    paths["energies"] = str(table)
    problems, _, _ = checks.check(op, 0, paths)
    assert any("band" in p for p in problems)
    assert any("constant solves" in p for p in problems)
    assert any("degree-one solves" in p for p in problems)


def test_span_self_times():
    spans = [
        ["cli.run", 0.0, 10.0, -1, "a"],
        ["solver.newton_solve", 1.0, 9.0, 0, "a"],
        ["solver.cg_solve", 2.0, 8.0, 1, "a"],
        ["fields.gram_field", 3.0, 4.0, 2, "a"],
        ["fields.gram_field", 5.0, 6.0, 2, "a"],
    ]
    names, layers = tracing.span_times(spans)
    assert names["solver.cg_solve"] == {"calls": 1, "s": 6.0, "self_s": 4.0}
    assert names["fields.gram_field"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert layers["solver"] == {"s": 8.0, "self_s": 6.0}
    assert names["cli.run"]["self_s"] == 2.0
    assert tracing.calls_by_op(spans, "fields.gram_field") == {"a": 2}


def test_install_wraps_every_import_site_and_restores():
    original = solver.gram_field
    cls_init = solver.PatchedPreconditioner.__init__
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        assert solver.gram_field is not original
        assert cli.run.__wrapped__ is not None
        assert isinstance(solver.PatchedPreconditioner, type)
        assert solver.PatchedPreconditioner.__init__ is not cls_init
    finally:
        restore()
    assert solver.gram_field is original
    assert solver.PatchedPreconditioner.__init__ is cls_init
    assert not hasattr(cli.run, "__wrapped__")
