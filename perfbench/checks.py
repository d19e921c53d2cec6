"""Output checks for one operation.

An operation fails when it raises, exits non-zero, reports ``converged``
false, reports a final sup residual above ``newton_tol``, has a solve whose
energy misses 4 pi tau d by more than the config's ``energy.tolerance``,
reports a non-empty quantization band, or writes a summary whose bytes differ
from the first pass with the same seed (the ROADMAP determinism rule).

Summaries that carry no residual (every subcommand but ``solve``) still fail
on non-convergence: ``newton_solve`` raises and ``cli.run`` turns that into
exit code 3.
"""

from __future__ import annotations

import csv
import json
import math

#: energies at or below this are the constant (degree-zero) sector of quantize
QUANT_FLOOR = 1e-6


def _quantize_energies(paths):
    with open(paths["energies"]) as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


def _energies(op, summary, paths):
    """(energy, degree) for every positive-degree solve the outputs report."""
    if not op.degree:
        return []
    sub = op.subcommand
    if sub == "solve":
        return [(summary["total_energy"], op.degree)]
    if sub == "energy":
        return [(summary["measured"], summary["degree"])]
    if sub == "neck":
        return [(e, op.degree) for e in summary["totals"].values()]
    if sub == "quantize":
        return [(e, op.degree) for e in _quantize_energies(paths) if e > QUANT_FLOOR]
    raise ValueError(f"no energy readout for subcommand {sub!r}")


def _expected_counts(op, summary, paths):
    """Problems when the outputs describe fewer or more solves than asked."""
    cfg = op.config
    sub = op.subcommand
    problems = []
    if sub == "energy" and summary["degree"] != op.degree:
        problems.append(f"degree {summary['degree']} != {op.degree}")
    if sub == "neck":
        lengths = cfg["experiments"]["neck"]["lengths"]
        if len(summary["totals"]) != len(lengths):
            problems.append(f"{len(summary['totals'])} neck lengths solved of {len(lengths)}")
    if sub == "quantize":
        block = cfg["experiments"]["quantize"]
        energies = _quantize_energies(paths)
        n_const = sum(e <= QUANT_FLOOR for e in energies)
        if n_const != block["n_constant"]:
            problems.append(f"{n_const} constant solves, expected {block['n_constant']}")
        if len(energies) - n_const != len(block["zero_positions"]):
            problems.append(f"{len(energies) - n_const} degree-one solves, "
                            f"expected {len(block['zero_positions'])}")
    return problems


def check(op, code, paths):
    """Returns (problems, summary bytes or None, relative energy gaps)."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "summary" not in paths:
        return problems + ["no summary written"], None, []
    with open(paths["summary"], "rb") as fh:
        raw = fh.read()
    summary = json.loads(raw)
    if summary.get("converged") is False:
        problems.append("converged is false")
    tol = op.config["solve"]["newton_tol"]
    for piece, sup in (summary.get("residual_sup") or {}).items():
        if not sup <= tol:
            problems.append(f"piece {piece}: sup residual {sup:.3e} > {tol:.1e}")
    if op.subcommand == "quantize" and summary.get("band_empty") is not True:
        problems.append("quantization band is not empty")
    problems += _expected_counts(op, summary, paths)
    tau = float(op.config["target"]["tau"][0])
    e_tol = float(op.config["experiments"]["energy"]["tolerance"])
    gaps = []
    for e, d in _energies(op, summary, paths):
        quantum = 4.0 * math.pi * tau * d
        gap = abs(e - quantum) / quantum
        gaps.append(gap)
        if not gap <= e_tol:
            problems.append(f"energy {e:.6f} misses {quantum:.6f} by {gap:.2%}")
    return problems, raw, gaps
