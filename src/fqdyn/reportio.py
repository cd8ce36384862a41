"""Rendering of reports to JSON and CSV strings.

JSON payloads carry a schema version, the echoed run configuration, and
the report body.  The echo deliberately excludes worker count, output
format, and output path so that byte-identical payloads come out of
byte-identical computations regardless of parallelism or destination.

CSV is a flat table for census and baseline reports only.  Averages and
theory values are exact numerator/denominator pairs, never floats.  The
`k` column holds the cycle length for per-cycle-length rows and the
statistic or bound name for aggregate rows.  When a statistic is checked
against both a lower and an upper bound it gets one row per bound.  Rows
follow each comparison's `stat` and `k` fields, so every comparison
appears in exactly one row; checks on other quantities (such as a graph
count) come last.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "family",
    "q",
    "d",
    "k",
    "avg_num",
    "avg_den",
    "theory_num",
    "theory_den",
    "bound_status",
)


def frac_json(x: Fraction) -> dict:
    """An exact rational as a string pair, so any size survives JSON."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def render_json(config: dict, report: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, "config": config, "report": report}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _theory_value(comparison) -> Fraction | None:
    # one representative value per row: the target of an equality check,
    # else the bound being tested
    if comparison.expected is not None:
        return comparison.expected
    if comparison.lower is not None:
        return comparison.lower
    return comparison.upper


def _row(family: str, q, d, k, observed: Fraction, theory: Fraction | None, status: str) -> list[str]:
    return [
        family,
        str(q),
        "" if d is None else str(d),
        str(k),
        str(observed.numerator),
        str(observed.denominator),
        "" if theory is None else str(theory.numerator),
        "" if theory is None else str(theory.denominator),
        status,
    ]


def render_csv(report) -> str:
    """Flat CSV for a CensusReport or BaselineReport."""
    if hasattr(report, "kind"):  # baseline
        family = f"baseline:{report.kind}"
        q, d = report.size, None
        avg_k = {}
    else:
        family, q, d = report.family, report.q, report.d
        avg_k = report.avg_k_cycles
    comparisons = report.theory_comparison
    rows: list[list[str]] = []

    for stat, observed in (("components", report.avg_components), ("periodic", report.avg_periodic)):
        matched = [c for c in comparisons if c.stat == stat]
        if not matched:
            rows.append(_row(family, q, d, stat, observed, None, ""))
        for c in matched:
            rows.append(_row(family, q, d, c.name, observed, _theory_value(c), c.status))
    for k in sorted(set(avg_k) | {c.k for c in comparisons if c.k is not None}):
        matched = [c for c in comparisons if c.k == k]
        observed = avg_k.get(k, Fraction(0))
        if not matched:
            rows.append(_row(family, q, d, k, observed, None, ""))
        for c in matched:
            rows.append(_row(family, q, d, k, observed, _theory_value(c), c.status))
    for c in comparisons:  # checks on neither an average nor a cycle length
        if c.k is None and c.stat is None:
            rows.append(_row(family, q, d, c.name, c.observed, _theory_value(c), c.status))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()
