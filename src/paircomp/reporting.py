"""Output files and human summaries.

Machine-readable files are newline-delimited records with a header line
(CSV); floats are written in shortest round-trip form so records reload
bit-exactly.  ``report.json`` is the test report as one JSON object,
indented by 2 with its keys sorted, ``per_instance`` holding one object
per instance.  Human summaries use 6 significant digits.  Given the same
configuration and master seed, every file is byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .design import Alternative, SampleSizeResult
from .estimators import PairedDifference
from .hypotests import TestReport

__all__ = [
    "fmt", "write_results_table", "write_power_curve", "write_qq_points",
    "write_values", "write_report_json", "render_summary",
]


def fmt(x: float) -> str:
    """Human formatting: 6 significant digits."""
    return f"{float(x):.6g}"


def _w(path: Path, rows: list[list], header: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _r(x: float) -> str:
    return repr(float(x))


def write_results_table(path: str | Path, diffs: list[PairedDifference]) -> None:
    """One row per instance: the shape of a per-instance results table."""
    rows = [[d.instance_id, _r(d.phi_hat), _r(d.se_hat), d.n1, d.n2,
             str(d.budget_exhausted).lower()] for d in diffs]
    _w(Path(path), rows, ["instance", "phi", "se", "n1", "n2", "budget_exhausted"])


def write_power_curve(path: str | Path, curve: list[tuple[float, float]]) -> None:
    _w(Path(path), [[_r(d), _r(p)] for d, p in curve], ["d", "power"])


def write_qq_points(path: str | Path, points: list[tuple[float, float]]) -> None:
    _w(Path(path), [[_r(a), _r(b)] for a, b in points],
       ["theoretical_quantile", "sample_quantile"])


def write_values(path: str | Path, values, column: str) -> None:
    _w(Path(path), [[_r(v)] for v in values], [column])


# a per-instance record holds only scalars, so with this item separator the
# C encoder writes it as ``indent=2`` would, bar the newlines inside "{}"
_RECORD = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def write_report_json(path: str | Path, report: TestReport) -> None:
    """Write ``json.dumps(asdict(report), indent=2, sort_keys=True)`` and a newline.

    Only the head goes through the indenting encoder, which is pure
    Python; the per-instance records, which grow with N, go through the
    C encoder and are spliced into the head's empty list.  Raw newlines
    come only from separators (a string's are escaped), so the empty
    list's text cannot occur elsewhere in the head.  ``vars`` of the
    report and of a record holds exactly their dataclass fields, without
    the deep copy ``asdict`` makes.
    """
    # the enums are str enums, so they serialise as their values
    doc = json.dumps(dict(vars(report), per_instance=[]), indent=2, sort_keys=True)
    if report.per_instance:
        records = ",\n    ".join("{\n      " + _RECORD.encode(vars(d))[1:-1] + "\n    }"
                                 for d in report.per_instance)
        doc = doc.replace('\n  "per_instance": []',
                          '\n  "per_instance": [\n    ' + records + "\n  ]", 1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc + "\n")


def render_size_result(res: SampleSizeResult) -> str:
    return "\n".join([
        f"test family: {res.test_family.value}",
        f"required instances (N*): {res.n_instances}",
        f"achieved power (t-test basis): {fmt(res.achieved_power)}",
        f"noncentrality at N*: {fmt(res.ncp_at_n)}",
    ])


def render_summary(report: TestReport, size_result: SampleSizeResult,
                   pool_size: int) -> str:
    """Deterministic human summary of an experiment's outcome."""
    lines = [
        f"required instances (N*): {size_result.n_instances}",
        f"instance pool size: {pool_size}",
        f"instances used: {report.n_instances_used}",
        f"test family: {report.test_family.value}",
        f"alternative: {report.alternative.value}",
        f"statistic: {fmt(report.statistic)}",
    ]
    if report.df is not None:
        lines.append(f"df: {report.df}")
    lines += [
        f"p-value: {fmt(report.p_value)}",
        f"estimate: {fmt(report.estimate)}",
        f"two-sided CI ({fmt(1 - report.alpha)}): "
        f"[{fmt(report.ci[0])}, {fmt(report.ci[1])}]",
    ]
    if report.alternative is Alternative.ONE_SIDED and report.one_sided_bound is not None:
        lines.append(f"one-sided upper bound ({fmt(1 - report.alpha)}): "
                     f"{fmt(report.one_sided_bound)}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"
