"""Plot-ready and machine-readable renderings of a causality scan."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .stats import CausalityMatrix, PairOutcome

SCHEMA_VERSION = 4
DEFAULT_GROUP = "all"
P_CLAMP = 1e-16

MATRIX_CSV = "matrix.csv"
HEATMAP_CSV = "heatmap.csv"
RUN_REPORT_JSON = "run_report.json"


@dataclass
class ReportBundle:
    """What a run produced, embedded verbatim for reproducibility.

    `config` is the run's `PipelineConfig.to_dict()`, `metrics` its per-stage
    counts and scores (the classifier's under ``eval``), and `grouping` maps
    alters to the groups that order the rows of matrix.csv; it is the
    report's only grouping.  The topic model is the bundle's: the report
    names topics by index, as matrix.csv does.
    """

    matrix: CausalityMatrix
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    grouping: dict[str, str] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "metrics": self.metrics,
            "grouping": self.grouping,
            "matrix": self.matrix.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReportBundle":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"run report schema {d.get('schema_version')} != {SCHEMA_VERSION}")
        return cls(
            matrix=CausalityMatrix.from_dict(d["matrix"]),
            config=d.get("config", {}),
            metrics=d.get("metrics", {}),
            grouping=d.get("grouping"),
        )


def _cell(matrix: CausalityMatrix, outcome: PairOutcome) -> str:
    best = outcome.best
    if best is None:
        return f"—({outcome.skip_reason})"
    marker = "*" if matrix.significant(outcome) else ""
    return f"{best.p_value:.3f} ({best.lag}){marker}"


def emit_matrix_csv(matrix: CausalityMatrix, grouping: dict[str, str] | None,
                    path) -> None:
    """Alters as rows (sorted by group then handle), topics as columns.

    Cells are "p (lag)" with a significance marker at alpha; skipped pairs
    render as an em-dash plus their reason code.
    """
    if not matrix.pairs:
        raise ValueError("empty causality matrix")
    grouping = grouping or {}
    rows = sorted(matrix.alters, key=lambda a: (grouping.get(a, DEFAULT_GROUP), a))
    outcomes = {(p.alter, p.topic): p for p in matrix.pairs}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group", "alter"] +
                        [f"topic_{t}" for t in range(matrix.n_topics)])
        for alter in rows:
            writer.writerow(
                [grouping.get(alter, DEFAULT_GROUP), alter]
                + [_cell(matrix, outcomes[(alter, t)]) for t in range(matrix.n_topics)]
            )


def emit_heatmap_data(matrix: CausalityMatrix, path) -> None:
    """Long-format (alter, topic, minus_log10_p, best_lag) rows, tested pairs only."""
    if not matrix.pairs:
        raise ValueError("empty causality matrix")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alter", "topic", "minus_log10_p", "best_lag"])
        for outcome in matrix.pairs:
            best = outcome.best
            if best is None:
                continue
            p = max(best.p_value, P_CLAMP)
            writer.writerow([outcome.alter, str(outcome.topic),
                             repr(-math.log10(p)), str(best.lag)])


def emit_run_report(bundle: ReportBundle, path) -> None:
    """One JSON artifact: configuration, per-stage metrics, the full matrix."""
    Path(path).write_text(
        json.dumps(bundle.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def emit_report_bundle(bundle: ReportBundle, out_dir) -> dict[str, Path]:
    """Write matrix.csv, heatmap.csv, and run_report.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "matrix": out / MATRIX_CSV,
        "heatmap": out / HEATMAP_CSV,
        "run_report": out / RUN_REPORT_JSON,
    }
    emit_matrix_csv(bundle.matrix, bundle.grouping, paths["matrix"])
    emit_heatmap_data(bundle.matrix, paths["heatmap"])
    emit_run_report(bundle, paths["run_report"])
    return paths
