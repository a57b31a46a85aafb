"""Run reports and their file exports (JSON, CSV, and self-contained SVG).

Everything written here is byte-deterministic for a given report: floats are
formatted with fixed precision or shortest-round-trip repr, JSON keys are
sorted, and the SVG writer emits no timestamps or generated ids.  Wall-clock
timings are the one exception and live in their own file, ``timings.json``,
so the main report stays byte-comparable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .advval import AdvReport
from .denoise import save_correlation_csv

EXPORT_FORMATS = ("csv", "svg", "all")


class ReportError(ValueError):
    """Raised for unknown export formats."""


@dataclass
class RunReport:
    """Everything a pipeline run produced, minus the artifacts themselves."""

    config_echo: dict
    stages: dict[str, bool]
    sections: dict[str, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    version: str = __version__
    # in-memory extras used by exports
    adversarial: AdvReport | None = None
    correlation: tuple[np.ndarray, list[str]] | None = None
    importance: list[tuple[str, int]] | None = None
    train_curve: list[float] = field(default_factory=list)
    valid_curve: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config_echo,
            "stages": self.stages,
            "sections": self.sections,
        }


def save_report_json(report: RunReport, out_dir: Path) -> None:
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(
            {k: round(v, 6) for k, v in report.timings.items()},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV exports


def write_adversarial_csv(report: AdvReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("feature,auc,verdict\n")
        for name, score, verdict in report.to_csv_rows():
            fh.write(f"{name},{score},{verdict}\n")


def write_importance_csv(importance: list[tuple[str, int]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("feature,split_count\n")
        for name, count in importance:
            fh.write(f"{name},{count}\n")


def write_curve_csv(train_curve: list[float], valid_curve: list[float], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,train_logloss,valid_logloss\n")
        for i, (tr, va) in enumerate(zip(train_curve, valid_curve), start=1):
            fh.write(f"{i},{tr:.10f},{va:.10f}\n")


def write_predictions_csv(row_ids, probabilities, path: Path) -> None:
    """Headerless two-column submission-style file: row id, probability."""
    ids, probs = np.asarray(row_ids), np.asarray(probabilities)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # in blocks, so the per-row Python strings never hold the whole file
        for at in range(0, len(ids), 8192):
            rows = zip(ids[at : at + 8192].tolist(), probs[at : at + 8192].tolist())
            fh.write("".join("%s,%.6f\n" % row for row in rows))


# ---------------------------------------------------------------------------
# Minimal deterministic SVG bar charts


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def write_bar_chart_svg(
    labels: list[str],
    values: list[float],
    path: Path,
    title: str,
    value_format: str = "{:.4f}",
    bar_color: str = "#4878a8",
) -> None:
    """Horizontal bar chart as a self-contained SVG document."""
    n = len(labels)
    bar_h, gap, left, top = 18, 6, 180, 40
    width = 640
    height = top + n * (bar_h + gap) + 20
    vmax = max(values) if values and max(values) > 0 else 1.0
    span = width - left - 120
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="16">'
        f"{_svg_escape(title)}</text>",
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        y = top + i * (bar_h + gap)
        w = max(1.0, span * value / vmax)
        lines.append(
            f'<text x="{left - 8}" y="{y + 13}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_svg_escape(label)}</text>'
        )
        lines.append(
            f'<rect x="{left}" y="{y}" width="{w:.2f}" height="{bar_h}" '
            f'fill="{bar_color}"/>'
        )
        lines.append(
            f'<text x="{left + w + 6:.2f}" y="{y + 13}" font-family="sans-serif" '
            f'font-size="11">{_svg_escape(value_format.format(value))}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def report_export(report: RunReport, out_dir: Path, fmt: str = "all") -> list[Path]:
    """Emit the report's tabular and chart artifacts under ``out_dir``.

    ``fmt`` selects "csv", "svg", or "all"; anything else raises with the
    supported list.  The importance chart shows at most the top 20 features.
    """
    if fmt not in EXPORT_FORMATS:
        raise ReportError(
            f"unknown export format {fmt!r}; supported: {', '.join(EXPORT_FORMATS)}"
        )
    out_dir = Path(out_dir)
    written: list[Path] = []
    do_csv = fmt in ("csv", "all")
    do_svg = fmt in ("svg", "all")

    if report.adversarial is not None:
        if do_csv:
            p = out_dir / "adversarial_auc.csv"
            write_adversarial_csv(report.adversarial, p)
            written.append(p)
        if do_svg:
            entries = [e for e in report.adversarial.entries if e.auc is not None]
            p = out_dir / "adversarial_auc.svg"
            write_bar_chart_svg(
                [e.name for e in entries],
                [e.auc for e in entries],
                p,
                title="Adversarial validation AUC by feature",
            )
            written.append(p)
    if report.correlation is not None and do_csv:
        matrix, features = report.correlation
        p = out_dir / "correlation.csv"
        save_correlation_csv(matrix, features, p)
        written.append(p)
    if report.importance is not None:
        if do_csv:
            p = out_dir / "feature_importance.csv"
            write_importance_csv(report.importance, p)
            written.append(p)
        if do_svg:
            top = report.importance[:20]
            p = out_dir / "feature_importance.svg"
            write_bar_chart_svg(
                [name for name, _ in top],
                [float(c) for _, c in top],
                p,
                title="Feature importance (split counts, top 20)",
                value_format="{:.0f}",
            )
            written.append(p)
    if report.train_curve and do_csv:
        p = out_dir / "training_curve.csv"
        write_curve_csv(report.train_curve, report.valid_curve, p)
        written.append(p)
    return written
