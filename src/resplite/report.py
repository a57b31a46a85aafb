"""Run reports and their file exports (JSON, CSV, and self-contained SVG).

Every JSON report of the program is written by :func:`write_json`, every
CSV report by :func:`write_rows`, and every JSON input is read by
:func:`read_json`.  A stage writes its CSV and SVG files as soon as it has
their data, so a failed run keeps those of the stages before it;
``report.json`` is written last.  Everything written here is
byte-deterministic for a given report: floats are formatted with fixed
precision or shortest-round-trip repr, JSON keys are sorted, and the SVG
writer emits no timestamps or generated ids.  Wall-clock timings, and the
peak RSS at the end of each stage, are the one exception and live in their
own file, ``timings.json``, so the main report stays byte-comparable across
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .tabular import id_bytes

if TYPE_CHECKING:  # advval and denoise import the writers below
    from .advval import AdvReport


class ReportError(ValueError):
    """Raised for a malformed predictions file."""


@dataclass
class RunReport:
    """Everything a pipeline run produced, minus the artifacts themselves."""

    config_echo: dict
    stages: dict[str, bool]
    sections: dict[str, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)
    version: str = __version__

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config_echo,
            "stages": self.stages,
            "sections": self.sections,
        }


def write_json(path, doc) -> None:
    """Write ``doc`` as a report document: sorted keys, a 2-space indent and
    one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_json(path, error):
    """The JSON document in the file ``path``; a file that is not UTF-8
    JSON raises ``error(message)``, the message naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path} is not a JSON document: {exc}") from None


def write_rows(path, header, rows) -> None:
    """Write a CSV report: the header, then one line per row, each cell as
    ``str`` renders it (callers format their floats), with ``\\n`` endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(",".join(map(str, cells)) + "\n" for cells in [header, *rows]))


def save_report_json(report: RunReport, out_dir: Path) -> None:
    write_json(out_dir / "report.json", report.to_json_dict())
    timings = {k: round(v, 6) for k, v in report.timings.items()}
    peak = {"peak_rss_mb": report.peak_rss_mb} if report.peak_rss_mb else {}
    write_json(out_dir / "timings.json", {**timings, **peak})


# ---------------------------------------------------------------------------
# CSV exports


def save_correlation_csv(matrix: np.ndarray, features: list[str], path) -> None:
    """The correlation matrix as a CSV; NaN cells are empty."""
    write_rows(path, ["feature", *features], (
        [name, *("" if np.isnan(r) else f"{r:.6f}" for r in matrix[i])]
        for i, name in enumerate(features)
    ))


#: rows written at a time, so that a block's line buffer stays small
_CSV_BLOCK = 8192
#: place values of a probability's units digit and six decimals, in millionths
_PLACES = 10 ** np.arange(6, -1, -1, dtype=np.int64)
#: their columns after the id's comma; the decimal point is column 2
_DIGIT_COLUMNS = (1, 3, 4, 5, 6, 7, 8)


def write_predictions_csv(row_ids, probabilities, path: Path) -> None:
    """Headerless two-column submission-style file: row id, probability.

    ``row_ids`` are UTF-8 bytes, as a table holds them (other values are
    encoded first, see :func:`~resplite.tabular.id_bytes`).  Each line is
    ``b"%s,%.6f\\n" % (row_id, probability)``.  A block of rows is laid out
    in a byte buffer from its ids' bytes and the digits of
    ``rint(p * 1e6)``: each of the seven digit places of that one int64
    array of millionths is written straight into its column.  Rounding
    guard: the float product is within 2**-34 of the exact decimal
    ``p * 10**6`` (p is at most 1), so it rounds the same way unless the
    exact value lies within that distance of a half.  A
    block where any ``|frac(p * 1e6) - 0.5| <= 1e-9``, or any probability
    lies outside ``[+0, 1]`` (NaN, ``-0.0`` and infinities included), is
    formatted line by line with ``%`` instead.
    """
    ids = np.ascontiguousarray(id_bytes(row_ids))
    probs = np.asarray(probabilities, dtype=np.float64)
    width = ids.dtype.itemsize
    with open(path, "wb") as fh:
        for at in range(0, len(ids), _CSV_BLOCK):
            block, p = ids[at : at + _CSV_BLOCK], probs[at : at + _CSV_BLOCK]
            scaled = p * 1e6
            if (
                ((p >= 0) & (p <= 1) & ~np.signbit(p)).all()
                and (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-9).all()
            ):
                millionths = np.rint(scaled).astype(np.int64)
                line = np.empty((len(block), width + 10), dtype=np.uint8)
                line[:, :width] = block.view(np.uint8).reshape(len(block), width)
                line[:, width] = ord(",")
                for col, place in zip(_DIGIT_COLUMNS, _PLACES):
                    line[:, width + col] = millionths // place % 10 + ord("0")
                line[:, width + 2] = ord(".")
                line[:, width + 9] = ord("\n")
                keep = np.ones(line.shape, dtype=bool)
                lengths = np.strings.str_len(block)
                keep[:, :width] = np.arange(width) < lengths[:, None]  # drop the NUL pad
                fh.write(line[keep].tobytes())
            else:
                rows = zip(block.tolist(), p.tolist())
                fh.write(b"".join(b"%s,%.6f\n" % row for row in rows))


def read_predictions_csv(path) -> dict[bytes, float]:
    """The probabilities of a :func:`write_predictions_csv` file, keyed by the
    ids' bytes; blank lines are skipped, an id may hold commas, and an id
    that appears twice fails at its second line."""
    preds: dict[bytes, float] = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip(b"\r\n")
            if not line.strip():
                continue
            rid, comma, prob = line.rpartition(b",")
            try:  # without a comma the line holds no probability
                value = float(prob if comma else b"")
            except ValueError:
                raise ReportError(f"predictions line {line_no} is not 'row_id,probability'")
            if rid in preds:
                raise ReportError(
                    f"predictions line {line_no} repeats row id {rid.decode(errors='replace')!r}"
                )
            preds[rid] = value
    return preds


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
            'fill="#4878a8"/>'
        )
        lines.append(
            f'<text x="{left + w + 6:.2f}" y="{y + 13}" font-family="sans-serif" '
            f'font-size="11">{_svg_escape(value_format.format(value))}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def report_export(out_dir: Path, adversarial: AdvReport | None = None,
                  importance: list[tuple[str, int]] | None = None,
                  train_curve: list[float] = (), valid_curve: list[float] = ()) -> None:
    """Write the report files of what is given under ``out_dir``: the audit's
    AUC per feature (CSV and chart), the model's split counts (CSV, and a
    chart of the top 20) and its train and valid logloss per iteration."""
    if adversarial is not None:
        entries = adversarial.entries
        write_rows(out_dir / "adversarial_auc.csv", ["feature", "auc", "verdict"], (
            (e.name, "" if e.auc is None else f"{e.auc:.6f}", e.verdict) for e in entries
        ))
        scored = [e for e in entries if e.auc is not None]
        write_bar_chart_svg([e.name for e in scored], [e.auc for e in scored],
                            out_dir / "adversarial_auc.svg",
                            "Adversarial validation AUC by feature")
    if importance is not None:
        write_rows(out_dir / "feature_importance.csv", ["feature", "split_count"], importance)
        top = importance[:20]
        write_bar_chart_svg([name for name, _ in top], [float(c) for _, c in top],
                            out_dir / "feature_importance.svg",
                            "Feature importance (split counts, top 20)", "{:.0f}")
    if train_curve:
        header = ["iteration", "train_logloss", "valid_logloss"]
        write_rows(out_dir / "training_curve.csv", header, (
            (i, f"{tr:.10f}", f"{va:.10f}")
            for i, (tr, va) in enumerate(zip(train_curve, valid_curve), 1)
        ))
