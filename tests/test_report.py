"""Golden bytes of the report files: every JSON and CSV report the program
writes, on small fixed inputs.  A change to any of these formats shows up
here as a byte difference."""

import numpy as np

from resplite import advval, denoise, pipeline
from resplite.advval import AdvConfig, AdvEntry, AdvReport
from resplite.cli import main
from resplite.denoise import DeltaEstimate
from resplite.report import RunReport, report_export, save_correlation_csv, save_report_json
from resplite.tabular import ColumnRole, Schema, Table, save_binary

ADV_REPORT = AdvReport(
    entries=(
        AdvEntry("x0", 0.5123456789, "keep"),
        AdvEntry("c0", None, "skipped", "holdout ended single-class"),
        AdvEntry("x1", 0.91, "drop"),
    ),
    n_train=120,
    n_test=80,
    config=AdvConfig(auc_threshold=0.75, seed=3, subsample_per_side=None),
)


def _export(tmp_path, **extras) -> dict[str, str]:
    """The CSV files that report_export writes for ``extras``, by name."""
    report_export(tmp_path, **extras)
    return {p.name: p.read_bytes().decode("utf-8") for p in tmp_path.glob("*.csv")}


def test_adversarial_csv(tmp_path):
    assert _export(tmp_path, adversarial=ADV_REPORT) == {
        "adversarial_auc.csv": (
            "feature,auc,verdict\n"
            "x0,0.512346,keep\n"
            "c0,,skipped\n"
            "x1,0.910000,drop\n"
        )
    }


def test_importance_csv(tmp_path):
    assert _export(tmp_path, importance=[("x1", 12), ("c0", 3), ("x0", 0)]) == {
        "feature_importance.csv": "feature,split_count\nx1,12\nc0,3\nx0,0\n"
    }


def test_curve_csv(tmp_path):
    files = _export(tmp_path, train_curve=[0.69314718056, 0.5, 1 / 3],
                    valid_curve=[0.7, 0.60000000004, 2 / 3])
    assert files == {
        "training_curve.csv": (
            "iteration,train_logloss,valid_logloss\n"
            "1,0.6931471806,0.7000000000\n"
            "2,0.5000000000,0.6000000000\n"
            "3,0.3333333333,0.6666666667\n"
        )
    }


def test_correlation_csv(tmp_path):
    matrix = np.array([[1.0, -0.25, np.nan], [-0.25, 1.0, np.nan],
                       [np.nan, np.nan, np.nan]])
    save_correlation_csv(matrix, ["x0", "x1", "x2"], tmp_path / "correlation.csv")
    assert {"correlation.csv": (tmp_path / "correlation.csv").read_bytes().decode()} == {
        "correlation.csv": (
            "feature,x0,x1,x2\n"
            "x0,1.000000,-0.250000,\n"
            "x1,-0.250000,1.000000,\n"
            "x2,,,\n"
        )
    }


def test_report_and_timings_json(tmp_path):
    report = RunReport(
        config_echo={"seed": 1, "paths": {"train": "t.csv"}},
        stages={"train": True, "denoise": False},
        sections={"metrics": {"valid": {"nce": 0.5, "auc": 0.75}}},
        timings={"train": 1.23456789, "ingest": 0.0000004},
        version="9.9.9",
    )
    save_report_json(report, tmp_path)
    assert (tmp_path / "report.json").read_text() == (
        "{\n"
        '  "config": {\n'
        '    "paths": {\n'
        '      "train": "t.csv"\n'
        "    },\n"
        '    "seed": 1\n'
        "  },\n"
        '  "sections": {\n'
        '    "metrics": {\n'
        '      "valid": {\n'
        '        "auc": 0.75,\n'
        '        "nce": 0.5\n'
        "      }\n"
        "    }\n"
        "  },\n"
        '  "stages": {\n'
        '    "denoise": false,\n'
        '    "train": true\n'
        "  },\n"
        '  "version": "9.9.9"\n'
        "}\n"
    )
    assert (tmp_path / "timings.json").read_text() == (
        '{\n  "ingest": 0.0,\n  "train": 1.234568\n}\n'
    )


def test_adversarial_report_json(tmp_path):
    advval.save_report(ADV_REPORT, tmp_path / "adv.json")
    assert (tmp_path / "adv.json").read_text() == (
        "{\n"
        '  "auc_threshold": 0.75,\n'
        '  "features": [\n'
        "    {\n"
        '      "auc": 0.5123456789,\n'
        '      "name": "x0",\n'
        '      "reason": null,\n'
        '      "verdict": "keep"\n'
        "    },\n"
        "    {\n"
        '      "auc": null,\n'
        '      "name": "c0",\n'
        '      "reason": "holdout ended single-class",\n'
        '      "verdict": "skipped"\n'
        "    },\n"
        "    {\n"
        '      "auc": 0.91,\n'
        '      "name": "x1",\n'
        '      "reason": null,\n'
        '      "verdict": "drop"\n'
        "    }\n"
        "  ],\n"
        '  "holdout_fraction": 0.2,\n'
        '  "n_test": 80,\n'
        '  "n_train": 120,\n'
        '  "seed": 3,\n'
        '  "subsample_per_side": null\n'
        "}\n"
    )


def test_delta_estimates_json(tmp_path):
    estimates = [
        DeltaEstimate("x0", 0.25, -1.0, 9, 1e-12, True, off_lattice=(0, 2)),
        DeltaEstimate("x1", float("nan"), float("nan"), 400, 0.0, False,
                      note="too many uniques"),
    ]
    denoise.save_estimates(estimates, tmp_path / "d.json", [["x0"]])
    assert (tmp_path / "d.json").read_text() == (
        "{\n"
        '  "estimates": [\n'
        "    {\n"
        '      "delta": 0.25,\n'
        '      "detected": true,\n'
        '      "feature": "x0",\n'
        '      "max_abs_residual": 1e-12,\n'
        '      "n_unique": 9,\n'
        '      "note": "",\n'
        '      "off_lattice": [\n'
        "        0,\n"
        "        2\n"
        "      ],\n"
        '      "tol_rel": 0.001,\n'
        '      "v_min": -1.0\n'
        "    },\n"
        "    {\n"
        '      "delta": null,\n'
        '      "detected": false,\n'
        '      "feature": "x1",\n'
        '      "max_abs_residual": 0.0,\n'
        '      "n_unique": 400,\n'
        '      "note": "too many uniques",\n'
        '      "off_lattice": [],\n'
        '      "tol_rel": 0.001,\n'
        '      "v_min": null\n'
        "    }\n"
        "  ],\n"
        '  "groups": [\n'
        "    [\n"
        '      "x0"\n'
        "    ]\n"
        "  ]\n"
        "}\n"
    )


def test_ablation_csv(tmp_path, monkeypatch):
    """ablate's summary table, with the pipeline runs replaced by fixed metrics."""
    metrics = iter([
        {"valid": {"logloss": 0.5, "nce": 0.98765432},
         "test_proxy": {"logloss": 0.7, "nce": 1.25}},
        {"valid": {"logloss": 0.25, "nce": 0.9},
         "test_proxy": {"logloss": 0.125, "nce": 1.0000004}},
    ])
    monkeypatch.setattr(pipeline, "load_tables", lambda paths, schema: [])
    monkeypatch.setattr(pipeline, "run", lambda config, tables: RunReport(
        {}, {}, sections={"metrics": next(metrics)}))
    config = pipeline.load_config({
        "paths": {"train": "a.rlt", "test": "b.rlt", "output_dir": str(tmp_path)},
        "split": {"valid_day": 5},
    }, env={})
    pipeline.ablate(config, ["frequency"])
    assert (tmp_path / "ablation.csv").read_text() == (
        "variant,valid_logloss,valid_nce,test_logloss,test_nce\n"
        "vanilla,0.500000,0.987654,0.700000,1.250000\n"
        "+frequency,0.250000,0.900000,0.125000,1.000000\n"
    )


def test_metrics_json(tmp_path, capsys):
    schema = Schema((("id", ColumnRole.ROW_ID), ("day", ColumnRole.DAY),
                     ("y", ColumnRole.LABEL_INSTALL)))
    table = Table.from_columns(schema, {
        "id": ["a", "b", "c", "d"], "day": [1, 1, 1, 1], "y": [0, 1, 0, 1],
    })
    save_binary(table, tmp_path / "t.rlt")
    (tmp_path / "p.csv").write_text("a,0.250000\nb,0.750000\nc,0.500000\nd,0.500000\n")
    assert main(["evaluate", "--predictions", str(tmp_path / "p.csv"),
                 "--table", str(tmp_path / "t.rlt"),
                 "--out", str(tmp_path / "metrics.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "metrics.json").read_text() == (
        "{\n"
        '  "auc": 0.875,\n'
        '  "background_rate": 0.5,\n'
        '  "logloss": 0.4904146265058631,\n'
        '  "nce": 0.7075187496394219\n'
        "}\n"
    )
