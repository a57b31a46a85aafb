import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resplite import pipeline
from resplite.cli import main
from resplite.report import write_predictions_csv
from resplite.tabular import ColumnRole, TabularError, load_binary, save_binary

from conftest import MALFORMED_SCHEMAS, with_header


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    assert main(["synth", "--out-dir", str(out), "--seed", "2",
                 "--rows-per-day", "150"]) == 0
    return out


@pytest.fixture(scope="module")
def caches(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("caches")
    rc = main([
        "ingest", "--schema", str(data / "schema.json"),
        "--out-dir", str(out),
        str(data / "train.csv"), str(data / "test.csv"),
    ])
    assert rc == 0
    return out


def test_cache_with_a_malformed_header_fails_with_an_error_line(caches, tmp_path, capsys):
    blob = (caches / "train.rlt").read_bytes()
    bad = tmp_path / "bad.rlt"
    bad.write_bytes(with_header(blob, lambda h: {"schema": h["schema"]}))
    assert main(["correlate", "--table", str(bad), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: table file header's n_rows None")


@pytest.mark.parametrize("doc, match", [
    *MALFORMED_SCHEMAS,
    ([["day", "day"]], "a schema must be a JSON object, not list"),
])
def test_malformed_schema_file_fails_with_an_error_line(data, tmp_path, capsys, doc, match):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(doc))
    assert main(["ingest", "--schema", str(schema), "--out-dir", str(tmp_path),
                 str(data / "train.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


@pytest.mark.parametrize("command, doc, match", [
    ("train", {"bogus": 1}, "params has unknown keys ['bogus']"),
    ("train", [1, 2], "params must be a JSON object, not list"),
    ("encode", [{"feature": "c0"}], "encoder spec 0 lacks the key 'kind'"),
    ("encode", [{"feature": "c0", "kind": "frequency"}, {"feature": "c0", "kind": "target"}],
     "encoder spec 1 lacks the key 'target'"),
    ("encode", [{"feature": "c0", "kind": "freq"}],
     "encoder spec 0 has kind 'freq', not frequency or target"),
    ("encode", [{"feature": "c9", "kind": "frequency"}],
     "encoder spec 0 has feature 'c9', not a table column"),
    ("encode", {"feature": "c0", "kind": "frequency"},
     "encoder specs must be a JSON list, not dict"),
])
def test_malformed_document_fails_with_an_error_line(caches, tmp_path, capsys, command, doc,
                                                     match):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flags = ["--valid-day", "66", "--params"] if command == "train" else ["--spec"]
    assert main([command, "--table", str(caches / "train.rlt"), *flags, str(path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err


#: commands that read a JSON document from a path, given the synthetic
#: data, its caches, that path and an output directory
_JSON_INPUTS = {
    "train --params": lambda data, caches, path, out: [
        "train", "--table", str(caches / "train.rlt"), "--valid-day", "66",
        "--params", path, "--out-dir", out],
    "encode --spec": lambda data, caches, path, out: [
        "encode", "--table", str(caches / "train.rlt"), "--spec", path, "--out-dir", out],
    "encode --state": lambda data, caches, path, out: [
        "encode", "--table", str(caches / "train.rlt"), "--state", path, "--out-dir", out],
    "ingest --schema": lambda data, caches, path, out: [
        "ingest", "--schema", path, "--out-dir", out, str(data / "train.csv")],
    "run --config": lambda data, caches, path, out: ["run", "--config", path],
}

#: file contents that are no UTF-8 JSON document
_NOT_JSON = {"truncated": b'{"a": ', "not utf-8": b'{"a": "\x80"}'}


@pytest.mark.parametrize("content", sorted(_NOT_JSON))
@pytest.mark.parametrize("command", sorted(_JSON_INPUTS))
def test_a_json_input_that_is_no_json_document_is_named(data, caches, tmp_path, capsys,
                                                       command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(_NOT_JSON[content])
    argv = _JSON_INPUTS[command](data, caches, str(path), str(tmp_path / "out"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path} is not a JSON document: " in err and "Traceback" not in err


@pytest.mark.parametrize("content", sorted(_NOT_JSON))
def test_a_cache_whose_header_is_no_json_document_is_named(caches, tmp_path, capsys, content):
    blob = (caches / "train.rlt").read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = _NOT_JSON[content]
    bad = tmp_path / "bad.rlt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + hlen :])
    with pytest.raises(TabularError, match=f"{bad}'s header is not a JSON document: "):
        load_binary(bad)
    assert main(["correlate", "--table", str(bad), "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}'s header is not a JSON document")


def test_run_config_value_of_the_wrong_type_exits_1(data, tmp_path, capsys):
    doc = {"paths": {"train": str(data / "train.csv"), "test": str(data / "test.csv"),
                     "output_dir": str(tmp_path / "out")},
           "schema_path": str(data / "schema.json"), "split": {"valid_day": 66},
           "denoise": {"tol_rel": [1]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stage config: denoise.tol_rel is [1], not int or float")
    assert "Traceback" not in err


@pytest.mark.parametrize("section, value, match", [
    ("adversarial", {"auc_threshold": 0.3},
     "adversarial.auc_threshold must be in [0.5, 1.0]"),
    ("split", {"valid_day": 66, "train_days": [70]},
     "split.train_days: all train days must precede valid_day"),
    ("schema", {"columns": 5}, "schema: schema columns must be a JSON object"),
])
def test_run_config_value_out_of_range_fails_the_config_stage(data, tmp_path, capsys, section,
                                                              value, match):
    doc = {"paths": {"train": str(data / "train.csv"), "test": str(data / "test.csv"),
                     "output_dir": str(tmp_path / "out")},
           "schema_path": str(data / "schema.json"), "split": {"valid_day": 66}}
    doc[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stage config: " + match)
    assert "Traceback" not in err


def test_encode_spec_smoothing_of_the_wrong_type_exits_1(caches, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        [{"feature": "c0", "kind": "target", "target": "install", "smoothing": [1]}]
    ))
    assert main(["encode", "--table", str(caches / "train.rlt"), "--spec", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: smoothing of encoder spec 0 is [1], not int or float")
    assert "Traceback" not in err


class TestSynthAndIngest:
    def test_synth_emits_expected_files(self, data):
        for name in ("train.csv", "test.csv", "truth.json", "schema.json"):
            assert (data / name).exists()

    def test_ingest_round_trips(self, data, caches):
        table = load_binary(caches / "train.rlt")
        assert table.n_rows == 150 * 22
        assert table.schema.day_column == "day"


    def test_inputs_that_would_write_one_cache_are_rejected(self, data, tmp_path, capsys):
        # two inputs of one stem: the second's x.rlt would replace the first's
        first, second = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        for path, src in ((first, "train.csv"), (second, "test.csv")):
            path.parent.mkdir()
            path.write_bytes((data / src).read_bytes())
        out = tmp_path / "out"
        assert main(["ingest", "--schema", str(data / "schema.json"), "--out-dir", str(out),
                     str(first), str(second)]) == 1
        assert capsys.readouterr().err == (
            f"error: {first} and {second} would both write {out / 'x.rlt'}\n")
        assert not out.exists()


class TestAdversarialCommand:
    def test_audit_drops_planted_shift(self, caches, tmp_path, capsys):
        rc = main([
            "adversarial",
            "--train", str(caches / "train.rlt"),
            "--test", str(caches / "test.rlt"),
            "--subsample-per-side", "4000",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x4" in out and "drop" in out
        doc = json.loads((tmp_path / "adversarial_report.json").read_text())
        verdicts = {f["name"]: f["verdict"] for f in doc["features"]}
        assert verdicts["x4"] == "drop"
        assert (tmp_path / "adversarial_auc.svg").exists()


class TestDenoiseAndCorrelate:
    def test_denoise_writes_estimates_and_table(self, caches, tmp_path):
        rc = main([
            "denoise", "--table", str(caches / "train.rlt"),
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "delta_estimates.json").read_text())
        detected = {
            e["feature"]: e["delta"] for e in doc["estimates"] if e["detected"]
        }
        assert set(detected) == {"x2", "x3"}
        assert detected["x2"] == pytest.approx(0.0385, rel=1e-6)
        table = load_binary(tmp_path / "denoised.rlt")
        assert "x2" in table.schema.names

    def test_denoise_apply_to_off_lattice_table_records_refined_step(
        self, caches, tmp_path
    ):
        test = load_binary(caches / "test.rlt")
        x2 = test.col("x2").copy()
        rows = np.flatnonzero(np.isfinite(x2))[:3]
        x2[rows] += 0.0385 / 2  # halfway between train's lattice points
        shifted = tmp_path / "shifted.rlt"
        save_binary(test.replace_column("x2", ColumnRole.CONTINUOUS, x2), shifted)
        out_dir = tmp_path / "out"
        rc = main([
            "denoise", "--table", str(caches / "train.rlt"),
            "--apply-to", str(shifted), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        doc = json.loads((out_dir / "delta_estimates.json").read_text())
        by_name = {e["feature"]: e for e in doc["estimates"]}
        assert by_name["x2"]["detected"]
        assert by_name["x2"]["delta"] == pytest.approx(0.0385 / 2, rel=1e-6)
        assert by_name["x2"]["off_lattice"] == [0, 3]
        assert by_name["x3"]["off_lattice"] == [0, 0]
        # the shifted rows get codes of their own, which decode to their values
        t = load_binary(out_dir / "denoised_shifted.rlt")
        d = t.dictionary("x2")
        finite = np.isfinite(x2)
        decoded = np.array([int(d[c]) for c in t.col("x2")[finite]])
        assert np.allclose(decoded * by_name["x2"]["delta"], x2[finite])

    def test_apply_to_tables_that_would_write_one_file_are_rejected(self, caches, tmp_path,
                                                                     capsys):
        other = tmp_path / "other" / "test.rlt"
        other.parent.mkdir()
        other.write_bytes((caches / "test.rlt").read_bytes())
        out = tmp_path / "out"
        assert main(["denoise", "--table", str(caches / "train.rlt"), "--apply-to",
                     str(caches / "test.rlt"), str(other), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {caches / 'test.rlt'} and {other} would "
                                           f"both write {out / 'denoised_test.rlt'}\n")
        assert not out.exists()

    def test_correlate_writes_square_matrix(self, caches, tmp_path):
        out = tmp_path / "corr.csv"
        rc = main(["correlate", "--table", str(caches / "train.rlt"),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        n = len(lines[0].split(",")) - 1
        assert len(lines) == n + 1


class TestEncodeCommand:
    def test_fit_and_reapply(self, caches, tmp_path):
        spec = [
            {"feature": "c0", "kind": "frequency", "window": "prev_week"},
            {"feature": "c0", "kind": "target", "target": "install"},
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        fit_dir = tmp_path / "fit"
        rc = main([
            "encode", "--table", str(caches / "train.rlt"),
            "--spec", str(spec_path), "--out-dir", str(fit_dir),
        ])
        assert rc == 0
        encoded = load_binary(fit_dir / "encoded.rlt")
        assert "c0__freq_prev_week" in encoded.schema.names
        assert "c0__te_install" in encoded.schema.names
        # re-apply the fitted state to the test table
        re_dir = tmp_path / "re"
        rc = main([
            "encode", "--table", str(caches / "test.rlt"),
            "--state", str(fit_dir / "encoders.json"),
            "--out-dir", str(re_dir),
        ])
        assert rc == 0
        test_encoded = load_binary(re_dir / "encoded.rlt")
        assert "c0__te_install" in test_encoded.schema.names


    @pytest.mark.parametrize("edit, match", [
        (lambda s: s.pop("counts"), "lacks the key 'counts'"),
        (lambda s: s.update(counts=[row[:-1] for row in s["counts"]]),
         "counts is not an array of counts of shape"),
        (lambda s: s.update(kind="target"), "lacks the key 'smoothing'"),
        (lambda s: s.update(feature="c9"), "feature 'c9' is not a categorical column"),
    ])
    def test_reapply_of_a_malformed_state_exits_1(self, caches, tmp_path, capsys, edit, match):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps([{"feature": "c0", "kind": "frequency"}]))
        fit_dir = tmp_path / "fit"
        assert main(["encode", "--table", str(caches / "train.rlt"),
                     "--spec", str(spec_path), "--out-dir", str(fit_dir)]) == 0
        doc = json.loads((fit_dir / "encoders.json").read_text())
        edit(doc["encoders"][0])
        (fit_dir / "encoders.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["encode", "--table", str(caches / "test.rlt"),
                     "--state", str(fit_dir / "encoders.json"),
                     "--out-dir", str(tmp_path / "re")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: encoder state 0: ") and match in err
        assert not (tmp_path / "re" / "encoded.rlt").exists()

    def test_reapply_to_a_delimited_table_fails(self, data, caches, tmp_path, capsys):
        # a fresh ingest of test.csv codes c2 on its own, so states fitted on
        # train.rlt's codes would encode other categories' statistics
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            [{"feature": "c2", "kind": "target", "target": "install"}]
        ))
        fit_dir = tmp_path / "fit"
        assert main([
            "encode", "--table", str(caches / "train.rlt"),
            "--spec", str(spec_path), "--out-dir", str(fit_dir),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "encode", "--table", str(data / "test.csv"),
            "--schema", str(data / "schema.json"),
            "--state", str(fit_dir / "encoders.json"),
            "--out-dir", str(tmp_path / "re"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "test.csv" in err and ".rlt" in err
        assert not (tmp_path / "re" / "encoded.rlt").exists()


class TestTrainAndEvaluate:
    def test_train_then_evaluate_predictions(self, caches, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "num_leaves": 15, "learning_rate": 0.15, "num_iterations": 30,
            "early_stopping_rounds": 10, "min_data_in_leaf": 10,
        }))
        train_dir = tmp_path / "train_out"
        rc = main([
            "train", "--table", str(caches / "train.rlt"),
            "--valid-day", "66", "--params", str(params),
            "--predict", str(caches / "test.rlt"),
            "--out-dir", str(train_dir),
        ])
        assert rc == 0
        assert (train_dir / "model.json").exists()
        assert (train_dir / "predictions.csv").exists()
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "evaluate",
            "--predictions", str(train_dir / "predictions.csv"),
            "--table", str(caches / "test.rlt"),
            "--out", str(metrics_out),
        ])
        assert rc == 0
        doc = json.loads(metrics_out.read_text())
        assert set(doc) == {"logloss", "auc", "nce", "background_rate"}
        assert doc["nce"] < 1.0

    def test_predict_on_a_table_not_denoised_like_the_model_fails(
        self, caches, tmp_path, capsys
    ):
        # the model bins the denoised x2/x3 as categorical; the raw test
        # table has them continuous
        denoised = tmp_path / "denoised"
        assert main(["denoise", "--table", str(caches / "train.rlt"),
                     "--out-dir", str(denoised)]) == 0
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"num_leaves": 7, "num_iterations": 5,
                                      "early_stopping_rounds": 5}))
        out_dir = tmp_path / "out"
        rc = main([
            "train", "--table", str(denoised / "denoised.rlt"),
            "--valid-day", "66", "--params", str(params),
            "--predict", str(caches / "test.rlt"), "--out-dir", str(out_dir),
        ])
        assert rc != 0
        assert "'x2'" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("days", ["65-45", "45"])
    def test_train_days_that_are_no_range_fail_naming_the_value(
        self, caches, tmp_path, capsys, days
    ):
        out_dir = tmp_path / "out"
        assert main(["train", "--table", str(caches / "train.rlt"), "--valid-day", "66",
                     "--train-days", days, "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --train-days {days!r} is not a day range LO-HI")
        assert not (out_dir / "model.json").exists()

    def test_evaluate_missing_row_id_fails(self, caches, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("0,0.5\n")
        with pytest.raises(SystemExit, match="missing"):
            main([
                "evaluate", "--predictions", str(preds),
                "--table", str(caches / "test.rlt"),
                "--out", str(tmp_path / "m.json"),
            ])

    @staticmethod
    def ab_table(tmp):
        """A two-row cache with ids ``a`` and ``b``."""
        (tmp / "t.tsv").write_text("a\t1\nb\t0\n")
        (tmp / "schema.json").write_text(
            json.dumps({"columns": {"id": "row_id", "y": "label_install"}})
        )
        assert main(["ingest", "--schema", str(tmp / "schema.json"),
                     "--out-dir", str(tmp), str(tmp / "t.tsv")]) == 0
        return tmp / "t.rlt"

    def test_evaluate_repeated_row_id_fails_at_its_second_line(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("a,0.9\nb,0.1\na,0.1\nzz,0.5\n")
        rc = main(["evaluate", "--predictions", str(preds),
                   "--table", str(self.ab_table(tmp_path)),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: predictions line 3 repeats row id 'a'\n"
        assert not (tmp_path / "m.json").exists()

    def test_evaluate_foreign_row_ids_fail_with_count_and_first(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("zz,0.5\na,0.9\nyy,0.2\nb,0.1\n")
        with pytest.raises(SystemExit, match=r"^error: predictions hold 2 row ids "
                                             r"the table lacks \(first: zz\)$"):
            main(["evaluate", "--predictions", str(preds),
                  "--table", str(self.ab_table(tmp_path)),
                  "--out", str(tmp_path / "m.json")])
        assert not (tmp_path / "m.json").exists()


class TestRunAndAblate:
    def make_config(self, data, out_dir, tmp_path):
        doc = {
            "paths": {
                "train": str(data / "train.csv"),
                "test": str(data / "test.csv"),
                "output_dir": str(out_dir),
            },
            "schema": json.loads((data / "schema.json").read_text()),
            "split": {"valid_day": 66},
            "stages": {"adversarial": False},
            "adversarial": {"subsample_per_side": 2000},
            "gbdt": {
                "num_leaves": 15, "learning_rate": 0.15, "num_iterations": 30,
                "early_stopping_rounds": 10, "min_data_in_leaf": 10,
            },
            "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_command(self, data, tmp_path, capsys):
        config = self.make_config(data, tmp_path / "out", tmp_path)
        rc = main(["run", "--config", str(config)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "valid logloss=" in out
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_bad_stage_exits_nonzero(self, data, tmp_path, capsys):
        config = self.make_config(data, tmp_path / "out2", tmp_path)
        doc = json.loads(config.read_text())
        doc["split"]["valid_day"] = 99
        config.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(config)])
        assert rc == 1
        assert "stage split" in capsys.readouterr().err

    def test_ablate_command(self, data, tmp_path, capsys):
        config = self.make_config(data, tmp_path / "ab", tmp_path)
        rc = main(["ablate", "--config", str(config), "--stages", "frequency"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vanilla:" in out and "+frequency:" in out
        assert (tmp_path / "ab" / "ablation.csv").exists()


class TestInputLoading:
    def test_delimited_inputs_match_their_ingest_caches(self, data, caches, tmp_path):
        # the delimited inputs of one command are ingested together, so they
        # share dictionaries exactly as the caches of one `ingest` call do
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "num_leaves": 15, "learning_rate": 0.15, "num_iterations": 30,
            "early_stopping_rounds": 10, "min_data_in_leaf": 10,
        }))
        schema = ["--schema", str(data / "schema.json")]
        for kind, d in (("csv", data), ("rlt", caches)):
            train, test = str(d / f"train.{kind}"), str(d / f"test.{kind}")
            assert main(["adversarial", "--train", train, "--test", test, *schema,
                         "--subsample-per-side", "4000",
                         "--out-dir", str(tmp_path / kind / "audit")]) == 0
            assert main(["train", "--table", train, "--predict", test, *schema,
                         "--valid-day", "66", "--params", str(params),
                         "--out-dir", str(tmp_path / kind / "model")]) == 0
        for name in ("audit/adversarial_report.json", "model/predictions.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == (
                tmp_path / "rlt" / name
            ).read_bytes(), name

    def test_mixed_cache_and_delimited_inputs_rejected(self, data, caches, tmp_path, capsys):
        train, test = str(caches / "train.rlt"), str(data / "test.csv")
        rc = main(["adversarial", "--train", train, "--test", test,
                   "--schema", str(data / "schema.json"),
                   "--out-dir", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert train in err and test in err
        assert not (tmp_path / "adversarial_report.json").exists()


#: small GBDT params of the run and of the train subcommand's params file
_STAGE_GBDT = {"num_leaves": 7, "num_iterations": 8, "early_stopping_rounds": 4,
               "min_data_in_leaf": 10, "seed": 3}


def _train_command(cache: Path) -> list[str]:
    params = cache / "params.json"
    params.write_text(json.dumps(_STAGE_GBDT))
    return ["train", "--table", str(cache / "train.rlt"), "--valid-day", "66",
            "--params", str(params)]


STAGE_COMMANDS = {
    # stage: (the run's stage toggles, the subcommand given the run's cache
    #         directory, the artifacts it must write byte-identical to the run's)
    "adversarial": (
        {"adversarial": True},
        lambda cache: ["adversarial", "--train", str(cache / "train.rlt"),
                       "--test", str(cache / "test.rlt"), "--seed", "3",
                       "--subsample-per-side", "2000"],
        ["adversarial_report.json", "adversarial_auc.csv", "adversarial_auc.svg"],
    ),
    "denoise": (
        {"adversarial": False},
        lambda cache: ["denoise", "--table", str(cache / "train.rlt"),
                       "--apply-to", str(cache / "test.rlt"), "--tol-rel", "0.002"],
        ["delta_estimates.json", "correlation.csv"],
    ),
    "train": (
        {name: name == "train" for name in pipeline.STAGE_NAMES},
        _train_command,
        ["model.json", "valid_predictions.csv", "feature_importance.csv",
         "feature_importance.svg", "training_curve.csv"],
    ),
}


@pytest.mark.parametrize("stage", sorted(STAGE_COMMANDS))
def test_subcommand_writes_the_same_artifacts_as_run(data, tmp_path, stage):
    toggles, command, artifacts = STAGE_COMMANDS[stage]
    run_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"train": str(data / "train.csv"), "test": str(data / "test.csv"),
                  "output_dir": str(run_dir)},
        "schema": json.loads((data / "schema.json").read_text()),
        "split": {"valid_day": 66},
        "stages": {"train": False, **toggles},
        "adversarial": {"subsample_per_side": 2000},
        "denoise": {"tol_rel": 0.002},
        "gbdt": _STAGE_GBDT,
        "seed": 3,
    }))
    assert main(["run", "--config", str(config)]) == 0
    cli_dir = tmp_path / "cli"
    assert main(command(run_dir / "cache") + ["--out-dir", str(cli_dir)]) == 0
    for name in artifacts:
        assert (cli_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


#: ids a delimited file can carry: no tab, line break or NUL
_FILE_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r\0"), max_size=5
)


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(_FILE_IDS, min_size=2, max_size=12, unique=True), data=st.data())
@example(ids=[" a", "b,c", "é", "", "日本 "], data=None)
def test_ids_travel_from_ingest_through_the_predictions_csv_to_evaluate(
    ids, data, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("ids")
    labels = [k % 2 for k in range(len(ids))]
    (tmp / "t.tsv").write_bytes(
        "".join(f"{i}\t{y}\n" for i, y in zip(ids, labels)).encode()
    )
    (tmp / "schema.json").write_text(
        json.dumps({"columns": {"id": "row_id", "y": "label_install"}})
    )
    assert main(["ingest", "--schema", str(tmp / "schema.json"),
                 "--out-dir", str(tmp), str(tmp / "t.tsv")]) == 0
    table = load_binary(tmp / "t.rlt")
    if data is None:
        probs = np.linspace(0.05, 0.95, len(ids))
    else:
        probs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids),
                                            max_size=len(ids))))
    write_predictions_csv(pipeline._row_ids(table), probs, tmp / "p.csv")
    want = "".join("%s,%.6f\n" % row for row in zip(ids, probs.tolist())).encode()
    assert (tmp / "p.csv").read_bytes() == want
    assert main(["evaluate", "--predictions", str(tmp / "p.csv"),
                 "--table", str(tmp / "t.rlt"), "--out", str(tmp / "m.json")]) == 0
    written = np.array([float("%.6f" % p) for p in probs])
    assert json.loads((tmp / "m.json").read_text()) == pipeline._metrics_dict(
        np.array(labels), written
    )
