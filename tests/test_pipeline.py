import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resplite import pipeline
from resplite.encoders import EncoderError, load_states
from resplite.pipeline import (
    CONFIG_KEYS,
    REQUIRED,
    STAGE_NAMES,
    PipelineError,
    ablate,
    emit_synthetic,
    load_config,
    run,
)
from resplite.report import (
    _CSV_BLOCK,
    ReportError,
    read_predictions_csv,
    report_export,
    write_bar_chart_svg,
    write_predictions_csv,
)
from resplite.tabular import MISSING_TOKEN, ColumnRole, Schema, Table, load_binary

from conftest import make_cat_table


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    files = emit_synthetic(seed=21, out_dir=out, n_rows_per_day=300)
    return files


def base_config(dataset, out_dir, **extra):
    doc = {
        "paths": {
            "train": dataset["train"],
            "test": dataset["test"],
            "output_dir": str(out_dir),
        },
        "schema": json.loads(Path(dataset["schema"]).read_text()),
        "split": {"valid_day": 66},
        "adversarial": {"subsample_per_side": 4000},
        "gbdt": {
            "num_leaves": 15,
            "learning_rate": 0.15,
            "num_iterations": 40,
            "early_stopping_rounds": 10,
            "min_data_in_leaf": 10,
        },
        "seed": 5,
    }
    doc.update(extra)
    return doc


def file_hashes(root: Path, skip=("timings.json",)) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


class TestLoadConfig:
    def test_missing_paths_rejected(self):
        with pytest.raises(PipelineError, match="paths.train"):
            load_config({"split": {"valid_day": 66}}, env={})

    def test_missing_valid_day_rejected(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path)
        del doc["split"]["valid_day"]
        with pytest.raises(PipelineError, match="valid_day"):
            load_config(doc, env={})

    @pytest.mark.parametrize("gbdt, match", [
        ({"bogus": 1}, r"params has unknown keys \['bogus'\]"),
        ([1, 2], "params must be a JSON object, not list"),
        ({"num_leaves": "31"}, "bad gbdt params: params: '<' not supported"),
    ])
    def test_bad_gbdt_params_rejected(self, gbdt, match):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}, "gbdt": gbdt}
        with pytest.raises(PipelineError, match=match):
            load_config(doc, env={})

    def test_env_overrides(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path)
        cfg = load_config(
            doc,
            env={
                "RLT_GBDT_NUM_LEAVES": "31",
                "RLT_STAGES_DENOISE": "false",
                "RLT_RUN_SEED": "99",
                "RLT_ADVERSARIAL_AUC_THRESHOLD": "0.8",
            },
        )
        assert cfg.gbdt.num_leaves == 31
        assert cfg.stages["denoise"] is False
        assert cfg.seed == 99
        assert cfg.adversarial.auc_threshold == 0.8

    @pytest.mark.parametrize("section, key, value, match", [
        ("stages", "denoise", "false", "stages.denoise is 'false', not bool"),
        ("encoders", "keep_originals", "false", "encoders.keep_originals is 'false', not bool"),
        ("denoise", "tol_rel", [1], r"denoise.tol_rel is \[1\], not int or float"),
        ("split", "valid_day", 66.0, "split.valid_day is 66.0, not int"),
        ("split", "train_days", [60.5], "a split.train_days entry is 60.5, not int"),
        ("adversarial", "subsample_per_side", 1.5,
         "adversarial.subsample_per_side is 1.5, not int or NoneType"),
        ("encoders", "target", {"smoothing": "1"}, "encoders.target.smoothing is '1'"),
        ("denoise", "tol_rel", 10**400, "denoise.tol_rel is an integer too large for a float"),
        ("encoders", "target", {"smoothing": -(10**400)},
         "encoders.target.smoothing is an integer too large for a float"),
        ("adversarial", "auc_threshold", 10**400,
         "adversarial.auc_threshold is an integer too large for a float"),
    ])
    def test_value_of_the_wrong_json_type_rejected(self, section, key, value, match):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}}
        doc.setdefault(section, {})[key] = value
        with pytest.raises(PipelineError, match="stage config: " + match):
            load_config(doc, env={})

    @pytest.mark.parametrize("encoders, match", [
        ({"frequency": {"features": "c0"}},
         "encoders.frequency.features is 'c0', not a list or 'all_categorical'"),
        ({"target": {"features": "c0"}},
         "encoders.target.features is 'c0', not a list or 'all_categorical'"),
        ({"target": {"features": ["c0", 1]}}, "an entry of encoders.target.features is 1"),
        ({"target": {"targets": "install"}}, "encoders.target.targets is 'install', not list"),
        ({"target": {"targets": ["install", None]}},
         "an entry of encoders.target.targets is None, not str"),
        ({"frequency": {"window": "prev_month"}},
         "encoders.frequency.window is 'prev_month', not one of prev_day, prev_week"),
    ])
    def test_malformed_encoder_lists_fail_the_config_stage(self, encoders, match):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}, "encoders": encoders}
        with pytest.raises(PipelineError, match="stage config: " + match):
            load_config(doc, env={})

    def test_encoder_lists_are_read(self):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66},
               "encoders": {"frequency": {"features": ["c1"], "window": "prev_day"},
                            "target": {"targets": ["install"]}}}
        cfg = load_config(doc, env={})
        assert cfg.freq_features == ["c1"] and cfg.freq_window.value == "prev_day"
        assert cfg.te_features == "all_categorical" and cfg.te_targets == ["install"]

    def test_env_override_that_is_no_json_bool_rejected(self):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}}
        assert load_config(doc, env={"RLT_STAGES_DENOISE": "false"}).stages["denoise"] is False
        with pytest.raises(PipelineError, match="stages.denoise is 'False', not bool"):
            load_config(doc, env={"RLT_STAGES_DENOISE": "False"})

    @pytest.mark.parametrize("path", [
        "denoise.origin", "denoise.as_categorical", "adversarial.re_audit_encoded",
        "stages.embedding", "encoders.frequency.widow",
    ])
    def test_unknown_section_keys_fail_the_config_stage(self, path):
        doc = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}, "n_threads": 1}
        # a top-level key the reader does not know is ignored
        assert load_config(doc, env={}).stages["denoise"] is True
        *sections, last = path.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        section[last] = True
        with pytest.raises(PipelineError, match=f"stage config: {path} is no config key"):
            load_config(doc, env={})

    def test_seed_propagates_to_gbdt_and_adversarial(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path)
        del doc["gbdt"]
        cfg = load_config(doc, env={})
        assert cfg.gbdt.seed == 5
        assert cfg.adversarial.seed == 5


def _env_name(path: str) -> str:
    """``RLT_`` and the dotted path in upper case, dots as underscores; a
    top-level key is under ``RUN``."""
    return "RLT_" + ("" if "." in path else "RUN_") + path.upper().replace(".", "_")


def _accepted_value(key, tmp_path):
    """A value that ``key`` accepts and that is not its default."""
    if key.path == "schema":
        return {"day": "day"}
    if key.path == "schema_path":
        path = tmp_path / "schema.json"
        path.write_text('{"day": "day"}')
        return str(path)
    if key.types == (int, float):
        return 0.625
    if key.types[0] is bool:
        return not key.default
    if key.types[0] is int:
        return 3 if key.default in (None, REQUIRED) else key.default - 1
    if key.types[0] is list:
        return [60] if key.entry is int else ["c9"]
    return next((c for c in key.choices if c != key.default), "elsewhere")


class TestConfigKeys:
    MINIMAL = {"paths": {"train": "a", "test": "b", "output_dir": "o"},
               "split": {"valid_day": 66}}

    def test_env_overrides_reach_nested_keys(self):
        cfg = load_config(self.MINIMAL, env={"RLT_ENCODERS_TARGET_SMOOTHING": "5",
                                             "RLT_ENCODERS_FREQUENCY_WINDOW": "prev_day"})
        assert cfg.te_smoothing == 5.0 and type(cfg.te_smoothing) is float
        assert cfg.freq_window.value == "prev_day"
        assert cfg.raw["encoders"] == {"target": {"smoothing": 5},
                                       "frequency": {"window": "prev_day"}}

    @pytest.mark.parametrize("name", ["RLT_SPLIT_VALIDDAY", "RLT_ENCODERS_SMOOTHING", "RLT_SEED"])
    def test_env_variable_that_names_no_key_fails_the_config_stage(self, name):
        with pytest.raises(PipelineError, match=f"stage config: {name} names no config key"):
            load_config(self.MINIMAL, env={name: "3"})

    def test_env_names_are_distinct(self):
        names = {_env_name(key.path) for key in CONFIG_KEYS}
        assert len(names) == len({key.path for key in CONFIG_KEYS}) == len(CONFIG_KEYS)

    @pytest.mark.parametrize("key", CONFIG_KEYS, ids=lambda key: key.path)
    def test_env_name_sets_exactly_its_key(self, key, tmp_path):
        name = _env_name(key.path)
        value = _accepted_value(key, tmp_path)
        want = json.loads(json.dumps(self.MINIMAL))
        *sections, last = key.path.split(".")
        section = want
        for part in sections:
            section = section.setdefault(part, {})
        section[last] = value
        assert load_config(self.MINIMAL, env={name: json.dumps(value)}).raw == want

    def test_stages_are_exactly_the_known_ones(self):
        doc = dict(self.MINIMAL, stages={"denoise": False})
        assert load_config(doc, env={}).stages == {
            name: name != "denoise" for name in STAGE_NAMES}


class TestRun:
    def test_full_run_sections_and_artifacts(self, dataset, tmp_path):
        cfg = load_config(base_config(dataset, tmp_path / "out"), env={})
        report = run(cfg)
        assert list(report.sections) == [
            "ingest", "split", "adversarial", "denoise", "encoding",
            "training", "metrics",
        ]
        assert report.sections["adversarial"]["dropped"] == ["x4"]
        assert set(report.sections["denoise"]["detected"]) == {"x2", "x3"}
        assert report.sections["metrics"]["valid"]["nce"] < 1.0
        out = tmp_path / "out"
        for name in (
            "report.json", "timings.json", "model.json", "metrics.json",
            "adversarial_report.json", "adversarial_auc.csv",
            "adversarial_auc.svg", "delta_estimates.json", "encoders.json",
            "correlation.csv", "feature_importance.csv",
            "feature_importance.svg", "training_curve.csv",
            "valid_predictions.csv", "test_predictions.csv",
        ):
            assert (out / name).exists(), name
        # timings stay out of the deterministic report
        report_doc = json.loads((out / "report.json").read_text())
        assert "timings" not in report_doc

    def test_no_originals_on_listed_train_days(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["split"]["train_days"] = [60, 61, 62, 63, 64, 65]
        doc["encoders"] = {"keep_originals": False}
        report = run(load_config(doc, env={}))
        out = tmp_path / "out"
        features = set(json.loads((out / "model.json").read_text())["feature_names"])
        encoded = report.sections["encoding"]["columns"]
        originals = {name.split("__")[0] for name in encoded}
        assert originals and not originals & features
        assert set(encoded) <= features
        sections = json.loads((out / "report.json").read_text())["sections"]
        assert sections["split"]["train_days"] == [60, 61, 62, 63, 64, 65]
        days = load_binary(out / "cache" / "train.rlt").day_values
        assert sections["training"]["train_rows"] == np.isin(days, range(60, 66)).sum()

    def test_training_disabled_drops_metrics_sections(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["stages"] = {"train": False}
        report = run(load_config(doc, env={}))
        assert "training" not in report.sections
        assert "metrics" not in report.sections
        assert "adversarial" in report.sections
        assert "encoding" in report.sections
        assert not (tmp_path / "out" / "model.json").exists()

    def test_determinism_byte_identical(self, dataset, tmp_path):
        # identical config (same output dir) run twice: every artifact
        # including report.json must be byte-identical; only timings.json
        # carries wall-clock noise
        doc = base_config(dataset, tmp_path / "o1")
        run(load_config(json.loads(json.dumps(doc)), env={}))
        h1 = file_hashes(tmp_path / "o1")
        run(load_config(json.loads(json.dumps(doc)), env={}))
        h2 = file_hashes(tmp_path / "o1")
        assert h1 == h2

    def test_thread_setting_does_not_change_artifacts(self, dataset, tmp_path):
        # the config echo inside report.json differs (it records n_threads);
        # every computed artifact and report section must not
        doc1 = base_config(dataset, tmp_path / "t1")
        doc2 = base_config(dataset, tmp_path / "t2", n_threads=4)
        r1 = run(load_config(doc1, env={}))
        r2 = run(load_config(doc2, env={}))
        skip = ("timings.json", "report.json")
        assert file_hashes(tmp_path / "t1", skip) == file_hashes(tmp_path / "t2", skip)
        assert r1.sections == r2.sections

    def test_cache_correctness(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "csv_run")
        r1 = run(load_config(doc, env={}))
        cache = tmp_path / "csv_run" / "cache"
        doc2 = base_config(dataset, tmp_path / "rlt_run")
        doc2["paths"]["train"] = str(cache / "train.rlt")
        doc2["paths"]["test"] = str(cache / "test.rlt")
        r2 = run(load_config(doc2, env={}))
        skip = ("timings.json", "report.json", "train.rlt", "test.rlt")
        assert file_hashes(tmp_path / "csv_run", skip) == file_hashes(
            tmp_path / "rlt_run", skip
        )
        assert r1.sections == r2.sections

    def test_stage_isolation(self, dataset, tmp_path):
        doc1 = base_config(dataset, tmp_path / "full")
        doc2 = base_config(dataset, tmp_path / "no_te")
        doc2["stages"] = {"target_encoding": False}
        run(load_config(doc1, env={}))
        run(load_config(doc2, env={}))
        # artifacts of stages before the toggled one are identical
        for name in (
            "adversarial_report.json", "adversarial_auc.csv",
            "delta_estimates.json", "correlation.csv",
        ):
            a = (tmp_path / "full" / name).read_bytes()
            b = (tmp_path / "no_te" / name).read_bytes()
            assert a == b, name

    def test_predictions_join_row_ids_with_six_decimals(self, dataset, tmp_path):
        cfg = load_config(base_config(dataset, tmp_path / "out"), env={})
        run(cfg)
        lines = (tmp_path / "out" / "valid_predictions.csv").read_text().strip().split("\n")
        assert len(lines) == 300  # one valid day at 300 rows/day
        rid, prob = lines[0].split(",")
        assert rid.isdigit()
        assert len(prob.split(".")[1]) == 6

    def test_failed_stage_is_tagged_and_keeps_artifacts(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["split"]["valid_day"] = 99
        with pytest.raises(PipelineError, match="stage split"):
            run(load_config(doc, env={}))
        assert (tmp_path / "out" / "cache" / "train.rlt").exists()

    def test_failed_train_stage_keeps_the_report_files_of_earlier_stages(
        self, dataset, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(pipeline, "gbdt_fit", fail)
        with pytest.raises(PipelineError, match="stage train: fit failed"):
            run(load_config(base_config(dataset, tmp_path / "out"), env={}))
        for name in ("adversarial_report.json", "adversarial_auc.csv", "adversarial_auc.svg",
                     "delta_estimates.json", "correlation.csv", "encoders.json"):
            assert (tmp_path / "out" / name).exists(), name

    def test_encoder_feature_not_in_the_input_fails_the_encode_stage(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["encoders"] = {"frequency": {"features": ["c0", "typo"]}}
        with pytest.raises(PipelineError, match=(
            "stage encode: encoder spec 1 has feature 'typo', not a table column"
        )):
            run(load_config(doc, env={}))
        assert (tmp_path / "out" / "delta_estimates.json").exists()

    def test_encoder_features_the_audit_dropped_are_skipped(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["adversarial"]["auc_threshold"] = 0.55
        doc["stages"] = {"train": False, "target_encoding": False}
        doc["encoders"] = {"frequency": {"features": ["c0", "c2", "x1"]}}
        report = run(load_config(doc, env={}))
        assert {"c2", "x1"} <= set(report.sections["adversarial"]["dropped"])
        assert report.sections["encoding"]["columns"] == ["c0__freq_prev_week"]

    def test_bad_gbdt_params_fail_in_config_stage(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "out")
        doc["gbdt"]["num_leaves"] = 1
        with pytest.raises(PipelineError, match="stage config"):
            load_config(doc, env={})


class TestAblate:
    def test_single_stage_list_matches_plain_run(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "ab")
        doc["stages"] = {"adversarial": False}
        cfg = load_config(doc, env={})
        rows = ablate(cfg, ["frequency"])
        assert [r["variant"] for r in rows] == ["vanilla", "+frequency"]
        # the +frequency variant equals a plain run with the same toggles
        doc2 = base_config(dataset, tmp_path / "plain")
        doc2["stages"] = {
            "adversarial": False, "denoise": False,
            "frequency": True, "target_encoding": False,
        }
        rep = run(load_config(doc2, env={}))
        want = rep.sections["metrics"]["valid"]["logloss"]
        assert rows[1]["valid_logloss"] == pytest.approx(want, abs=1e-12)

    def test_unknown_stage_rejected(self, dataset, tmp_path):
        cfg = load_config(base_config(dataset, tmp_path / "ab2"), env={})
        with pytest.raises(PipelineError, match="unknown ablation stage"):
            ablate(cfg, ["embedding"])

    def test_empty_stage_list_gives_single_vanilla_row(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "ab4")
        doc["stages"] = {"adversarial": False}
        cfg = load_config(doc, env={})
        rows = ablate(cfg, [])
        assert [r["variant"] for r in rows] == ["vanilla"]
        doc2 = base_config(dataset, tmp_path / "plain4")
        doc2["stages"] = {
            "adversarial": False, "denoise": False,
            "frequency": False, "target_encoding": False,
        }
        rep = run(load_config(doc2, env={}))
        assert rows[0]["valid_logloss"] == pytest.approx(
            rep.sections["metrics"]["valid"]["logloss"], abs=1e-12
        )

    def test_summary_csv_shape(self, dataset, tmp_path):
        doc = base_config(dataset, tmp_path / "ab3")
        doc["stages"] = {"adversarial": False}
        rows = ablate(load_config(doc, env={}), ["frequency", "denoise"])
        csv = (tmp_path / "ab3" / "ablation.csv").read_text().strip().split("\n")
        assert csv[0].startswith("variant,valid_logloss,valid_nce")
        assert len(csv) == 4  # header + 3 variants


class TestReportExport:
    def test_adversarial_csv_row_count(self, dataset, tmp_path):
        cfg = load_config(base_config(dataset, tmp_path / "out"), env={})
        report = run(cfg)
        lines = (tmp_path / "out" / "adversarial_auc.csv").read_text().strip().split("\n")
        assert len(lines) - 1 == len(report.sections["adversarial"]["features"])

    def test_importance_svg_caps_at_twenty_bars(self, tmp_path):
        labels = [f"f{i}" for i in range(30)]
        values = [float(30 - i) for i in range(30)]
        path = tmp_path / "imp.svg"
        write_bar_chart_svg(labels[:20], values[:20], path, "test")
        svg = path.read_text()
        assert svg.count("<rect") == 20
        report_export(tmp_path, importance=list(zip(labels, [int(v) for v in values])))
        assert (tmp_path / "feature_importance.svg").read_text().count("<rect") == 20

    def test_svg_descending_order(self, tmp_path):
        report_export(tmp_path, importance=[("a", 9), ("b", 5), ("c", 1)])
        svg = (tmp_path / "feature_importance.svg").read_text()
        assert svg.index(">a<") < svg.index(">b<") < svg.index(">c<")

    @pytest.mark.parametrize("ids", [["a", "b", "c", "d", "e", "f"], np.array(list("abcdef"))])
    def test_predictions_csv_bytes(self, tmp_path, ids):
        # rounding edge cases at six decimals, ids as a list or an array
        probs = np.array([5e-7, 1.5e-6, 0.9999995, 0.0, 1.0, 0.1234565])
        write_predictions_csv(ids, probs, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == (
            b"a,0.000000\nb,0.000002\nc,1.000000\nd,0.000000\ne,1.000000\nf,0.123456\n"
        )

    @pytest.mark.parametrize("bad", [b"0.5", b"c,", b"c,0.5x", b","])
    def test_malformed_predictions_line_names_its_number(self, tmp_path, bad):
        path = tmp_path / "p.csv"
        path.write_bytes(b"a,b,0.25\r\n\nd,1.000000\n" + bad + b"\n")
        with pytest.raises(ReportError, match="predictions line 4 is not 'row_id,probability'"):
            read_predictions_csv(path)
        path.write_bytes(b"a,b,0.25\r\n\nd,1.000000\n")
        assert read_predictions_csv(path) == {b"a,b": 0.25, b"d": 1.0}


def _reference_write_predictions_csv(row_ids, probabilities, path) -> None:
    """The line-by-line writer that ``write_predictions_csv`` replaced."""
    ids, probs = np.asarray(row_ids), np.asarray(probabilities)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for at in range(0, len(ids), 8192):
            rows = zip(ids[at : at + 8192].tolist(), probs[at : at + 8192].tolist())
            fh.write("".join("%s,%.6f\n" % row for row in rows))


@st.composite
def _rounding_edges(draw):
    """A probability at or next to a six-decimal rounding half, or outside
    the fast path: 0, 1, -0.0, NaN, infinities, values outside [0, 1]."""
    k = draw(st.integers(0, 999_999))
    half = (k + 0.5) / 1e6
    return draw(st.sampled_from([
        half, np.nextafter(half, 0.0), np.nextafter(half, 1.0), k / 1e6,
        0.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1e-9, 5e-324,
    ]))


_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(
    st.one_of(_IDS, st.text(st.characters(max_codepoint=127), max_size=5)),
    st.one_of(_rounding_edges(), st.floats(0.0, 1.0)),
), max_size=20))
def test_predictions_csv_equals_the_line_by_line_writer(rows, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    ids = [i for i, _ in rows]
    probs = np.array([p for _, p in rows], dtype=np.float64)
    write_predictions_csv(ids, probs, tmp / "got.csv")
    _reference_write_predictions_csv(ids, probs, tmp / "want.csv")
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_row_ids_are_passed_as_the_column_itself():
    labels = {"y": np.zeros(3, dtype=np.uint8)}
    with_ids = Table.from_columns(
        Schema((("id", ColumnRole.ROW_ID), ("y", ColumnRole.LABEL_INSTALL))),
        {"id": ["r7", "r8", "r9"], **labels},
    )
    assert pipeline._row_ids(with_ids) is with_ids.col("id")
    without = Table.from_columns(Schema((("y", ColumnRole.LABEL_INSTALL),)), labels)
    assert pipeline._row_ids(without).tolist() == [b"0", b"1", b"2"]


@pytest.mark.parametrize("specs, match", [
    ([{"feature": "cat", "kind": "frequency"}, {"feature": "cat", "kind": "target",
      "target": "install"}, {"feature": "cat", "kind": "frequency", "window": "prev_week"}],
     "encoder specs 0 and 2 both make the column 'cat__freq_prev_week'"),
    ([{"feature": "cat", "kind": "target", "target": "install", "smoothing": s}
      for s in (0.3, 7)], "encoder specs 0 and 1 both make the column 'cat__te_install'"),
    ([{"feature": "cat", "kind": "target", "target": "install", "smoothing": 10**400}],
     "smoothing of encoder spec 0 is an integer too large for a float"),
    ([{"feature": "cat", "kind": "target", "target": "install"},
      {"feature": "cat", "kind": "frequency", "window": "prev_day"}],
     "encoder spec 1 makes the column 'cat__freq_prev_day', which the table already has"),
])
def test_encode_stage_rejects_specs_before_fitting_and_writes_no_file(tmp_path, monkeypatch,
                                                                      specs, match):
    table = make_cat_table([45, 45, 46, 46], [1, 2, 1, 0], [MISSING_TOKEN, "a", "b"], [0, 1, 0, 1])
    table = table.append_columns([("cat__freq_prev_day", ColumnRole.CONTINUOUS, np.zeros(4))])
    monkeypatch.setattr(pipeline.enc_mod, "_fit", lambda *a, **k: pytest.fail("fitted"))
    with pytest.raises(EncoderError, match=match):
        pipeline.encode_stage([table], specs, tmp_path)
    assert not (tmp_path / "encoders.json").exists()


def test_encode_stage_streams_states_and_keeps_no_partial_file(tmp_path):
    table = make_cat_table([45, 45, 46, 46], [1, 2, 1, 0], [MISSING_TOKEN, "a", "b"], [0, 1, 0, 1])
    specs = [{"feature": "cat", "kind": "frequency"},
             {"feature": "cat", "kind": "target", "target": "install"}]
    columns, (encoded,) = pipeline.encode_stage([table], specs, tmp_path)
    assert columns == ["cat__freq_prev_week", "cat__te_install"]
    assert encoded.schema.names[-2:] == tuple(columns)
    states = load_states(tmp_path / "encoders.json")
    assert [s.column_name for s in states] == columns
    # a spec that fails after the first state was written leaves no file
    specs[1] = {"feature": "cat", "kind": "target"}
    with pytest.raises(EncoderError, match="encoder spec 1 lacks the key 'target'"):
        pipeline.encode_stage([table], specs, tmp_path)
    assert not (tmp_path / "encoders.json").exists()


def test_predictions_csv_blocks_fall_back_one_at_a_time(tmp_path):
    # a rounding half in the second block sends only that block line by line
    n = 2 * _CSV_BLOCK + 3
    rng = np.random.Generator(np.random.PCG64(8))
    probs = rng.random(n)
    probs[_CSV_BLOCK + 5] = 0.0078125  # exactly 7812.5 millionths
    ids = np.arange(n).astype(np.str_)
    write_predictions_csv(ids, probs, tmp_path / "got.csv")
    _reference_write_predictions_csv(ids, probs, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert f"\n{_CSV_BLOCK + 5},0.007812\n".encode() in got


class TestSynthCommandBackend:
    def test_emit_writes_all_four_files(self, tmp_path):
        files = emit_synthetic(seed=1, out_dir=tmp_path, n_rows_per_day=50)
        for path in files.values():
            assert Path(path).exists()
        truth = json.loads(Path(files["truth"]).read_text())
        assert truth["deltas"] == {"x2": 0.0385, "x3": 0.5711}
        table = load_binary if False else None  # noqa: F841
        n_lines = Path(files["train"]).read_text().count("\n")
        assert n_lines == 50 * 22
