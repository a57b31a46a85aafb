"""Config-driven orchestration of the full pipeline and the cumulative
ablation runner.

A run executes ingest -> split -> adversarial audit/filter -> denoise ->
encode -> train -> evaluate, honoring per-stage toggles, and writes every
artifact under the configured output directory.  Given the same config,
seed, and inputs, two runs produce byte-identical prediction files and
reports (wall-clock timings are segregated into ``timings.json``).

Each stage is one function (``audit_stage``, ``denoise_stage``,
``encode_stage``, ``train_stage``, ``predict_stage``) called both by
:func:`run` and by the matching CLI subcommand; :func:`load_tables` loads
the inputs of either.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import advval, denoise as denoise_mod, encoders as enc_mod, metrics
from .denoise import DEFAULT_TOL_REL
from .gbdt import (
    GbdtError,
    GbdtModel,
    GbdtParams,
    feature_importance,
    fit as gbdt_fit,
    params_from_json,
    predict as gbdt_predict,
    save_model,
)
from .gbdt.binning import json_float, json_value
from .gbdt.boosting import PARAM_TYPES
from .report import (
    RunReport,
    read_json,
    report_export,
    save_correlation_csv,
    save_report_json,
    write_json,
    write_predictions_csv,
    write_rows,
)
from .synth import default_spec, generate, split_train_test, write_csv
from .tabular import (
    ColumnRole,
    Schema,
    SplitPlan,
    Table,
    TabularError,
    ingest_csv_group,
    load_binary,
    row_numbers,
    save_binary,
    split_rows,
)

ENV_PREFIX = "RLT_"
STAGE_NAMES = ("adversarial", "denoise", "frequency", "target_encoding", "train")
ALL_CATEGORICAL = "all_categorical"


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage name."""

    def __init__(self, stage: str, cause: Exception | str):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage}: {cause}")


@dataclass
class PipelineConfig:
    train_path: str
    test_path: str
    output_dir: str
    schema: Schema
    split_plan: SplitPlan
    stages: dict[str, bool]
    adversarial: advval.AdvConfig
    denoise_tol_rel: float
    freq_features: list[str] | str
    freq_window: enc_mod.FreqWindow
    te_features: list[str] | str
    te_targets: list[str]
    te_smoothing: float
    keep_originals: bool
    gbdt: GbdtParams
    seed: int
    raw: dict = field(default_factory=dict)


_config_error = partial(PipelineError, "config")
REQUIRED = object()  # the default of a key the document must give


@dataclass(frozen=True)
class ConfigKey:
    """One key of the config document: its dotted ``path``, the JSON
    ``types`` its value may have, its ``default`` (or ``REQUIRED``), the
    strings a ``str`` value may be, the type of a list value's entries, and
    the :class:`PipelineConfig` field that takes the value as it is."""

    path: str
    types: tuple[type, ...]
    default: object = REQUIRED
    choices: tuple[str, ...] = ()
    entry: type | None = None
    attr: str | None = None


#: every key the reader knows; a section key not listed is a config error,
#: a top-level one is ignored
CONFIG_KEYS = (
    ConfigKey("paths.train", (str,), attr="train_path"),
    ConfigKey("paths.test", (str,), attr="test_path"),
    ConfigKey("paths.output_dir", (str,), attr="output_dir"),
    ConfigKey("schema", (dict,), None),
    ConfigKey("schema_path", (str,), None),  # relative to the config file
    ConfigKey("split.valid_day", (int,)),
    ConfigKey("split.train_days", (list,), (), entry=int),
    *(ConfigKey(f"stages.{name}", (bool,), True) for name in STAGE_NAMES),
    ConfigKey("seed", (int,), 0, attr="seed"),
    ConfigKey("adversarial.auc_threshold", (int, float), advval.AdvConfig.auc_threshold),
    ConfigKey("adversarial.holdout_fraction", (int, float), advval.AdvConfig.holdout_fraction),
    ConfigKey("adversarial.seed", (int,), None),  # None: the run's seed
    ConfigKey("adversarial.subsample_per_side", (int, type(None)),
              advval.AdvConfig.subsample_per_side),
    ConfigKey("denoise.tol_rel", (int, float), DEFAULT_TOL_REL, attr="denoise_tol_rel"),
    ConfigKey("encoders.frequency.features", (list, str), ALL_CATEGORICAL,
              (ALL_CATEGORICAL,), str, "freq_features"),
    ConfigKey("encoders.frequency.window", (str,), enc_mod.FreqWindow.PREV_WEEK.value,
              tuple(w.value for w in enc_mod.FreqWindow)),
    ConfigKey("encoders.target.features", (list, str), ALL_CATEGORICAL,
              (ALL_CATEGORICAL,), str, "te_features"),
    ConfigKey("encoders.target.targets", (list,), ("click", "install"), entry=str),
    ConfigKey("encoders.target.smoothing", (int, float), enc_mod.EncoderState.smoothing,
              attr="te_smoothing"),
    ConfigKey("encoders.keep_originals", (bool,), True, attr="keep_originals"),
    # the gbdt section goes whole to params_from_json, which checks these types
    *(ConfigKey(f"gbdt.{f.name}", PARAM_TYPES[f.name], f.default) for f in fields(GbdtParams)),
)


def _section(doc: dict, path: str, create: bool = False) -> tuple[dict, str]:
    """The object of ``doc`` that holds the dotted ``path``'s last key (made
    when ``create``), and that key."""
    *sections, key = path.split(".")
    for name in sections:
        value = doc.setdefault(name, {}) if create else doc.get(name, {})
        doc = json_value(value, (dict,), f"section {name!r}", _config_error)
    return doc, key


def _value(doc: dict, key: ConfigKey):
    """``key``'s value in ``doc``, or its default when absent; a value of
    another JSON type, choice or entry type is a config error.  Numbers are
    read as floats."""
    section, name = _section(doc, key.path)
    if name not in section:
        if key.default is REQUIRED:
            raise _config_error(f"{key.path} is required")
        return key.default
    value = json_value(section[name], key.types, key.path, _config_error)
    if isinstance(value, str) and key.choices and value not in key.choices:
        expected = (f"a list or {key.choices[0]!r}" if list in key.types
                    else f"one of {', '.join(key.choices)}")
        raise _config_error(f"{key.path} is {value!r}, not {expected}")
    if isinstance(value, list):
        entry = f"a {key.path} entry" if key.entry is int else f"an entry of {key.path}"
        return [json_value(v, (key.entry,), entry, _config_error) for v in value]
    return json_float(value, key.path, _config_error) if float in key.types else value


def _reject_unknown_keys(doc: dict, prefix: str = "") -> None:
    """A key of a section of ``doc`` that :data:`CONFIG_KEYS` does not list
    is a config error.  Top-level keys are not checked, nor is the gbdt
    section: ``params_from_json`` checks it."""
    for name, value in doc.items():
        path = prefix + name
        if isinstance(value, dict) and path != "gbdt" and any(
                key.path.startswith(path + ".") for key in CONFIG_KEYS):
            _reject_unknown_keys(value, path + ".")
        elif prefix and all(key.path != path for key in CONFIG_KEYS):
            raise _config_error(f"{path} is no config key")


def _built(tag: str, make):
    """``make()``; a range check of the object it builds that fails is a
    config error, its message led by ``tag``, which names the key."""
    try:
        return make()
    except (advval.AdvValError, TabularError) as exc:
        raise _config_error(f"{tag}{exc}") from exc


def load_config(source: str | Path | dict, env: dict[str, str] | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a JSON file or dict plus env overrides.
    ``RLT_<PATH>`` sets the key of :data:`CONFIG_KEYS` at the dotted path in
    upper case, dots as underscores (``RLT_RUN_<KEY>`` a top-level key), to
    its value parsed as JSON with a plain-string fallback; an ``RLT_``
    variable that names no key is a config error.  Values must have their
    JSON types (``"false"`` is no bool)."""
    if isinstance(source, (str, Path)):
        doc = read_json(source, _config_error)
        base_dir = Path(source).parent
    else:
        doc = json.loads(json.dumps(source))  # private copy
        base_dir = Path(".")
    doc = json_value(doc, (dict,), "the config document", _config_error)
    paths = {ENV_PREFIX + ("" if "." in key.path else "RUN_")
             + key.path.upper().replace(".", "_"): key.path for key in CONFIG_KEYS}
    for name, text in sorted((os.environ if env is None else env).items()):
        if not name.startswith(ENV_PREFIX):
            continue
        if name not in paths:
            raise _config_error(f"{name} names no config key")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        section, key = _section(doc, paths[name], create=True)
        section[key] = value

    v = {key.path: _value(doc, key) for key in CONFIG_KEYS if not key.path.startswith("gbdt.")}
    _reject_unknown_keys(doc)
    if v["schema"] is not None and v["schema_path"] is not None:
        raise _config_error("schema and schema_path are both given; give at most one")
    if v["schema"] is not None:
        schema = _built("schema: ", lambda: Schema.from_json(v["schema"]))
    elif v["schema_path"] is not None:
        schema = _built("schema_path: ", lambda: _read_schema(base_dir / v["schema_path"]))
    else:
        schema = None  # allowed when both inputs are binary caches
    if v["adversarial.seed"] is None:
        v["adversarial.seed"] = v["seed"]
    try:
        params = params_from_json(doc.get("gbdt", {}), v["seed"])
    except GbdtError as exc:
        raise PipelineError("config", f"bad gbdt params: {exc}") from exc

    return PipelineConfig(
        **{key.attr: v[key.path] for key in CONFIG_KEYS if key.attr},
        schema=schema,
        split_plan=_built("split.train_days: ", lambda: SplitPlan(
            frozenset(v["split.train_days"]), v["split.valid_day"])),
        stages={name: v[f"stages.{name}"] for name in STAGE_NAMES},
        # AdvConfig's messages lead with the field's name
        adversarial=_built("adversarial.", lambda: advval.AdvConfig(
            **{f.name: v[f"adversarial.{f.name}"] for f in fields(advval.AdvConfig)}
        )),
        freq_window=enc_mod.FreqWindow(v["encoders.frequency.window"]),
        te_targets=list(v["encoders.target.targets"]),
        gbdt=params,
        raw=doc,
    )


def _read_schema(path: str | Path) -> Schema:
    return Schema.from_json(read_json(path, TabularError))


def load_tables(paths: list[str], schema: Schema | str | Path | None) -> list[Table]:
    """Load every input of one command, in the order given.

    When every path is a ``.rlt`` cache, each one is loaded.  When every path
    is a delimited file, all are ingested in one call, so they share their
    categorical dictionaries; ``schema`` (a Schema or the path of its JSON) is
    then required.  A mix of the two is rejected: a cache's category codes
    cannot be matched to those of a fresh ingest.
    """
    paths = [str(p) for p in paths]
    caches = [p for p in paths if p.endswith(".rlt")]
    if len(caches) == len(paths):
        return [load_binary(p) for p in paths]
    if caches:
        delimited = [p for p in paths if not p.endswith(".rlt")]
        raise TabularError(
            f"cannot mix .rlt caches ({', '.join(caches)}) with delimited files "
            f"({', '.join(delimited)}): their category codes would not match; "
            "pass every input as a cache or every input as a delimited file"
        )
    if schema is None:
        raise TabularError(
            f"a schema is required to ingest delimited files: {', '.join(paths)}"
        )
    if not isinstance(schema, Schema):
        schema = _read_schema(schema)
    return ingest_csv_group(paths, schema)


def _timed(report: RunReport, stage: str, fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, exc) from exc
    report.timings[stage] = time.perf_counter() - t0
    # the process's peak so far: ru_maxrss is in KiB on Linux
    report.peak_rss_mb[stage] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return result


def _metrics_dict(labels: np.ndarray, probs: np.ndarray) -> dict:
    batch = metrics.EvalBatch(labels, probs)
    r = metrics.nce(batch)
    return {
        "logloss": r.mean_logloss,
        "auc": metrics.auc(batch),
        "nce": r.nce,
        "background_rate": r.background_rate,
    }


def _row_ids(table: Table) -> np.ndarray:
    """The table's row-id column, or the row numbers, as id bytes."""
    name = table.schema.row_id_column
    if name is not None:
        return table.col(name)
    return row_numbers(table.n_rows)


# ---------------------------------------------------------------------------
# Stages: each one is called both by `run` and by the matching subcommand


def audit_stage(
    tables: list[Table], cfg: advval.AdvConfig, out_dir: Path
) -> tuple[advval.AdvReport, list[Table]]:
    """Audit train (``tables[0]``) against test (``tables[1]``) on every
    feature and write ``adversarial_report.json`` and the AUC table and
    chart.  Returns the report and both tables without the features it
    drops."""
    rep = advval.audit(tables[0], tables[1], cfg)
    advval.save_report(rep, out_dir / "adversarial_report.json")
    report_export(out_dir, adversarial=rep)
    return rep, [advval.filter_features(rep, t) for t in tables]


def denoise_stage(
    tables: list[Table], tol_rel: float, out_dir: Path
) -> tuple[list[denoise_mod.DeltaEstimate], list[list[str]], list[Table]]:
    """Write the continuous features' ``correlation.csv`` of ``tables[0]``
    (when it has two or more), detect lattices on ``tables[0]``, refine them
    over every table, write ``delta_estimates.json``, and replace each
    detected column of every table with categorical codes from one shared
    dictionary.  Returns the estimates, their groups and the tables."""
    cont = tables[0].schema.names_of(ColumnRole.CONTINUOUS)
    if len(cont) >= 2:
        save_correlation_csv(*denoise_mod.correlation_matrix(tables[0], cont),
                             out_dir / "correlation.csv")
    estimates = denoise_mod.refine_estimates(
        tables, denoise_mod.detect_all(tables[0], tol_rel=tol_rel)
    )
    groups = denoise_mod.group_deltas(estimates)
    denoise_mod.save_estimates(estimates, out_dir / "delta_estimates.json", groups)
    quantized = denoise_mod.apply_denoise_group(tables, estimates)
    return estimates, groups, quantized


def _resolve_cat_features(spec: list[str] | str, table: Table, ingested: Schema) -> list[str]:
    """The categorical columns of ``table`` that ``spec`` names.  A name that
    an earlier stage dropped, or that is not categorical, is skipped; one that
    is no column of the ``ingested`` schema is kept, so that its fit fails."""
    cats = table.schema.names_of(ColumnRole.CATEGORICAL)
    if spec == ALL_CATEGORICAL:
        return list(cats)
    return [name for name in spec if name in cats or name not in ingested.names]


def encoder_specs(config: PipelineConfig, table: Table, ingested: Schema) -> list[dict]:
    """The config's encoders of ``table``, whose input had the ``ingested``
    schema, as the spec list that ``resplite encode --spec`` reads: frequency
    encoders first, then target encoders per feature and target (click only
    when the table has a click label)."""
    specs: list[dict] = []
    if config.stages["frequency"]:
        specs += [
            {"feature": name, "kind": "frequency", "window": config.freq_window.value}
            for name in _resolve_cat_features(config.freq_features, table, ingested)
        ]
    if config.stages["target_encoding"]:
        specs += [
            {"feature": name, "kind": "target", "target": target,
             "smoothing": config.te_smoothing}
            for name in _resolve_cat_features(config.te_features, table, ingested)
            for target in config.te_targets
            if target != "click" or table.schema.click_column is not None
        ]
    return specs


def _spec_fit(table: Table, i: int, spec) -> tuple[str, partial]:
    """The column that spec ``i`` of an encoder spec list makes, and the
    call that fits its state on ``table``.  A spec that names no encoder of
    the table raises, naming ``i`` and the bad key."""
    if not isinstance(spec, dict):
        raise enc_mod.EncoderError(f"encoder spec {i} is not a JSON object")
    kind = spec.get("kind")
    for key in ("kind", "feature") + (("target",) if kind == "target" else ()):
        if key not in spec:
            raise enc_mod.EncoderError(f"encoder spec {i} lacks the key {key!r}")
    feature = spec["feature"]
    if feature not in table.schema.names:
        raise enc_mod.EncoderError(f"encoder spec {i} has feature {feature!r}, not a table column")
    if kind == "frequency":
        window = enc_mod.FreqWindow(spec.get("window", enc_mod.FreqWindow.PREV_WEEK.value))
        return (enc_mod.column_name(feature, window),
                partial(enc_mod.fit_frequency, table, feature, window))
    if kind == "target":
        smoothing = json_float(spec.get("smoothing", enc_mod.EncoderState.smoothing),
                               f"smoothing of encoder spec {i}", enc_mod.EncoderError)
        return (enc_mod.column_name(feature, target=spec["target"]),
                partial(enc_mod.fit_target, table, feature, spec["target"], smoothing))
    raise enc_mod.EncoderError(f"encoder spec {i} has kind {kind!r}, not frequency or target")


def encode_stage(
    tables: list[Table], specs: list[dict], out_dir: Path
) -> tuple[list[str], list[Table]]:
    """Fit the encoder of each spec on ``tables[0]``, one state at a time:
    write it to ``encoders.json``, encode every table with it, and drop it.
    Returns the encoded column names and every table with those columns
    appended.  A malformed spec list, or a spec whose column the table or
    an earlier spec already has, raises
    :class:`~resplite.encoders.EncoderError` before any fit; a failed call
    leaves no ``encoders.json``."""
    if not isinstance(specs, list):
        raise enc_mod.EncoderError(
            f"encoder specs must be a JSON list, not {type(specs).__name__}"
        )
    encoded: list[list] = [[] for _ in tables]

    def fitted():
        fits = [_spec_fit(tables[0], i, spec) for i, spec in enumerate(specs)]
        maker: dict[str, int] = {}
        for i, (column, _) in enumerate(fits):
            if column in tables[0].schema.names:
                raise enc_mod.EncoderError(
                    f"encoder spec {i} makes the column {column!r}, which the table already has"
                )
            if column in maker:
                raise enc_mod.EncoderError(
                    f"encoder specs {maker[column]} and {i} both make the column {column!r}"
                )
            maker[column] = i
        for _, fit in fits:
            state = fit()
            for new, table in zip(encoded, tables):
                new.append((state.column_name, ColumnRole.CONTINUOUS,
                            enc_mod.transform(state, table)))
            yield state

    enc_mod.save_states(fitted(), out_dir / "encoders.json")
    columns = [name for name, _, _ in encoded[0]]
    return columns, [t.append_columns(new) for t, new in zip(tables, encoded)]


def train_stage(
    table: Table, plan: SplitPlan, params: GbdtParams, out_dir: Path
) -> tuple[np.ndarray, Table, GbdtModel]:
    """Fit the GBDT on the plan's train rows of ``table`` (see :func:`split_rows`),
    early-stopping on the valid day, and write ``model.json``,
    ``valid_predictions.csv`` (from the fit's ``valid_probs``), the
    importance table and chart and the training curve.  Returns the train
    row indices, the valid day's table and the model."""
    train_rows, valid_rows = split_rows(table, plan)
    valid = table.take(valid_rows)
    model = gbdt_fit(params, table, valid, rows=train_rows)
    save_model(model, out_dir / "model.json")
    write_predictions_csv(_row_ids(valid), model.valid_probs, out_dir / "valid_predictions.csv")
    report_export(out_dir, importance=feature_importance(model),
                  train_curve=model.train_curve, valid_curve=model.valid_curve)
    return train_rows, valid, model


def predict_stage(model: GbdtModel, table: Table, path: Path) -> np.ndarray:
    """Score ``table`` and write its headerless ``row_id,probability`` CSV."""
    probs = gbdt_predict(model, table)
    write_predictions_csv(_row_ids(table), probs, path)
    return probs


def run(config: PipelineConfig, tables: list[Table] | None = None) -> RunReport:
    """Execute the pipeline per the config and return the run report.

    ``tables`` is an already loaded (train, test) pair; given one, the run
    skips its ingest and writes no cache.  Artifacts from completed stages
    are kept even when a later stage fails; the raised PipelineError carries
    the failing stage's name.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(config_echo=config.raw, stages=dict(config.stages))

    if tables is None:
        def ingest():
            loaded = load_tables([config.train_path, config.test_path], config.schema)
            cache_dir = out_dir / "cache"
            cache_dir.mkdir(exist_ok=True)
            save_binary(loaded[0], cache_dir / "train.rlt")
            save_binary(loaded[1], cache_dir / "test.rlt")
            return loaded

        tables = _timed(report, "ingest", ingest)
    else:
        report.timings["ingest"] = 0.0
    ingested = tables[0].schema
    report.sections["ingest"] = {
        "train_rows": tables[0].n_rows,
        "test_rows": tables[1].n_rows,
        "n_columns": len(tables[0].schema.names),
    }

    # validate the plan up front; the row partition happens in the train
    # stage, after the column transforms (which are all order-preserving)
    plan = _timed(report, "split", lambda: config.split_plan.resolve(tables[0].day_values))
    report.sections["split"] = {
        "train_days": sorted(plan.train_days),
        "valid_day": plan.valid_day,
    }

    if config.stages["adversarial"]:
        adv_report, tables = _timed(report, "adversarial", lambda: audit_stage(
            tables, config.adversarial, out_dir
        ))
        report.sections["adversarial"] = {
            "dropped": adv_report.dropped(),
            "features": adv_report.to_json_dict()["features"],
        }

    if config.stages["denoise"]:
        estimates, groups, tables = _timed(report, "denoise", lambda: denoise_stage(
            tables, config.denoise_tol_rel, out_dir
        ))
        report.sections["denoise"] = {
            "estimates": [e.to_json_dict() for e in estimates],
            "groups": groups,
            "detected": [e.feature for e in estimates if e.detected],
        }

    if config.stages["frequency"] or config.stages["target_encoding"]:
        def encode():
            specs = encoder_specs(config, tables[0], ingested)
            columns, encoded = encode_stage(tables, specs, out_dir)
            if not config.keep_originals:
                originals = {spec["feature"] for spec in specs}
                encoded = [t.drop_columns(originals) for t in encoded]
            return columns, encoded

        columns, tables = _timed(report, "encode", encode)
        report.sections["encoding"] = {
            "columns": columns,
            "keep_originals": config.keep_originals,
        }

    if config.stages["train"]:
        train_rows, valid, model = _timed(report, "train", lambda: train_stage(
            tables[0], plan, config.gbdt, out_dir
        ))
        report.sections["training"] = {
            "features": list(model.bin_mapper.feature_names),
            "best_iteration": model.n_trees,
            "trees": model.n_trees,
            "train_rows": len(train_rows),
            "valid_rows": valid.n_rows,
            "importance": [[name, count] for name, count in feature_importance(model)],
        }

        def evaluate():
            install = valid.schema.require_install()
            section = {"valid": _metrics_dict(valid.col(install), model.valid_probs)}
            test = tables[1]
            if test.n_rows:
                test_probs = predict_stage(model, test, out_dir / "test_predictions.csv")
                if test.schema.install_column is not None:
                    section["test_proxy"] = _metrics_dict(test.col(install), test_probs)
            write_json(out_dir / "metrics.json", section)
            return section

        report.sections["metrics"] = _timed(report, "evaluate", evaluate)

    save_report_json(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# Cumulative ablation


def _variant_config(config: PipelineConfig, enabled: list[str], out_dir: Path) -> PipelineConfig:
    stages = {name: name in enabled or name == "train" for name in STAGE_NAMES}
    return replace(config, stages=stages, output_dir=str(out_dir))


def ablate(config: PipelineConfig, stages: list[str] | None = None) -> list[dict]:
    """Run the pipeline with the listed stages enabled cumulatively, starting
    from none of them, and emit a summary table.

    Ingest is shared across variants.  Returns one row per variant with the
    validation (and, when test labels exist, pseudo-test) metrics.
    """
    if stages is None:
        stages = ["frequency", "denoise", "target_encoding"]
    for stage in stages:
        if stage not in STAGE_NAMES or stage == "train":
            raise PipelineError("ablate", f"unknown ablation stage {stage!r}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    prep_report = RunReport(config_echo=config.raw, stages={})
    tables = _timed(prep_report, "ingest", lambda: load_tables(
        [config.train_path, config.test_path], config.schema
    ))

    rows: list[dict] = []
    variants = [("vanilla", [])] + [
        ("+" + stage, stages[: i + 1]) for i, stage in enumerate(stages)
    ]
    for name, enabled in variants:
        vdir = out_dir / "ablation" / name.lstrip("+")
        rep = run(_variant_config(config, enabled, vdir), tables)
        m = rep.sections["metrics"]
        row = {
            "variant": name,
            "valid_logloss": m["valid"]["logloss"],
            "valid_nce": m["valid"]["nce"],
        }
        if "test_proxy" in m:
            row["test_logloss"] = m["test_proxy"]["logloss"]
            row["test_nce"] = m["test_proxy"]["nce"]
        rows.append(row)

    cols = list(rows[0])
    write_rows(out_dir / "ablation.csv", cols, (
        [f"{row[c]:.6f}" if isinstance(row[c], float) else row[c] for c in cols]
        for row in rows
    ))
    return rows


# ---------------------------------------------------------------------------
# Synthetic data emission (CLI `synth` backend)


def emit_synthetic(seed: int, out_dir: str | Path, n_rows_per_day: int = 4348) -> dict:
    """Generate the benchmark dataset: train.csv, test.csv, truth.json, and
    schema.json under ``out_dir``; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = default_spec(seed=seed, n_rows_per_day=n_rows_per_day)
    table, truth = generate(spec)
    train_file, test_file = split_train_test(table)
    write_csv(train_file, out / "train.csv")
    write_csv(test_file, out / "test.csv")
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(truth.to_json_dict(), sort_keys=True) + "\n")
    with open(out / "schema.json", "w", encoding="utf-8") as fh:
        # no sort_keys: the column mapping order is the on-disk column order
        json.dump(table.schema.to_json(), fh, indent=2)
        fh.write("\n")
    return {
        "train": str(out / "train.csv"),
        "test": str(out / "test.csv"),
        "truth": str(out / "truth.json"),
        "schema": str(out / "schema.json"),
    }
