"""Command-line entry points, one subcommand per pipeline stage plus the
end-to-end runner and the ablation runner.

The stage subcommands (adversarial, denoise, encode, train) call the same
stage functions in :mod:`resplite.pipeline` that ``run`` calls, so a stage
writes the same artifacts either way.  Every subcommand works standalone on
persisted artifacts: delimited files (with a schema JSON) or binary ``.rlt``
table caches.  The delimited inputs of one command are ingested together, so
they share categorical dictionaries; a command given both ``.rlt`` caches
and delimited files is rejected.  Exit code 0 on success; stage-tagged
diagnostics on stderr and a nonzero exit otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import denoise as denoise_mod, encoders as enc_mod, pipeline
from .advval import AdvConfig
from .gbdt import GbdtError, params_from_json
from .report import read_json, read_predictions_csv, save_correlation_csv, write_json
from .tabular import SplitPlan, save_binary


def _out_dir(args) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _dests(out_dir, inputs: list[str], name) -> list[Path]:
    """``out_dir / name(stem)`` for each input's file stem.  Two inputs that
    would write one file raise, naming both, before anything is written."""
    dests = [Path(out_dir) / name(Path(src).stem) for src in inputs]
    for i, dest in enumerate(dests):
        if dest in dests[:i]:
            raise ValueError(f"{inputs[dests.index(dest)]} and {inputs[i]} would both write {dest}")
    return dests


def _cmd_synth(args) -> int:
    files = pipeline.emit_synthetic(args.seed, args.out_dir, args.rows_per_day)
    for kind, path in files.items():
        print(f"{kind}: {path}")
    return 0


def _cmd_ingest(args) -> int:
    dests = _dests(args.out_dir, args.inputs, "{}.rlt".format)
    tables = pipeline.load_tables(args.inputs, args.schema)
    _out_dir(args)
    for src, dest, table in zip(args.inputs, dests, tables):
        save_binary(table, dest)
        print(f"{src} -> {dest} ({table.n_rows} rows)")
    return 0


def _cmd_adversarial(args) -> int:
    tables = pipeline.load_tables([args.train, args.test], args.schema)
    cfg = AdvConfig(**{f.name: getattr(args, f.name) for f in fields(AdvConfig)})
    out_dir = _out_dir(args)
    report, _ = pipeline.audit_stage(tables, cfg, out_dir)
    for e in report.entries:
        score = "-" if e.auc is None else f"{e.auc:.4f}"
        print(f"{e.name}\t{score}\t{e.verdict}")
    return 0


def _cmd_denoise(args) -> int:
    dests = _dests(args.out_dir, args.apply_to, "denoised_{}.rlt".format)
    tables = pipeline.load_tables([args.table] + args.apply_to, args.schema)
    out_dir = _out_dir(args)
    estimates, _, transformed = pipeline.denoise_stage(tables, args.tol_rel, out_dir)
    save_binary(transformed[0], out_dir / "denoised.rlt")
    for src, dest, t in zip(args.apply_to, dests, transformed[1:]):
        save_binary(t, dest)
        print(f"also transformed {src} -> {dest}")
    for e in estimates:
        if e.detected:
            print(f"{e.feature}: delta={e.delta:.6g} uniques={e.n_unique}")
        else:
            print(f"{e.feature}: no lattice {e.note}".rstrip())
    return 0


def _cmd_correlate(args) -> int:
    (table,) = pipeline.load_tables([args.table], args.schema)
    matrix, features = denoise_mod.correlation_matrix(table)
    save_correlation_csv(matrix, features, args.out)
    print(f"wrote {len(features)}x{len(features)} matrix to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    if args.state and not args.table.endswith(".rlt"):
        raise ValueError(
            f"encode --state needs a .rlt cache from the ingest the states were "
            f"fitted on, not {args.table}: a fresh ingest assigns its own category codes"
        )
    (table,) = pipeline.load_tables([args.table], args.schema)
    out_dir = _out_dir(args)
    if args.state:
        encoded = enc_mod.apply_encoders(enc_mod.load_states(args.state), table)
    else:
        specs = read_json(args.spec, enc_mod.EncoderError)
        _, (encoded,) = pipeline.encode_stage([table], specs, out_dir)
    save_binary(encoded, out_dir / "encoded.rlt")
    n_new = len(encoded.schema.names) - len(table.schema.names)
    print(f"appended {n_new} columns -> {out_dir / 'encoded.rlt'}")
    return 0


def _cmd_train(args) -> int:
    train_days: frozenset[int] = frozenset()
    if args.train_days:
        bounds = re.fullmatch(r"(\d+)-(\d+)", args.train_days)
        if bounds is None or int(bounds[1]) > int(bounds[2]):
            raise ValueError(f"--train-days {args.train_days!r} is not a day range "
                             "LO-HI with LO <= HI, e.g. 45-65")
        train_days = frozenset(range(int(bounds[1]), int(bounds[2]) + 1))
    tables = pipeline.load_tables(
        [args.table] + ([args.predict] if args.predict else []), args.schema
    )
    params = params_from_json(read_json(args.params, GbdtError) if args.params else {})
    out_dir = _out_dir(args)
    _, _, model = pipeline.train_stage(
        tables[0], SplitPlan(train_days, args.valid_day), params, out_dir
    )
    if args.predict:
        pipeline.predict_stage(model, tables[1], out_dir / "predictions.csv")
    print(
        f"trees={model.n_trees} best_iteration={model.best_iteration} "
        f"final_valid_logloss={model.valid_curve[model.best_iteration - 1]:.6f}"
        if model.n_trees
        else "trees=0 (no splittable signal)"
    )
    return 0


def _cmd_evaluate(args) -> int:
    (table,) = pipeline.load_tables([args.table], args.schema)
    preds = read_predictions_csv(args.predictions)
    ids = pipeline._row_ids(table).tolist()
    known = set(ids)
    for what, bad in (
        ("missing {} row ids", [rid for rid in ids if rid not in preds]),
        ("hold {} row ids the table lacks", [rid for rid in preds if rid not in known]),
    ):
        if bad:
            raise SystemExit(f"error: predictions {what.format(len(bad))} "
                             f"(first: {bad[0].decode(errors='replace')})")
    probs = np.asarray([preds[rid] for rid in ids])
    install = table.schema.require_install()
    section = pipeline._metrics_dict(table.col(install), probs)
    write_json(args.out, section)
    print(json.dumps(section, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    config = pipeline.load_config(args.config)
    if args.out_dir:
        config.output_dir = args.out_dir
    report = pipeline.run(config)
    if "metrics" in report.sections:
        m = report.sections["metrics"]["valid"]
        print(
            f"valid logloss={m['logloss']:.6f} auc={m['auc']:.6f} nce={m['nce']:.6f}"
        )
    print(f"artifacts under {config.output_dir}")
    return 0


def _cmd_ablate(args) -> int:
    config = pipeline.load_config(args.config)
    if args.out_dir:
        config.output_dir = args.out_dir
    stages = args.stages.split(",") if args.stages else None
    rows = pipeline.ablate(config, stages)
    for row in rows:
        extras = (
            f" test_logloss={row['test_logloss']:.6f}" if "test_logloss" in row else ""
        )
        print(
            f"{row['variant']}: valid_logloss={row['valid_logloss']:.6f} "
            f"valid_nce={row['valid_nce']:.6f}{extras}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resplite",
        description="Lightweight user-response-prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows-per-day", type=int, default=4348)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse delimited files into .rlt caches")
    p.add_argument("--schema", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("adversarial", help="per-feature train-vs-test audit")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--schema")
    p.add_argument("--threshold", dest="auc_threshold", type=float,
                   default=AdvConfig.auc_threshold)
    p.add_argument("--holdout-fraction", type=float, default=AdvConfig.holdout_fraction)
    p.add_argument("--subsample-per-side", type=int, default=AdvConfig.subsample_per_side)
    p.add_argument("--seed", type=int, default=AdvConfig.seed)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_adversarial)

    p = sub.add_parser("denoise", help="detect arithmetic lattices and quantize")
    p.add_argument("--table", required=True)
    p.add_argument("--schema")
    p.add_argument("--tol-rel", type=float, default=denoise_mod.DEFAULT_TOL_REL)
    p.add_argument(
        "--apply-to", nargs="*", default=[],
        help="additional tables to transform with shared code dictionaries",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("correlate", help="pairwise correlation matrix CSV")
    p.add_argument("--table", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("encode", help="fit/apply frequency and target encoders")
    p.add_argument("--table", required=True)
    p.add_argument("--schema")
    p.add_argument("--spec", help="JSON list of encoder specs (fit mode)")
    p.add_argument("--state", help="encoders.json to re-apply to a .rlt --table")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="fit the GBDT with a temporal split")
    p.add_argument("--table", required=True)
    p.add_argument("--schema")
    p.add_argument("--valid-day", type=int, required=True)
    p.add_argument("--train-days", help="inclusive range, e.g. 45-65")
    p.add_argument("--params", help="JSON file of GBDT parameter overrides")
    p.add_argument("--predict", help="table to score after training")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a predictions CSV against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="execute the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="cumulative stage ablation from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--stages", help="comma list, e.g. frequency,denoise,target_encoding")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except pipeline.PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
