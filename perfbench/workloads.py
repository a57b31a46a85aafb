"""The benchmark's workloads: how each one sets up its inputs, what its timed
operation runs, and how its outputs are checked.

``setup`` and ``operation`` run in fresh child processes (see child.py) with
the working directory set by the harness; ``check`` runs in the harness.
Every workload is single-threaded (``n_threads=1``) and deterministic given
its seed.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

#: relative to the working directory of the timed process; the harness links
#: ``inputs`` to one set-up's directory, so every run of a set sees the same
#: paths and the echoed config in report.json stays byte-identical
INPUTS = Path("inputs")
OUT = Path("out")
#: lattice tolerance passed to the denoiser and used by the output check
DENOISE_TOL_REL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" (resplite run) or "score" (batch scoring)
    rows_per_day: int
    # pipeline kind: boosting rounds of `resplite run`
    num_iterations: int = 15
    # score kind: the fixed model fitted at set-up
    model_iterations: int = 0
    model_train_rows: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # the ROADMAP's end-to-end benchmark (c10 acceptance config), cut to
        # 15 boosting rounds and 1000 rows a day so that several repetitions
        # fit in one run; the wide 27-feature fit is about half its time and
        # the adversarial audit (twelve 1-feature fits) about a third
        Workload("pipeline_23k", "pipeline", rows_per_day=1000),
        # the read side of the GBDT: binning and tree traversal of a fixed
        # 63-leaf model over the whole generated table
        Workload("score_400k", "score", rows_per_day=17392,
                 model_iterations=40, model_train_rows=20_000),
    )
}


# ---------------------------------------------------------------------------
# set-up (child process, cwd = the set-up directory)


def run_config(w: Workload, seed: int) -> dict:
    """The `resplite run` config: the c10 acceptance config with this
    workload's boosting rounds."""
    return {
        "paths": {
            "train": str(INPUTS / "train.csv"),
            "test": str(INPUTS / "test.csv"),
            "output_dir": str(OUT),
        },
        "schema_path": "schema.json",  # relative to the config file
        "split": {"valid_day": 66},
        "stages": {"adversarial": True},
        "adversarial": {"subsample_per_side": 20_000},
        "denoise": {"tol_rel": DENOISE_TOL_REL},
        "encoders": {"frequency": {"features": ["c0", "c1", "c2", "c3"]}},
        "gbdt": {
            "num_leaves": 63, "learning_rate": 0.1,
            "num_iterations": w.num_iterations, "early_stopping_rounds": 25,
            "min_data_in_leaf": 50,
        },
        "n_threads": 1,
        "seed": seed,
    }


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _span(tracer, name: str):
    """A span of the benchmark's own code when tracing, else nothing."""
    return nullcontext() if tracer is None else tracer.span(name, "perfbench")


def setup(w: Workload, seed: int, tracer=None) -> None:
    """Generate the workload's inputs into the working directory."""
    if w.kind == "pipeline":
        from resplite import pipeline

        pipeline.emit_synthetic(seed, ".", w.rows_per_day)
        _write_json(run_config(w, seed), Path("config.json"))
        with open("truth.json", "r", encoding="utf-8") as fh:
            truth = json.load(fh)
        _write_json({"rows": len(truth["install_probs"]), "deltas": truth["deltas"],
                     "shifts": truth["shifts"]}, Path("info.json"))
        return

    import numpy as np
    from resplite import gbdt, synth, tabular

    table, _ = synth.generate(synth.default_spec(seed=seed, n_rows_per_day=w.rows_per_day))
    tabular.save_binary(table, "table.rlt")
    # validating on the training sample keeps every grown tree, so the
    # model's size, and so the scoring work, does not vary with the seed
    rng = np.random.Generator(np.random.PCG64(seed))
    days = table.day_values
    pool = np.flatnonzero(days < int(days.max()))
    sample = table.take(np.sort(rng.choice(pool, size=w.model_train_rows, replace=False)))
    params = gbdt.GbdtParams(
        num_leaves=63, learning_rate=0.05, num_iterations=w.model_iterations,
        early_stopping_rounds=w.model_iterations, min_data_in_leaf=20, seed=seed,
    )
    with _span(tracer, "setup.fit_model"):
        model = gbdt.fit(params, sample, sample)
    gbdt.save_model(model, "model.json")
    _write_json({"rows": table.n_rows, "trees": model.n_trees}, Path("info.json"))


# ---------------------------------------------------------------------------
# timed operation (child process, cwd = the run directory)


def operation(w: Workload, tracer=None) -> int:
    """Run the timed operation; returns the process exit code."""
    if w.kind == "pipeline":
        from resplite import cli

        return cli.main(["run", "--config", str(INPUTS / "config.json")])

    from resplite import gbdt, metrics, report, tabular

    with _span(tracer, "perfbench.score"):
        table = tabular.load_binary(INPUTS / "table.rlt")
        model = gbdt.load_model(INPUTS / "model.json")
        probs = gbdt.predict(model, table)
        OUT.mkdir()
        report.write_predictions_csv(table.col("row_id"), probs, OUT / "predictions.csv")
        batch = metrics.EvalBatch(table.col("is_installed"), probs)
        _write_json({"nce": metrics.nce(batch).nce, "auc": metrics.auc(batch)},
                    OUT / "metrics.json")
    return 0


# ---------------------------------------------------------------------------
# output checks (harness)


def check(w: Workload, inputs: Path, out: Path) -> tuple[list[str], dict]:
    """Check a finished run against the generator's ground truth.

    Returns (failed checks, model quality).  A failed check is a failed run.
    """
    with open(inputs / "info.json", "r", encoding="utf-8") as fh:
        info = json.load(fh)
    if w.kind == "score":
        return _check_scores(out, info["rows"])

    failures: list[str] = []
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        sections = json.load(fh)["sections"]
    dropped = sorted(sections["adversarial"]["dropped"])
    if dropped != sorted(info["shifts"]):
        failures.append(f"audit dropped {dropped}, planted shifts {sorted(info['shifts'])}")
    found = {e["feature"]: e["delta"] for e in sections["denoise"]["estimates"] if e["detected"]}
    if sorted(found) != sorted(info["deltas"]):
        failures.append(f"denoiser detected {sorted(found)}, planted {sorted(info['deltas'])}")
    for name, planted in info["deltas"].items():
        if name in found and abs(found[name] - planted) > DENOISE_TOL_REL * planted:
            failures.append(f"{name}: delta {found[name]!r} vs planted {planted!r}")
    m = sections["metrics"]
    quality = {"valid_nce": m["valid"]["nce"], "valid_auc": m["valid"]["auc"],
               "test_nce": m["test_proxy"]["nce"]}
    if not quality["valid_nce"] < 1.0:
        failures.append(f"valid NCE {quality['valid_nce']!r} is not below 1")
    return failures, quality


def _check_scores(out: Path, n_rows: int) -> tuple[list[str], dict]:
    failures: list[str] = []
    n = 0
    with open(out / "predictions.csv", "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            row_id, _, prob = line.rstrip("\n").partition(",")
            p = float(prob)
            if row_id != str(n - 1) or not (math.isfinite(p) and 0.0 < p < 1.0):
                failures.append(f"predictions line {n}: {line.strip()!r}")
                break
    if n != n_rows:
        failures.append(f"{n} predictions for {n_rows} rows")
    with open(out / "metrics.json", "r", encoding="utf-8") as fh:
        m = json.load(fh)
    return failures, {"score_nce": m["nce"], "score_auc": m["auc"]}
