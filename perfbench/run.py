"""resplite benchmark harness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the program is imported from its
``src`` directory, and scratch files go under ``.perfbench/`` in the
checkout.  One run sets up the workload's inputs three times in fresh
processes (``setup_s`` is their median), then repeats the timed operation,
each time in a fresh process on fresh output, for about ``--seconds``
seconds and at least three times.  Every repetition's outputs are checked
against the generator's planted ground truth, and its artifact digests must
equal those of the first repetition.

With ``--trace 1`` the run adds one traced repetition, whose spans give the
per-layer metrics, and reports the tracing overhead against the untraced
median.  The last line of standard output is the result as one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``failed`` counts
set-ups and repetitions that raised or failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
N_SETUPS = 3
MIN_REPS = 3
#: a run ends within this many seconds, whatever the workload does
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); see README.md for the end-to-end metric each should move
PER_LAYER = (
    ("gbdt.fit.s", "s", "lower"),
    ("gbdt.fit.self_s", "s", "lower"),
    ("gbdt.fit.calls", "count", "lower"),
    ("gbdt.fit.from_pipeline.s", "s", "lower"),
    ("gbdt.fit.from_pipeline.trees_grown", "count", "lower"),
    ("gbdt.fit.from_pipeline.trees_kept", "count", "higher"),
    ("gbdt.fit.from_pipeline.kept_ratio", "ratio", "higher"),
    ("gbdt.fit.from_advval.s", "s", "lower"),
    ("gbdt.fit.from_advval.calls", "count", "lower"),
    ("gbdt.fit.from_advval.trees_grown", "count", "lower"),
    ("gbdt.fit.from_advval.trees_kept", "count", "higher"),
    ("gbdt.fit.from_advval.kept_ratio", "ratio", "higher"),
    ("gbdt.grow_tree.s", "s", "lower"),
    ("gbdt.grow_tree.calls", "count", "lower"),
    ("gbdt.grow_tree.p50_ms", "ms", "lower"),
    ("gbdt.grow_tree.p90_ms", "ms", "lower"),
    ("gbdt.grow_tree.s_per_leaf", "s/leaf", "lower"),
    ("gbdt.grow_tree.from_pipeline.s", "s", "lower"),
    ("gbdt.grow_tree.from_pipeline.p50_ms", "ms", "lower"),
    ("gbdt.grow_tree.from_advval.s", "s", "lower"),
    ("gbdt.grow_tree.from_advval.p50_ms", "ms", "lower"),
    ("gbdt.tree_output.s", "s", "lower"),
    ("gbdt.tree_output.calls", "count", "lower"),
    ("gbdt.bin_table.s", "s", "lower"),
    ("gbdt.build_bin_mapper.s", "s", "lower"),
    ("gbdt.predict.s", "s", "lower"),
    ("gbdt.load_model.s", "s", "lower"),
    ("gbdt.save_model.s", "s", "lower"),
    ("gbdt.model_mb", "MB", "lower"),
    ("tabular.ingest_csv_group.s", "s", "lower"),
    ("tabular.ingest_csv_group.rows_per_s", "1/s", "higher"),
    ("tabular.save_binary.s", "s", "lower"),
    ("tabular.load_binary.s", "s", "lower"),
    ("advval.audit.s", "s", "lower"),
    ("advval.audit.dropped", "count", "lower"),
    ("advval.adversarial_auc.calls", "count", "lower"),
    ("advval.adversarial_auc.p50_ms", "ms", "lower"),
    ("advval.adversarial_auc.max_ms", "ms", "lower"),
    ("advval.filter_features.s", "s", "lower"),
    ("denoise.detect_all.s", "s", "lower"),
    ("denoise.apply_denoise_group.s", "s", "lower"),
    ("denoise.correlation_matrix.s", "s", "lower"),
    ("encoders.fit_frequency.s", "s", "lower"),
    ("encoders.fit_target.s", "s", "lower"),
    ("encoders.apply_encoders.s", "s", "lower"),
    ("encoders.save_states.s", "s", "lower"),
    ("encoders.state_mb", "MB", "lower"),
    ("metrics.logloss.s", "s", "lower"),
    ("metrics.logloss.calls", "count", "lower"),
    ("metrics.auc.s", "s", "lower"),
    ("metrics.nce.s", "s", "lower"),
    ("report.write_predictions_csv.s", "s", "lower"),
    ("report.report_export.s", "s", "lower"),
    ("report.save_report_json.s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("synth.write_csv.s", "s", "lower"),
    ("setup.fit_model.s", "s", "lower"),
    ("pipeline.unattributed_s", "s", "lower"),
    ("process.startup_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("quality.valid_nce", "ratio", "lower"),
    ("quality.valid_auc", "ratio", "higher"),
    ("quality.test_nce", "ratio", "lower"),
    ("quality.score_nce", "ratio", "lower"),
    ("quality.score_auc", "ratio", "higher"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program to measure, no usable set-up)."""


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def run_child(args: list[str], cwd: Path, log: Path, timeout: float) -> Child:
    """Run child.py in a fresh interpreter and time it with os.wait4, so its
    peak RSS and CPU time are its own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLT_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    # one thread everywhere, as the workloads promise, whatever numpy links
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                  proc.returncode)
    if child.code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        child.failures.append(f"{args[0]} exited with {child.code}: {' | '.join(tail)}")
    return child


def digest_files(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory`` except the wall-clock
    ``timings.json``."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "timings.json"
    }


def _differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
    }


class Run:
    """One benchmark run of one workload: set-ups, repetitions, checks."""

    def __init__(self, w: workloads.Workload, seed: int, work: Path, deadline: float,
                 tamper=None):
        self.w, self.work, self.deadline = w, work, deadline
        self.tamper = tamper  # test seam: tamper(rep_index, out_dir) before checks
        self.setups: list[Child] = []
        self.reps: list[Child] = []
        self.quality: dict[str, float] = {}
        self.sizes_mb: dict[str, float] = {}
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.spec = work / "spec.json"
        with open(self.spec, "w", encoding="utf-8") as fh:
            json.dump({"workload": asdict(w), "seed": seed}, fh)

    def _timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self, k: int, trace: Path | None) -> Child:
        d = self.work / f"setup_{k}"
        d.mkdir()
        args = ["setup", str(self.spec)] + ([str(trace)] if trace else [])
        child = run_child(args, d, self.logs / f"setup_{k}.log", self._timeout())
        if child.code == 0:
            child.digests = digest_files(d)
            first = next((s for s in self.setups if not s.failures), None)
            if first is not None and child.digests != first.digests:
                child.failures.append(
                    f"set-up {k} inputs differ: {_differing(first.digests, child.digests)}")
        self.setups.append(child)
        return child

    def repeat(self, trace: Path | None = None) -> Child:
        i = len(self.reps)
        good = [k for k, s in enumerate(self.setups) if not s.failures]
        inputs = self.work / f"setup_{good[i % len(good)]}"
        d = self.work / f"run_{i}"
        d.mkdir()
        (d / workloads.INPUTS).symlink_to(inputs, target_is_directory=True)
        args = ["operation", str(self.spec)] + ([str(trace)] if trace else [])
        child = run_child(args, d, self.logs / f"run_{i}.log", self._timeout())
        out = d / workloads.OUT
        if child.code == 0:
            if self.tamper is not None:
                self.tamper(i, out)
            try:
                failures, self.quality = workloads.check(self.w, inputs, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures = [f"output check raised {exc!r}"]
            child.failures.extend(failures)
            child.digests = digest_files(out)
            first = next((r for r in self.reps if r.code == 0), None)
            if first is not None and child.digests != first.digests:
                child.failures.append(
                    f"artifacts differ from run 0: {_differing(first.digests, child.digests)}")
            for name, path in (("model", inputs / "model.json"), ("model", out / "model.json"),
                               ("encoders", out / "encoders.json")):
                if path.exists():
                    self.sizes_mb[name] = path.stat().st_size / 2**20
        shutil.rmtree(d)
        self.reps.append(child)
        return child

    @property
    def failed(self) -> int:
        return sum(1 for c in self.setups + self.reps if c.failures)

    @property
    def attempted(self) -> int:
        return len(self.setups) + len(self.reps)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool,
            tamper=None) -> dict:
    """Run one workload and return the result plus its details."""
    if not (ROOT / "src" / "resplite" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src' / 'resplite'} is missing")
    start = time.perf_counter()
    traces = SCRATCH / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work = SCRATCH / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    stem = f"{w.name}-seed{seed}"
    setup_trace = traces / f"{stem}-setup.json" if trace else None
    op_trace = traces / f"{stem}-operation.json" if trace else None
    for path in (setup_trace, op_trace):
        if path is not None:
            path.unlink(missing_ok=True)
    try:
        run = Run(w, seed, work, start + DEADLINE_S, tamper)
        for k in range(N_SETUPS):
            run.setup(k, setup_trace if k == N_SETUPS - 1 else None)
        if all(s.failures for s in run.setups):
            raise BenchmarkError("every set-up failed: "
                                 + "; ".join(run.setups[0].failures))
        good = next(k for k, s in enumerate(run.setups) if not s.failures)
        with open(work / f"setup_{good}" / "info.json", "r", encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]

        t0 = time.perf_counter()
        while True:
            rep = run.repeat()
            elapsed = time.perf_counter() - t0
            if len(run.reps) >= MIN_REPS and elapsed + rep.wall_s > seconds:
                break
            if time.perf_counter() + 3 * rep.wall_s > run.deadline:
                break
        untraced = list(run.reps)
        traced = run.repeat(op_trace) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in untraced if not r.failures] or untraced
    wall = _median(r.wall_s for r in ok)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    if trace:
        op = spans.load(op_trace) if op_trace.exists() else []
        setup = spans.load(setup_trace) if setup_trace.exists() else []
        values = layer_metrics(run, traced, wall, op + setup)
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        values = {
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "setup_s": _median(s.wall_s for s in run.setups),
            "peak_rss_mb": _median(r.rss_mb for r in ok),
        }
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    result["detail"] = {
        "workload": w.name,
        "environment": environment(seed),
        "input_rows": rows,
        "fail_rate": run.failed / run.attempted,
        "failures": [f for c in run.setups + run.reps for f in c.failures],
        "setup_s": [s.wall_s for s in run.setups],
        "run_s": [r.wall_s for r in run.reps],
        "run_cpu_s": [r.cpu_s for r in run.reps],
        "quality": run.quality,
        "digests": next((r.digests for r in run.reps if r.code == 0), {}),
        "trace_files": [str(p.relative_to(ROOT)) for p in (setup_trace, op_trace) if p],
    }
    if trace:
        result["detail"]["spans"] = spans.summarize(op + setup)
    return result


def layer_metrics(run: Run, traced: Child, untraced_wall: float,
                  traced_spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced repetition and of the
    traced set-up."""
    by: dict[str, list[dict]] = {}
    for s in traced_spans:
        by.setdefault(s["name"], []).append(s)

    def total(name: str, key: str = "dur_s", where=lambda s: True) -> float:
        return sum(s.get(key, 0) for s in by.get(name, ()) if where(s))

    def durations_ms(name: str, where=lambda s: True) -> list[float]:
        return [s["dur_s"] * 1e3 for s in by.get(name, ()) if where(s)]

    m: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "s":
            m[name] = total(span)
        elif stat == "calls":
            m[name] = len(by.get(span, ()))
    m["gbdt.fit.self_s"] = total("gbdt.fit", "self_s")

    leaves = total("gbdt.grow_tree", "leaves")
    m["gbdt.grow_tree.p50_ms"] = spans.percentile(durations_ms("gbdt.grow_tree"), 50)
    m["gbdt.grow_tree.p90_ms"] = spans.percentile(durations_ms("gbdt.grow_tree"), 90)
    m["gbdt.grow_tree.s_per_leaf"] = m["gbdt.grow_tree.s"] / leaves if leaves else 0.0
    for site in ("pipeline", "advval"):
        def at(s, site=site):
            return s["site"] == site

        def under(s, site=site):
            return s["fit_site"] == site

        grown = sum(1 for s in by.get("gbdt.grow_tree", ()) if under(s) and s.get("leaves"))
        kept = total("gbdt.fit", "trees", at)
        m[f"gbdt.fit.from_{site}.s"] = total("gbdt.fit", where=at)
        m[f"gbdt.fit.from_{site}.calls"] = sum(1 for s in by.get("gbdt.fit", ()) if at(s))
        m[f"gbdt.fit.from_{site}.trees_grown"] = grown
        m[f"gbdt.fit.from_{site}.trees_kept"] = kept
        m[f"gbdt.fit.from_{site}.kept_ratio"] = kept / grown if grown else 0.0
        m[f"gbdt.grow_tree.from_{site}.s"] = total("gbdt.grow_tree", where=under)
        m[f"gbdt.grow_tree.from_{site}.p50_ms"] = spans.percentile(
            durations_ms("gbdt.grow_tree", under), 50)

    ingest_s = m["tabular.ingest_csv_group.s"]
    m["tabular.ingest_csv_group.rows_per_s"] = (
        total("tabular.ingest_csv_group", "rows") / ingest_s if ingest_s else 0.0)
    m["advval.audit.dropped"] = total("advval.audit", "dropped")
    m["advval.adversarial_auc.p50_ms"] = spans.percentile(
        durations_ms("advval.adversarial_auc"), 50)
    m["advval.adversarial_auc.max_ms"] = max(durations_ms("advval.adversarial_auc"),
                                             default=0.0)

    # the operation's outermost span is cli.main or the scoring block
    top = [by[name][0] for name in ("cli.main", "perfbench.score") if name in by]
    body = by.get("pipeline.run", []) + by.get("perfbench.score", [])
    m["pipeline.unattributed_s"] = sum(s["self_s"] for s in body)
    m["process.startup_s"] = traced.wall_s - sum(s["dur_s"] for s in top)
    m["process.cpu_s"] = _median(r.cpu_s for r in run.reps if r is not traced)
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall
    m["gbdt.model_mb"] = run.sizes_mb.get("model", 0.0)
    m["encoders.state_mb"] = run.sizes_mb.get("encoders", 0.0)
    for name in ("valid_nce", "valid_auc", "test_nce", "score_nce", "score_auc"):
        m[f"quality.{name}"] = run.quality.get(name, 0.0)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    for row in detail.pop("spans", []):
        print(f"span {row['name']:30s} {row['site']:9s} calls {row['calls']:5d} "
              f"s {row['s']:9.4f} self_s {row['self_s']:9.4f} p50_ms {row['p50_ms']:9.3f} "
              f"max_rss_mb {row['max_rss_mb']:7.1f}")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
