"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a few hundred rows a day and a handful of boosting
rounds, once untraced and once traced, and checks that

- every metric BENCHMARK.json names is emitted with its unit: the
  end-to-end metrics untraced, the per-layer metrics traced;
- the small runs pass their own output checks;
- a prediction file corrupted after one repetition changes its digest and
  is counted as a failed run.

Exits with 1 and a message at the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
import workloads

SMALL = {
    "pipeline_23k": {"rows_per_day": 300, "num_iterations": 3},
    "score_400k": {"rows_per_day": 300, "model_iterations": 3, "model_train_rows": 2000},
}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAIL: {message}")


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def corrupt_second_run(index: int, out) -> None:
    """Change one digit of one probability in the second repetition; the
    value stays a valid probability, so only the digest can catch it."""
    if index != 1:
        return
    path = next(p for p in sorted(out.glob("*predictions.csv")))
    text = path.read_text(encoding="utf-8")
    last = text.index("\n") - 1
    digit = "1" if text[last] != "1" else "2"
    path.write_text(text[:last] + digit + text[last + 1:], encoding="utf-8")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(small(name), seed=0, seconds=0, trace=trace)
            label = f"{name} trace={int(trace)}"
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metrics {sorted(got.items())} "
                                         f"!= BENCHMARK.json {sorted(wanted[trace].items())}")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{label}: non-finite metric")
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: {result['detail']['failures']}")
            print(f"selftest: ok {label}: {result['attempted']} attempted", flush=True)

    for name in ("pipeline_23k", "score_400k"):
        result = run.measure(small(name), seed=0, seconds=0, trace=False,
                             tamper=corrupt_second_run)
        failures = result["detail"]["failures"]
        expect(result["failed"] == 1 and not result["correct"]
               and result["detail"]["fail_rate"] > 0
               and any("predictions.csv" in f for f in failures),
               f"{name}: a corrupted prediction file was not counted: {failures}")
        print(f"selftest: ok {name}: corrupted digest counted ({failures[0]})", flush=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
