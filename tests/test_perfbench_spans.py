"""Every program attribute that the benchmark's span tracer wraps by name
exists, so a rename or a deletion fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from resplite import pipeline

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans_module()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in _SPANS.OPERATION_SPANS + _SPANS.SETUP_SPANS],
    ids=lambda name: name,
)
def test_every_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_annotation_reads_the_result_of_the_function_it_wraps(monkeypatch, tmp_path):
    # a tiny traced run calls every annotated function: a changed return
    # type fails here, and not only in a traced benchmark run
    annotated = [span for span in _SPANS.OPERATION_SPANS if span[3] is not None]
    for module, attr, _, _ in annotated:  # restored when the test ends
        monkeypatch.setattr(importlib.import_module(module), attr,
                            getattr(importlib.import_module(module), attr))
    tracer = _SPANS.Tracer()
    tracer.install(annotated)
    files = pipeline.emit_synthetic(0, tmp_path / "data", n_rows_per_day=60)
    config = pipeline.load_config({
        "paths": {"train": files["train"], "test": files["test"],
                  "output_dir": str(tmp_path / "run")},
        "schema_path": files["schema"],
        "split": {"valid_day": 66},
        "stages": {"denoise": False, "frequency": False, "target_encoding": False},
        "adversarial": {"subsample_per_side": 500},
        "gbdt": {"num_iterations": 4, "num_leaves": 6, "min_data_in_leaf": 10},
    })
    report = pipeline.run(config)
    tracer.dump(tmp_path / "trace.json")
    spans = _SPANS.load(tmp_path / "trace.json")

    def attrs(name, key):
        return [s[key] for s in spans if s["name"] == name]

    ingest = report.sections["ingest"]
    assert attrs("tabular.ingest_csv_group", "rows") == [
        ingest["train_rows"] + ingest["test_rows"]]
    assert attrs("advval.audit", "dropped") == [len(report.sections["adversarial"]["dropped"])]
    trees = attrs("gbdt.fit", "trees")
    assert trees == [report.sections["training"]["trees"]] and trees[0] > 0
    leaves = attrs("gbdt.grow_tree", "leaves")  # one per round, kept or not
    assert len(leaves) == 4 and max(leaves) == 6
    assert all(type(v) is int for v in leaves + trees)
