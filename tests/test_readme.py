"""The README's pipeline config example is a config the reader accepts, and
every switch, count and threshold it documents is one the reader checks."""

import json
import re
from pathlib import Path

import pytest

from resplite.pipeline import CONFIG_KEYS, PipelineError, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (config,) = [json.loads(b) for b in blocks if '"paths"' in b]
    return config


def typed_leaves(doc: dict, prefix=()):
    """The paths of the bool and number values of ``doc``, outside the schema."""
    for key, value in doc.items():
        if isinstance(value, dict) and key != "schema":
            yield from typed_leaves(value, prefix + (key,))
        elif isinstance(value, (bool, int, float)):
            yield prefix + (key,)


def test_readme_config_loads():
    doc = readme_config()
    cfg = load_config(doc, env={})
    assert cfg.split_plan.train_days == frozenset(doc["split"]["train_days"])
    assert cfg.keep_originals is doc["encoders"]["keep_originals"]
    assert cfg.re_audit_encoded is doc["adversarial"]["re_audit_encoded"]
    assert cfg.adversarial.holdout_fraction == doc["adversarial"]["holdout_fraction"]


@pytest.mark.parametrize("path", list(typed_leaves(readme_config())), ids=".".join)
def test_each_documented_value_is_read_with_its_type(path):
    # a key the reader ignored would load with a string in its place
    doc = readme_config()
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = "0"
    with pytest.raises(PipelineError, match="stage config"):
        load_config(doc, env={})


def test_each_documented_key_is_a_config_key():
    paths = {key.path for key in CONFIG_KEYS}

    def documented(doc: dict, prefix: str):
        for name, value in doc.items():
            if isinstance(value, dict) and prefix + name not in paths:
                yield from documented(value, prefix + name + ".")
            else:
                yield prefix + name

    assert sorted(set(documented(readme_config(), "")) - paths) == []


@pytest.mark.parametrize("key", CONFIG_KEYS, ids=lambda key: key.path)
def test_each_config_key_is_read_with_its_type(key):
    # the README example with a value of another JSON type at the key
    doc = readme_config()
    *sections, name = key.path.split(".")
    section = doc
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = 0 if str in key.types else "0"
    with pytest.raises(PipelineError, match="stage config"):
        load_config(doc, env={})
