"""The README's pipeline config example is a config the reader accepts,
every switch, count and threshold it documents is one the reader checks, and
every ``resplite`` command it shows is one the CLI parses."""

import json
import re
import shlex
from pathlib import Path

import pytest

from resplite.cli import build_parser
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


def readme_commands() -> list[str]:
    """The ``resplite`` commands of the README's shell blocks, continuation
    lines joined and comments cut."""
    text = "\n".join(re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S))
    joined = text.replace("\\\n", " ").splitlines()
    lines = (" ".join(line.split("#")[0].split()) for line in joined)
    return [line for line in lines if line.startswith("resplite ")]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(command)[1] for command in readme_commands()}
    # the usage line lists the subcommands as {synth,ingest,...}
    subcommands = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1)
    assert shown == set(subcommands.split(","))


@pytest.mark.parametrize("command", readme_commands())
def test_each_documented_command_parses(command):
    # argparse exits on an unknown flag or a missing required one
    build_parser().parse_args(shlex.split(command)[1:])
