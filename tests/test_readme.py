"""README names only what the code has: each backticked config key is a key
of the config text, each ``opendomain <word>`` is a subcommand and the module
table has one row per package module."""
import re
from pathlib import Path

import pytest

import opendomain
from opendomain.cli import build_parser
from opendomain.config import ExperimentConfig, config_to_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# checkpoint file names that read like config keys
CHECKPOINT_FILES = {"encoder.weight", "encoder.bias", "head.weights", "gcn.theta"}


def _config_keys() -> set:
    return {line.split(" = ")[0] for line in config_to_text(ExperimentConfig()).splitlines()}


def _named_keys() -> set:
    """Each ``section.key`` inside a backticked span, ``section`` being a
    config section; fenced code blocks are left out, and a span may wrap."""
    sections = {name.split(".")[0] for name in _config_keys()}
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    return {m.group(0) for span in re.findall(r"`([^`]+)`", prose)
            for m in re.finditer(r"\b([a-z_]+)\.[a-z_]+\b", span)
            if m.group(1) in sections}


def test_every_named_config_key_exists():
    named = _named_keys()
    assert named  # the pattern still finds keys in the README
    assert sorted(named - CHECKPOINT_FILES - _config_keys()) == []


@pytest.mark.parametrize("word", sorted(set(re.findall(r"opendomain (\w+)", README))))
def test_every_named_subcommand_exists(word):
    # a subcommand's --help exits 0; an unknown word is refused as a usage error
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args([word, "--help"])
    assert stop.value.code == 0


def test_module_table_names_each_module():
    rows = re.findall(r"^\| `opendomain\.(\w+)` \|", README, flags=re.M)
    modules = {path.stem for path in Path(opendomain.__file__).parent.glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__"})

