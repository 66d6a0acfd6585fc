"""Every ```python block of README.md runs as written, and its ```yaml config parses."""

import re
from pathlib import Path

import pytest

from chemostab.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
CONFIGS = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_has_yaml_config():
    assert CONFIGS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("text", CONFIGS, ids=[f"config{i}" for i in range(len(CONFIGS))])
def test_yaml_block_parses(text):
    parse_config(text)  # every key known, every value accepted
