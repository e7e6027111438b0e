"""README.md against the package: its quick start runs and its API
paragraphs name every export."""

import inspect
import re
from pathlib import Path

import pytest

import nomapower

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["fp"].q_star.ravel() == pytest.approx([1.0, 1.0])
    assert namespace["rm"].sum_rate > 0.0


def test_exports_match_readme():
    undocumented = [name for name in nomapower.__all__
                    if not re.search(rf"\b{name}\b", README)]
    assert not undocumented
    public = {name for name, value in vars(nomapower).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(nomapower.__all__)
