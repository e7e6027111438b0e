"""README.md against the package: its quick start runs, its API
paragraphs name every export and every helper they call importable, and
its layout lists every module."""

import importlib
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


def test_layout_lists_every_module():
    layout = README.split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", layout, flags=re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block.split("src/nomapower/\n", 1)[1],
                        flags=re.M)
    package = Path(nomapower.__file__).parent
    modules = sorted(path.name for path in package.glob("*.py")
                     if path.stem not in ("__init__", "__main__"))
    assert sorted(listed) == modules


def test_helpers_named_importable_are_importable():
    match = re.search(r"helpers behind them \((.*?)\) are importable\s+"
                      r"from their modules\s+\((.*?)\)", README, flags=re.S)
    helpers = re.findall(r"`(\w+)`", match.group(1))
    modules = [importlib.import_module(name)
               for name in re.findall(r"`(nomapower\.\w+)`", match.group(2))]
    assert helpers and modules
    missing = [name for name in helpers
               if not any(hasattr(module, name) for module in modules)]
    assert not missing
