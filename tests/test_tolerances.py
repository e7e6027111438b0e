"""The slack of every feasibility check is one of two named constants."""

import ast
import inspect

import pytest

from nomapower import network, power_min, rate_max_network, scenario


def unnamed_small_floats(source):
    """(line, value) of every float literal below 1e-5 in ``source``, bar
    module-level UPPER_CASE constants and the ``power_tol_w`` config key."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and node in tree.body:
            named = all(isinstance(t, ast.Name) and t.id.isupper()
                        for t in node.targets)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call):
            named = (getattr(node.target, "id", None) == "power_tol_w"
                     and getattr(node.value.func, "id", None) == "_key")
        else:
            continue
        if named:
            exempt.update(id(n) for n in ast.walk(node))
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-5 and id(node) not in exempt)


@pytest.mark.parametrize("module", [network, power_min, rate_max_network, scenario],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_unnamed_tolerance_literal(module):
    assert unnamed_small_floats(inspect.getsource(module)) == []


def test_the_scan_finds_literals_and_skips_the_exemptions():
    source = ("TOL = 1e-9\n"
              "class C:\n"
              "    power_tol_w: float = _key('solver', 1e-8)\n"
              "    other: float = _key('solver', 2e-8)\n"
              "def f(q, b):\n"
              "    low = 1e-7\n"
              "    return q <= b * (1.0 + 1e-12) - 1e-3\n")
    assert unnamed_small_floats(source) == [(4, 2e-8), (6, 1e-7), (7, 1e-12)]


def test_cover_slack_exceeds_the_rounding_slack():
    # the random start's repair stops up to ROUND_RTOL short of f(q)
    assert 0.0 < power_min.ROUND_RTOL < power_min.COVER_RTOL < 1e-5
