"""The named mutants of tools/mutants.py stay current: each one's source
text occurs exactly once in its file under src/heisgrad, and each test it
names exists.  No mutant is run here; `python3 tools/mutants.py` runs them."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "heisgrad_tools_mutants", os.path.join(ROOT, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOLS = _load_mutants()
MUTANTS = TOOLS.MUTANTS


def test_mutant_names_are_unique_and_enough():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names) >= 8


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_source_occurs_once_and_its_tests_exist(m):
    assert TOOLS.source_count(m, ROOT) == 1
    assert m.replacement != m.source and m.tests
    for node in m.tests:
        path, _, func = node.partition("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            assert re.search(rf"^def {re.escape(func)}\(", fh.read(), re.M), node
