"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` resolves each ``TRACED`` entry with ``getattr`` and
fails the whole benchmark on a missing one; this makes a deleted or renamed
traced function fail the test suite too.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


@pytest.mark.parametrize("qualname", _traced_names())
def test_traced_name_resolves(qualname):
    module, _, attr = qualname.partition(".")
    owner = importlib.import_module(f"pbwpcn.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
