"""Every name the benchmark's tracer wraps still exists in the package, and
still takes the arguments its hooks read.

``perfbench/tracer.py`` resolves each ``TRACED`` entry with ``getattr`` and
fails the whole benchmark on a missing one; this makes a deleted or renamed
traced function fail the test suite too.  Its hooks read arguments by
position or name (``_arg(args, kwargs, i, "name")``), so a reordered or
renamed parameter would make them read the wrong value.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TREE = ast.parse(TRACER.read_text())


def _traced_names():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def _hook_reads():
    """(traced name, index, parameter name) of each ``_arg`` read of the hooks
    that ``Tracer.install`` maps to traced names."""
    tracer = next(n for n in TREE.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    methods = {f.name: f for f in tracer.body if isinstance(f, ast.FunctionDef)}
    hooks = next(
        n.value for n in ast.walk(methods["install"])
        if isinstance(n, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "hooks" for t in n.targets)
    )
    return [
        (key.value, call.args[2].value, call.args[3].value)
        for key, hook in zip(hooks.keys, hooks.values)
        for call in ast.walk(methods[hook.attr])
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
    ]


def _resolve(qualname):
    module, _, attr = qualname.partition(".")
    owner = importlib.import_module(f"pbwpcn.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("qualname", _traced_names())
def test_traced_name_resolves(qualname):
    assert callable(_resolve(qualname))


def test_hooks_read_arguments():
    assert _hook_reads(), f"no _arg reads found in {TRACER}'s hooks"


@pytest.mark.parametrize("qualname, index, name", _hook_reads())
def test_hook_reads_the_named_parameter(qualname, index, name):
    params = list(inspect.signature(_resolve(qualname)).parameters)
    assert params[index] == name
