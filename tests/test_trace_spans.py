"""The benchmark's tracer wraps library functions by name (``SPANS`` in
``perfbench/layertrace.py``), so renaming one would crash ``--trace 1``.
Each name is resolved here the way ``Tracer`` resolves it."""

import ast
import importlib
import pathlib

import pytest

LAYERTRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def read_spans():
    tree = ast.parse(LAYERTRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS in perfbench/layertrace.py")


SPANS = read_spans()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in SPANS],
                         ids=[f"{m}.{a}" for m, a, _ in SPANS])
def test_span_target_exists(module, attr):
    owner = importlib.import_module(f"dtlstar.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = getattr(owner, cls_name).__dict__[meth]
    else:
        target = getattr(owner, attr)
    assert callable(target)
