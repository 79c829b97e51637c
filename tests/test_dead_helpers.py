"""Every module-level name of the library is used somewhere: a helper that
nothing calls is deleted, not kept."""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = [path for tree in ("src", "tests", "perfbench") for path in (ROOT / tree).rglob("*.py")]
SOURCES.append(ROOT / "pyproject.toml")


def module_names(path):
    """Names a module binds at its top level by def, class or assignment."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_module_level_name_is_used():
    # the definition is one occurrence, so a used name occurs at least twice
    count = collections.Counter(word for path in SOURCES
                                for word in re.findall(r"\w+", path.read_text()))
    unused = [f"{path.name}: {name}"
              for path in sorted((ROOT / "src" / "dtlstar").glob("*.py"))
              for name in module_names(path)
              if not (name.startswith("__") and name.endswith("__")) and count[name] < 2]
    assert unused == []


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    pass\nX = 1\nclass C:\n    y = 2\n", ["f", "X", "C"]),
    ("a, (b, c) = 1, (2, 3)\nd: int = 4\nimport os\n", ["a", "b", "c", "d"]),
])
def test_module_names(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert list(module_names(path)) == expected
