"""Every module-level function and class of prismlab, and every method of
its classes, has a caller.

A definition counts as used when its name is looked up somewhere in
``src/prismlab`` or in the benchmark under ``prismbench/``: as a name, as
an attribute, as an imported name, or in a ``"module.name"`` string, the
form in which the benchmark names the functions it patches. Docstrings,
comments, other strings and numpy's attributes (``np.outer`` is not
``tensor.outer``) do not count, and neither do the tests. Methods are
looked up by the same rules, except dunders and the names numpy arrays
also have: ``x.sum`` cannot tell a ``Tensor`` from an array.
"""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prismlab"

# The run surface's file, snapshot and sweep I/O, which the command-line
# entry point planned in ROADMAP.md will call.
EXEMPT = {"load_config", "save_config", "read_metrics", "write_metrics",
          "save_snapshot", "load_state_dict", "run_probe_sweep", "probe_table_csv"}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name


def _methods():
    array_names = set(dir(np.ndarray))
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name in (n.name for n in cls.body if isinstance(n, ast.FunctionDef)):
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in array_names:
                    yield f"{path.stem}.{cls.name}", name


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(modules):
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "prismbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and _root(node) != "np":
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if module in modules and name.isidentifier():
                    names.add(name)
    return names


def test_every_definition_has_a_caller():
    defined = list(_definitions())
    assert defined, f"no definitions found under {PACKAGE}"
    used = _references({module for module, _ in defined})
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used and name not in EXEMPT]
    assert not unused, f"defined in prismlab but never used: {unused}"


def test_every_method_has_a_caller():
    defined = list(_methods())
    assert defined, f"no methods found under {PACKAGE}"
    used = _references({path.stem for path in PACKAGE.glob("*.py")})
    unused = [f"{owner}.{name}" for owner, name in defined
              if name not in used and name not in EXEMPT]
    assert not unused, f"methods of prismlab classes never used: {unused}"
