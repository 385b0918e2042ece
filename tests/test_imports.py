"""Every name a package module imports is used in that module, and the
package exports each public name once, bound, with no removed name back.

`__init__.py` only re-exports, and `from __future__` imports bind no name,
so both are exempt from the first check.
"""

import ast
import pathlib

import pytest

import interferlab

SRC = pathlib.Path(interferlab.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_sees_the_package_modules():
    assert {"core.py", "paths.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


# public names deleted, or made private, as serving no command, README
# example or test of a paper claim
REMOVED = (
    "random_reversible",
    "states_close",
    "effects_close",
    "transform_operator",
    "system_to_dict",
    "system_from_dict",
    "state_to_dict",
    "effect_to_dict",
    "effect_from_dict",
    "experiment_to_dict",
    "experiment_from_dict",
)


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert not hasattr(interferlab, name), name
        assert name not in interferlab.__all__, name


def test_every_export_is_bound_once():
    assert len(set(interferlab.__all__)) == len(interferlab.__all__)
    assert [n for n in interferlab.__all__ if not hasattr(interferlab, n)] == []
