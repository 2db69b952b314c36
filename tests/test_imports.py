"""Every name a qmit module imports is used in that module, except the
deliberate imports listed in ALLOWED."""
import ast
from pathlib import Path

import pytest

import qmit

PACKAGE = Path(qmit.__file__).parent

# (module file, imported name): why the module imports a name it never reads
ALLOWED = {
    ("noise.py", "apply_pauli_array"): "qbench/layers.py patches noise.apply_pauli_array",
    ("pec.py", "density_run"): "qbench/layers.py patches pec.density_run",
    ("pec.py", "overhead_table"): "re-exported from resources",
    ("pec.py", "runtime_estimate"): "re-exported from resources",
    ("pec.py", "numpy.random"): "pec_estimate loads it before the pool opens (the fork-hang guard)",
}


def unused_imports(source: str) -> set[str]:
    """The imported names (dotted, as written) whose binding the module never
    reads, in any scope."""
    tree = ast.parse(source)
    bound = {}  # binding -> imported name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name for binding, name in bound.items() if binding not in read}


MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(unused - {name for file, name in ALLOWED if file == module}) == []


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_every_allowed_import_is_still_unused(module, name):
    assert name in unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
