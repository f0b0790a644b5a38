"""The package has no runtime dependency: it imports only the standard library."""

import ast
import re
import sys
from pathlib import Path

import charmatch

SRC = Path(charmatch.__file__).resolve().parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _imported_modules(path: Path):
    """The top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_the_package_or_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 10
    foreign = {(path.name, module) for path in sources for module in _imported_modules(path)
               if module != "charmatch" and module not in sys.stdlib_module_names}
    assert not foreign


def test_pyproject_lists_no_runtime_dependency():
    project = PYPROJECT.read_text().partition("[project]")[2].partition("\n[")[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    assert listed is not None and listed[1].strip() == ""
