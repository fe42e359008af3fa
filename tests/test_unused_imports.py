"""Every name a module of the package imports is used in that module.

Stdlib only (``ast``), so the check runs where no linter is installed.
``__init__.py`` imports names to re-export them and is not checked.
"""

import ast
from pathlib import Path

import pytest

import weylgas

MODULES = sorted(p for p in Path(weylgas.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_guard_flags_an_unused_import():
    src = "import json\nimport os\nfrom typing import Optional, Sequence\n" \
          "def f(x: Sequence) -> str:\n    return json.dumps(x)\n"
    assert _unused_imports(src) == ["line 2: os", "line 3: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []
