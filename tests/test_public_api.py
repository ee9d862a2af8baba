"""Every name the package exports has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vielab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    # attribute access and imports from other packages name someone else's
    # function (scipy's hankel1), not the export
    foreign = re.compile(r"^\s*from\s+(?!\.|vielab\b)\S+\s+import\b")
    lines = [line for path in sources for line in path.read_text().splitlines()
             if not foreign.match(line)]
    unused = []
    for name in exported_names():
        word = re.compile(rf"(?<![\w.]){re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exported but used only by the tests: {unused}"
