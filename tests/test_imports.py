"""Every import in the package is used: a deletion that leaves an import
behind fails here. An import kept for another reason carries
`# noqa: F401` followed by that reason."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradmix"
NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*(.*)$")


def unused_imports(path: Path):
    """(line, name, reason) of each name `path` imports but never reads;
    reason is the text after `# noqa: F401` on the import's lines, or None."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in read:
                continue
            marks = [NOQA.search(line) for line in lines[node.lineno - 1 : node.end_lineno]]
            reasons = [m.group(1).strip() for m in marks if m]
            found.append((node.lineno, name, reasons[0] if reasons else None))
    return found


# The package's own __init__ imports are its exports, read by its users.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used_or_says_why(path):
    bare = [f"{path.name}:{line} {name}" for line, name, reason in unused_imports(path)
            if not reason]
    assert not bare, f"unused imports without a `# noqa: F401 <reason>`: {', '.join(bare)}"


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401  (kept for a reason)\n"
                      "from json import dumps, loads\nprint(loads)\n", encoding="utf-8")
    assert unused_imports(module) == [(1, "os", None), (2, "sys", "(kept for a reason)"),
                                       (3, "dumps", None)]
