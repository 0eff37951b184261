import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "indexcoding"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) >= 10, modules
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names and name != "indexcoding"
    ]
    assert outside == []
