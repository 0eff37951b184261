import ast
import contextlib
import importlib
import io
import re
import sys
from pathlib import Path

import indexcoding

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "indexcoding"
BENCHMARK_DIR = PACKAGE_DIR.parent.parent / "perfbench"
README = PACKAGE_DIR.parent.parent / "README.md"


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


def test_every_name_the_benchmark_imports_resolves():
    imports = [
        (path.name, node) for path in sorted(BENCHMARK_DIR.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("indexcoding")
    ]
    assert imports
    missing = [f"{name}:{node.lineno}: {node.module}.{alias.name}" for name, node in imports
               for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert missing == []


def test_every_module_parses_as_python_3_10():
    # grammar only: the CI matrix runs 3.10, and ast's feature_version checks
    # no library call that 3.10 lacks
    root = PACKAGE_DIR.parent.parent
    modules = [path for folder in ("src", "perfbench", "tests", "demos")
               for path in sorted((root / folder).rglob("*.py"))]
    assert len(modules) >= 30, modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_public_name_resolves():
    assert [name for name in indexcoding.__all__ if not hasattr(indexcoding, name)] == []


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", library, re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == ("{'mais': 2, 'oracle': 2, 'cover_exact': 2, 'cover_greedy': 2,"
                              " 'gap': 0, 'counterexample': False}\n")
