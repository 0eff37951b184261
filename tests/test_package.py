import ast
import contextlib
import copy
import importlib
import io
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import indexcoding
from indexcoding import (
    CliqueCover, CodingScheme, Instance, RateReport, Receiver, UnicastInstance, ValidationError,
    VirtualReceiver, gap_report, greedy_cover, scheme_from_cover,
)
from indexcoding.jsontext import Entries
from indexcoding.pipeline import SolveConfig, SolveOutcome, solve_instance
from indexcoding.scheme import TrialFailure

from helpers import PACKAGE_ENV

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


def test_only_the_contract_class_calls_the_stage_wrappers():
    # the split form is the graph, built by UnicastInstance(inst, dedup): the
    # three wrappers stay for the benchmark's replay alone, and one class pins
    # what it relies on
    wrappers = {"split_groupcast", "dedup", "build_cross_neighbor_graph"}
    root = PACKAGE_DIR.parent.parent
    calls = []
    for path in sorted(path for folder in ("src", "tests", "demos")
                       for path in (root / folder).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # the nodes inside a wrapper's definition or the contract class
        allowed = {id(inner) for node in ast.walk(tree)
                   if (isinstance(node, ast.FunctionDef) and node.name in wrappers)
                   or (isinstance(node, ast.ClassDef) and node.name == "TestStageWrappers")
                   for inner in ast.walk(node)}
        # a call by name or attribute; a dedup= keyword or a .dedup read is no call
        calls += [
            f"{path.relative_to(root)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in wrappers
        ]
    assert calls == []


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a bare interpreter loads neither; the package's records are tuples and
    # plain classes, so its import pulls in no class generator
    script = ("import sys, indexcoding.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & {*sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=PACKAGE_ENV, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def public_records():
    inst = Instance.of(3, [({1}, {2}), ({2}, {3}), ({3}, {1})])
    u = UnicastInstance(inst)
    cover = greedy_cover(u)
    records = [inst.receivers[0], inst, u.virtuals[0], u, cover, scheme_from_cover(u, cover),
               TrialFailure(0, 0, 1, 2), SolveConfig(), solve_instance(inst), gap_report(inst),
               Entries([((1, 1), 1, 0)])]
    assert [type(r) for r in records] == [
        Receiver, Instance, VirtualReceiver, UnicastInstance, CliqueCover, CodingScheme,
        TrialFailure, SolveConfig, SolveOutcome, RateReport, Entries]
    return records


def test_every_public_record_is_read_only():
    # README: "All values are immutable after construction"
    for record in public_records():
        # the split form's fields and its cached views (the cover built them)
        names = [*(record._fields if hasattr(record, "_fields") else vars(record)), "extra"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        # only the split form keeps a dict: its cached graph views
        assert hasattr(record, "__dict__") == (type(record) is UnicastInstance)


def test_solve_config_names_a_field_of_the_wrong_type():
    for fields, message in [({"exact_cap": "40"}, "caps must be integers, not str"),
                            ({"oracle_n_cap": None}, "caps must be integers, not NoneType"),
                            ({"mais_cap": True}, "caps must be integers, not bool"),
                            ({"mais_cap": 0}, "caps must be positive"),
                            ({"dedup": 1}, "dedup must be a bool, not int")]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SolveConfig(**fields)


@pytest.mark.parametrize("cls, valid, invalid", [
    (Instance, (3, (Receiver.of({1}, {2}),)), (2, (Receiver.of({1}, {3}),))),
    (SolveConfig, ("exact", False, 5, 6, 7), ("exact", False, 0, 6, 7)),
    (SolveConfig, ("exact", False, 5, 6, 7), ("exact", False, "5", 6, 7)),
    (SolveConfig, ("exact", False, 5, 6, 7), ("exact", False, 5, True, 7)),
    (SolveConfig, ("exact", False, 5, 6, 7), ("exact", 1, 5, 6, 7)),
])
def test_every_way_to_build_a_validating_record_validates(monkeypatch, cls, valid, invalid):
    record = cls(*valid)
    for build in (lambda: cls(*invalid), lambda: cls._make(invalid),
                  lambda: record._replace(**dict(zip(cls._fields, invalid)))):
        with pytest.raises(ValidationError):
            build()
    assert record._replace() == cls._make(valid) == record
    # copies and pickles are built again through the validating constructor
    calls, check = [], cls.__new__
    monkeypatch.setattr(cls, "__new__", lambda c, *args: calls.append(args) or check(c, *args))
    copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    assert copies == [record] * 3 and {type(c) for c in copies} == {cls}
    assert calls == [valid] * 3
