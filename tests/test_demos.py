"""The demos reproduce their committed output in ``demos/out``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import PACKAGE_ENV

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
OUT = ROOT / "demos" / "out"
# the one demo that writes files, into out/ beside itself, from ../instances
DIAGRAMS = "04_diagrams.py"


def run_demo(path: Path) -> bytes:
    proc = subprocess.run([sys.executable, "-W", "error", str(path)], capture_output=True,
                          env=PACKAGE_ENV, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("demo", [path.name for path in DEMOS])
def test_demo_reproduces_its_committed_output(demo, tmp_path):
    if demo != DIAGRAMS:
        assert run_demo(ROOT / "demos" / demo) == (OUT / demo).with_suffix(".txt").read_bytes()
        return
    # run from a copy, so that the checkout is never written
    shutil.copytree(ROOT / "instances", tmp_path / "instances")
    (tmp_path / "demos").mkdir()
    run_demo(Path(shutil.copy(ROOT / "demos" / demo, tmp_path / "demos")))
    written = {p.name: p.read_bytes() for p in (tmp_path / "demos" / "out").iterdir()}
    assert written == {p.name: p.read_bytes() for p in OUT.glob("*.dot")}
    assert len(written) == 6


def test_every_committed_output_has_a_demo():
    # only .txt and .dot files are committed there; a rendered diagram is not
    texts = {p.name for p in OUT.glob("*.txt")}
    assert texts == {f"{p.stem}.txt" for p in DEMOS if p.name != DIAGRAMS}
