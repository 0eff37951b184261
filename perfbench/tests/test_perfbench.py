"""Tests of the benchmark's own helpers and a tiny run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
import reference  # noqa: E402
from reference import normalise, reference_sample  # noqa: E402
from tracing import Span, Tracer, percentile, self_times, tail_percentile  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 90), (100, 90), (99, 89), (50, 80), (20, 50), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize("count", range(20, 130))
def test_tail_percentile_is_the_highest_with_ten_beyond(count):
    q = tail_percentile(count)
    assert count * (100 - q) >= 10 * 100
    assert q == 90 or count * (100 - q - 1) < 10 * 100
    values = list(range(count))
    assert sum(v > percentile(values, q) for v in values) >= 10


def test_percentile_interpolates():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([0, 10], 90) == pytest.approx(9)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_normalise_divides_by_the_nearest_mean_loop_time():
    refs = [(1.0, 1)] * 5 + [(4.0, 2)] * 5
    times = [3.0] * 10
    out = [t / reference.REF_LOOP_S for t in normalise(times, refs, window=3)]
    assert out[:4] == pytest.approx([3.0] * 4)  # windows of 1 s loops
    assert out[6:] == pytest.approx([1.5] * 4)  # windows of 2 s loops
    assert out[4] == pytest.approx(3.0 * 4 / 6)  # 1 + 1 + 4 s over 4 loops
    # the window is clipped at both ends and never wider than the run; loop
    # times are pooled, not averaged per sample
    out = normalise([4.0, 4.0], [(1.0, 1), (5.0, 1)], window=31)
    assert out == pytest.approx([4 / 3 * reference.REF_LOOP_S] * 2)
    with pytest.raises(ValueError):
        normalise([1.0], [])


def test_reference_sample_runs_for_its_share_of_the_request():
    spent, loops = reference_sample(0.0)
    assert loops == 1 and spent > 0
    spent, loops = reference_sample(0.05)
    assert spent >= 0.05 * reference.REF_SHARE and loops >= 1


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: union 1..6 is 5 s
        Span("c", 9.0, 12.0, 0, 0),  # sticks out of the parent: 1 s counts
        Span("a.inner", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_records_parents_and_requests():
    tr = Tracer()
    tr.request = 7
    with tr.span("request"):
        assert tr.call("stage", lambda x: x + 1, 1) == 2
    outer, inner = tr.spans
    assert (outer.name, outer.parent, outer.request) == ("request", -1, 7)
    assert (inner.name, inner.parent) == ("stage", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end

    off = Tracer(enabled=False)
    with off.span("request"):
        off.call("stage", print)
    assert off.spans == []


class TinyBulk(workloads.SolveBulk):
    pool_size, rate_prefix = 4, 3

    def params(self, index, rng):
        # 30 receivers x up to 3 demands stays above the default exact cap of
        # 40 vertices, so auto still falls back to greedy
        return 20, 30, (0.2, 0.5, 0.8)[index % 3], (2, 3)


class TinyExact(workloads.SolveExact):
    pool_size, rate_prefix = 4, 3

    def params(self, index, rng):
        return 10, 12, 0.8, (1, 2)


class TinyGap(workloads.AuditGap):
    pool_size, rate_prefix = 4, 3

    def params(self, index, rng):
        return 5, 6, 0.5, (1, 2)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", [TinyBulk(), TinyExact(), TinyGap()], ids=lambda w: w.name)
def test_smoke_end_to_end(workload, out_dir):
    result = run.run(workload, seed=3, seconds=0.2, trace=False)
    assert result["attempted"] >= workload.rate_prefix * len(workload.op_kinds)
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {
        "request_ref_s.p50", "request_ref_s.p90", "instances_per_ref_s",
        "rate_total", "peak_rss_mb", "setup_s",
    }
    assert all(m["value"] > 0 for m in metrics.values())
    assert list(out_dir.iterdir()) == []  # instance files are removed


@pytest.mark.parametrize("workload", [TinyBulk(), TinyExact(), TinyGap()], ids=lambda w: w.name)
def test_smoke_traced_replay_matches_cli(workload, out_dir):
    result = run.run(workload, seed=3, seconds=0.2, trace=True)
    assert result["failed"] == 0 and result["correct"] is True
    metrics = result["metrics"]
    for name in run.STAGE_METRICS:
        assert metrics[f"{name}_s"]["unit"] == "s/req"
    assert metrics["graph.build_s"]["value"] > 0
    assert metrics["trace.requests"]["value"] >= 1
    spans = (out_dir / f"spans-{workload.name}-seed3.jsonl").read_text().splitlines()
    assert len(spans) > metrics["trace.requests"]["value"]


def test_rate_and_stdout_are_seeded(out_dir, capsys):
    first = run.run(TinyExact(), seed=5, seconds=0.0, trace=False)
    again = run.run(TinyExact(), seed=5, seconds=0.0, trace=False)
    assert first["metrics"]["rate_total"] == again["metrics"]["rate_total"]
    hashes = [line for line in capsys.readouterr().out.splitlines() if "sha256" in line]
    assert len(hashes) == 2 and hashes[0] == hashes[1]
