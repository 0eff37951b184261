import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from indexcoding import (
    UnicastInstance,
    ValidationError,
    bipartite_dot,
    derived_dot,
    exact_min_cover,
    greedy_cover,
    parse_instance,
    scheme_from_cover,
    serialize_instance,
)
from indexcoding import cli as cli_module
from indexcoding import cover as cover_module
from indexcoding import instance as instance_module
from indexcoding import oracle as oracle_module
from indexcoding import scheme as scheme_module
from indexcoding.cli import main
from indexcoding.generate import random_instance
from indexcoding.graph import _PART_COLORS
from indexcoding.instance import GRAPH_MAX_VIRTUALS
from indexcoding.oracle import has_minimal
from indexcoding.pipeline import SolveConfig

from conftest import INSTANCE_DIR
from helpers import PACKAGE_ENV, serialize_scheme

EXAMPLE6 = str(INSTANCE_DIR / "example6.json")
GROUPCAST3 = str(INSTANCE_DIR / "groupcast3.json")
CYCLE3 = str(INSTANCE_DIR / "cycle3.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "solve", EXAMPLE6)
        assert code == 0
        data = json.loads(out)
        assert data["rate"] == 3
        assert data["transmissions"] == [[1, 3, 4], [2, 5], [6]]
        assert data["solver"] == "exact"
        assert len(data["assignments"]) == 6

    def test_groupcast_pair(self, capsys):
        code, out, _ = run(capsys, "solve", GROUPCAST3)
        assert code == 0
        data = json.loads(out)
        assert data["rate"] == 2
        assert data["transmissions"] == [[1, 2], [3]]
        # both demands of receiver 2 get a transmission
        origins = {tuple(a["origin"]): a["transmission"] for a in data["assignments"]}
        assert origins[(2, 1)] == 0 and origins[(2, 2)] == 1

    def test_invalid_instance_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_messages": 3, "receivers": [{"wants": [1], "has": [1]}]}')
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert "receiver 1" in err and "overlap" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.json")
        assert code == 1
        assert "cannot read" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "solve")  # missing the instance argument
        assert code == 1
        assert "usage" in err

    def test_byte_identical_stdout(self, capsys):
        _, first, _ = run(capsys, "solve", EXAMPLE6)
        _, second, _ = run(capsys, "solve", EXAMPLE6)
        assert first == second

    def test_exact_over_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", EXAMPLE6, "--solver", "exact", "--exact-cap", "2")
        assert code == 2
        assert "cap" in err

    def test_auto_falls_back_to_greedy(self, capsys):
        code, out, err = run(capsys, "solve", EXAMPLE6, "--exact-cap", "2")
        assert code == 0
        assert json.loads(out)["solver"] == "greedy"
        assert "falling back" in err
        assert "component of 3 vertices > 2" in err

    def test_exact_cap_bounds_the_largest_component(self, capsys):
        # six vertices in all, but the largest component is the triangle
        code, out, err = run(capsys, "solve", EXAMPLE6, "--exact-cap", "3")
        assert code == 0
        data = json.loads(out)
        assert data["solver"] == "exact" and data["rate"] == 3
        assert err == ""

    def test_no_dedup_flag(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"num_messages": 3, "receivers": ['
            '{"wants": [1, 2], "has": [3]}, {"wants": [1, 2], "has": [3]}]}'
        )
        code, out, _ = run(capsys, "solve", str(path), "--no-dedup")
        assert code == 0
        assert len(json.loads(out)["assignments"]) == 4
        # the derived graph draws one node per kept virtual: dedup keeps one
        # of each duplicate pair, --no-dedup keeps all four
        for flags, nodes in (([], 2), (["--no-dedup"], 4)):
            code, out, _ = run(capsys, "export-dot", str(path), *flags)
            assert code == 0
            assert sum("label=" in line for line in out.splitlines()) == nodes, flags


class TestCachedParser:
    def test_built_once(self):
        assert cli_module.build_parser() is cli_module.build_parser()

    def test_flags_do_not_carry_over(self, capsys, tmp_path):
        _, out, _ = run(capsys, "solve", EXAMPLE6, "--no-dedup", "--solver", "greedy")
        assert json.loads(out)["dedup"] is False and json.loads(out)["solver"] == "greedy"
        _, out, _ = run(capsys, "solve", EXAMPLE6)
        assert json.loads(out)["dedup"] is True and json.loads(out)["solver"] == "exact"
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(out)
        _, out, _ = run(capsys, "verify", EXAMPLE6, str(scheme_path), "--trials", "7",
                        "--seed", "3")
        assert (json.loads(out)["trials"], json.loads(out)["seed"]) == (7, 3)
        _, out, _ = run(capsys, "verify", EXAMPLE6, str(scheme_path))
        assert (json.loads(out)["trials"], json.loads(out)["seed"]) == (100, 0)

    def test_two_parses_in_a_row_share_no_value(self):
        parser = cli_module.build_parser()
        first = parser.parse_args(["gap", EXAMPLE6, "--no-dedup",
                                   "--exact-cap", "3", "--oracle-cap", "6", "--mais-cap", "5"])
        second = parser.parse_args(["gap", EXAMPLE6])
        assert cli_module._config_from_args(first) == SolveConfig(
            dedup=False, exact_cap=3, oracle_n_cap=6, mais_cap=5)
        assert cli_module._config_from_args(second) == SolveConfig()
        assert vars(second) == {"command": "gap", "instance": EXAMPLE6, "func": cli_module.cmd_gap}

    def test_usage_errors_still_exit_1(self, capsys):
        removed = "--strict-cross-neighbor"  # the equal-demand edge is always drawn
        for argv in (["solve"], ["solve", EXAMPLE6, "--bogus"], ["gap"], [], ["nope"],
                     ["solve", EXAMPLE6, removed], ["gap", EXAMPLE6, removed],
                     ["export-dot", EXAMPLE6, removed],
                     # the trials draw 64-bit words: no verify output depends on the width
                     ["verify", EXAMPLE6, "s.json", "--word-width", "64"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and "usage" in err, argv
        code, out, _ = run(capsys, "solve", EXAMPLE6)
        assert code == 0 and json.loads(out)["rate"] == 3
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: indexcoding")


# (command line flags, the SolveConfig field they set, its value)
PIPELINE_FLAGS = [
    (["--solver", "greedy"], "solver", "greedy"),
    (["--exact-cap", "7"], "exact_cap", 7),
    (["--no-dedup"], "dedup", False),
    (["--oracle-cap", "6"], "oracle_n_cap", 6),
    (["--mais-cap", "5"], "mais_cap", 5),
]
PIPELINE_COMMANDS = {
    "solve": {"solver", "exact_cap", "dedup"},
    "gap": {"exact_cap", "dedup", "oracle_n_cap", "mais_cap"},
    "export-dot": {"solver", "exact_cap", "dedup"},
}


class TestConfigFromArgs:
    """SolveConfig alone holds the pipeline's defaults; a flag sets its own field."""

    def config(self, *argv):
        return cli_module._config_from_args(cli_module.build_parser().parse_args(list(argv)))

    @pytest.mark.parametrize("command", sorted(PIPELINE_COMMANDS))
    def test_instance_path_alone_gives_the_default_config(self, command):
        assert self.config(command, EXAMPLE6) == SolveConfig()

    @pytest.mark.parametrize("command", sorted(PIPELINE_COMMANDS))
    def test_each_flag_sets_exactly_its_own_field(self, command, capsys):
        for flags, name, value in PIPELINE_FLAGS:
            if name in PIPELINE_COMMANDS[command]:
                assert self.config(command, EXAMPLE6, *flags) == \
                    SolveConfig()._replace(**{name: value})
            else:
                assert run(capsys, command, EXAMPLE6, *flags)[0] == 1


class TestVerify:
    def test_solve_output_verifies(self, capsys, tmp_path):
        _, out, _ = run(capsys, "solve", EXAMPLE6)
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(out)
        code, out, _ = run(capsys, "verify", EXAMPLE6, str(scheme_path))
        assert code == 0
        data = json.loads(out)
        assert data["symbolic_ok"] and data["random_ok"]

    def test_missing_transmission_exits_3(self, capsys, tmp_path):
        scheme_path = tmp_path / "short.json"
        scheme_path.write_text('{"rate": 2, "transmissions": [[1, 3, 4], [2, 5]]}')
        code, out, _ = run(capsys, "verify", EXAMPLE6, str(scheme_path))
        assert code == 3
        data = json.loads(out)
        assert not data["symbolic_ok"]
        assert data["unsatisfied"] == [{"virtual": 5, "origin": [6, 1], "want": 6}]

    def test_groupcast_confirms_both_demands(self, capsys, tmp_path):
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text('{"rate": 2, "transmissions": [[1, 2], [3]]}')
        code, out, _ = run(capsys, "verify", GROUPCAST3, str(scheme_path), "--trials", "100")
        assert code == 0
        data = json.loads(out)
        by_origin = {tuple(v["origin"]): v["transmission"] for v in data["virtuals"]}
        assert (2, 1) in by_origin and (2, 2) in by_origin

    def test_trials_below_1_exits_1(self, capsys, tmp_path):
        _, out, _ = run(capsys, "solve", EXAMPLE6)
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(out)
        for trials in ("0", "-5"):
            code, out, err = run(capsys, "verify", EXAMPLE6, str(scheme_path),
                                 "--trials", trials)
            assert code == 1
            assert out == ""
            assert "trials must be at least 1" in err

    def test_trials_limit_exits_1_before_reading(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        for trials in (cli_module.VERIFY_MAX_TRIALS + 1, 10**12):
            code, out, err = run(capsys, "verify", missing, missing, "--trials", str(trials))
            assert code == 1 and out == ""
            assert err == f"error: trials must be at most 1000000, got {trials}\n"
        _, out, _ = run(capsys, "solve", GROUPCAST3)
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(out)
        code, out, _ = run(capsys, "verify", GROUPCAST3, str(scheme_path),
                           "--trials", str(cli_module.VERIFY_MAX_TRIALS))
        assert code == 0 and json.loads(out)["random_ok"] is True

    def test_faulty_encode_exits_3(self, capsys, tmp_path, monkeypatch):
        real_encode = scheme_module.encode

        def flip_bit_of_first(s, words):
            out = real_encode(s, words)
            return (out[0] ^ 1,) + out[1:]

        monkeypatch.setattr(scheme_module, "encode", flip_bit_of_first)
        _, out, _ = run(capsys, "solve", EXAMPLE6)
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(out)
        code, out, _ = run(capsys, "verify", EXAMPLE6, str(scheme_path))
        assert code == 3
        data = json.loads(out)
        assert data["symbolic_ok"] and data["random_ok"] is False
        first = next(i for i, v in enumerate(data["virtuals"]) if v["transmission"] == 0)
        assert data["failure"] == {"trial": 0, "virtual": first}

    def test_cost_is_bounded_by_what_the_scheme_sends(self, capsys, tmp_path):
        # one word per message would be 10^12 words
        inst_path = tmp_path / "huge.json"
        inst_path.write_text(
            '{"num_messages": 1000000000000, "receivers": [{"wants": [1], "has": []}]}'
        )
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text('{"transmissions": [[1]]}')
        code, out, _ = run(capsys, "verify", str(inst_path), str(scheme_path))
        assert code == 0
        assert json.loads(out)["random_ok"] is True

    def test_bad_scheme_file_exits_1(self, capsys, tmp_path):
        scheme_path = tmp_path / "broken.json"
        scheme_path.write_text('{"transmissions": [[]]}')
        code, _, err = run(capsys, "verify", EXAMPLE6, str(scheme_path))
        assert code == 1
        assert "nonempty" in err


def verify_output_corpus(capsys, tmp_path):
    """Seeded (instance, scheme) files for the verify digest: each instance
    with its solved scheme and three broken ones."""
    cases = [EXAMPLE6, GROUPCAST3, CYCLE3]
    for seed in range(30):
        n = 2 + seed % 7
        inst = random_instance(n, 1 + seed % 8, (0.2, 0.5, 0.8)[seed % 3], (1, min(3, n)),
                               seed=3000 + seed)
        path = tmp_path / f"inst{seed}.json"
        path.write_text(serialize_instance(inst))
        cases.append(str(path))
    pairs = []
    for k, inst_path in enumerate(cases):
        code, out, _ = run(capsys, "solve", inst_path)
        assert code == 0
        transmissions = json.loads(out)["transmissions"]
        ids = sorted({i for t in transmissions for i in t})
        schemes = [
            transmissions,
            transmissions[:-1] or [[ids[0]]],  # drops a transmission
            [ids],  # one XOR of every message sent
            [t[1:] or t for t in transmissions],  # drops the least id of each
        ]
        for j, transmissions in enumerate(schemes):
            path = tmp_path / f"scheme{k}_{j}.json"
            path.write_text(json.dumps({"transmissions": transmissions}))
            pairs.append((inst_path, str(path)))
    return pairs


class TestVerifyOutput:
    # SHA-256 of verify's exit codes and stdout over the corpus, recorded
    # while verify still took a word width; what verify prints does not
    # depend on which words a seed draws
    DIGEST = "cfa01eb9f3636603ddc73fc0628d0841cd1951f1c1b35cd7997623fd471a9447"

    def test_stdout_matches_recorded_digest(self, capsys, tmp_path):
        variants = [[], ["--seed", "5", "--trials", "7"]]
        records = []
        for inst_path, scheme_path in verify_output_corpus(capsys, tmp_path):
            for extra in variants:
                code, out, _ = run(capsys, "verify", inst_path, scheme_path, *extra)
                records.append([code, out])
        assert sorted({code for code, _ in records}) == [0, 3]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == self.DIGEST


class TestOutputDigest:
    # SHA-256 of solve, gap, gen, serialize_instance and serialize_scheme
    # output over a seeded corpus, recorded from json.dumps(indent=2) output,
    # whose bytes the package's own writer must reproduce
    DIGEST = "e8cfdd90026d81764ce827e7925f13990a5f786a92fe3553ca7b1eb2987f4a87"

    def test_outputs_match_recorded_digest(self, capsys, tmp_path):
        instances = [parse_instance(Path(path).read_text()) for path in (EXAMPLE6, GROUPCAST3, CYCLE3)]
        for seed in range(24):
            n = 2 + seed % 7
            instances.append(random_instance(
                n, seed % 8, (0.2, 0.5, 0.8)[seed % 3], (1, min(3, n)), seed=4000 + seed))
        instances += [random_instance(100, 220, p, (1, 3), seed=4100) for p in (0.2, 0.8)]
        records = []
        for k, inst in enumerate(instances):
            text = serialize_instance(inst)
            records.append(text)
            path = tmp_path / f"inst{k}.json"
            path.write_text(text)
            u = UnicastInstance(inst, True)
            records.append(serialize_scheme(scheme_from_cover(u, greedy_cover(u))))
            for argv in (["solve"], ["solve", "--no-dedup", "--solver", "greedy"],
                         ["gap"],
                         ["gap", "--oracle-cap", "2", "--mais-cap", "1"]):
                if len(inst.receivers) > 100 and argv[0] == "gap":
                    continue
                records.append([*argv, *run(capsys, argv[0], str(path), *argv[1:])[:2]])
        for seed in range(4):
            argv = ["gen", "-n", str(3 + 20 * seed), "-m", str(5 * seed), "-p", "0.5",
                    "--demand-max", "3", "--seed", str(seed)]
            records.append([*argv, *run(capsys, *argv)[:2]])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == self.DIGEST


class TestSolveVerifyDigest:
    # SHA-256 of the stdout of solve followed by verify --trials 20 of that
    # scheme, on solve-bulk-shaped instances (400-600 virtuals), recorded
    # before the entry writer took rows and the decode sets were built once
    # per transmission
    DIGEST = "81a20b55b1101a2620accfa0b14450fa3df6e5491e368c658f0088f58adc3f66"
    INSTANCES = [(200, 0.2, 11), (230, 0.5, 12), (250, 0.8, 13),
                 (270, 0.2, 14), (285, 0.5, 15), (299, 0.8, 16)]

    def test_outputs_match_recorded_digest(self, capsys, tmp_path):
        digest = hashlib.sha256()
        for m, p, seed in self.INSTANCES:
            path = tmp_path / f"bulk{seed}.json"
            path.write_text(serialize_instance(random_instance(100, m, p, (1, 3), seed=seed)))
            for flags in ([], ["--no-dedup"]) if seed == 11 else ([],):
                code, out, _ = run(capsys, "solve", str(path), *flags)
                assert code == 0
                scheme = tmp_path / f"bulk{seed}{''.join(flags)}.scheme.json"
                scheme.write_text(out)
                code, verified, err = run(capsys, "verify", str(path), str(scheme), "--trials", "20")
                assert (code, err) == (0, "")
                digest.update(out.encode())
                digest.update(verified.encode())
        assert digest.hexdigest() == self.DIGEST


class TestGap:
    def test_directed_cycle(self, capsys):
        code, out, _ = run(capsys, "gap", CYCLE3)
        assert code == 0
        assert json.loads(out) == {
            "mais": 2,
            "oracle": 2,
            "cover_exact": 3,
            "cover_greedy": 3,
            "gap": 1,
            "counterexample": True,
        }

    def test_worked_example_no_gap(self, capsys):
        code, out, _ = run(capsys, "gap", EXAMPLE6)
        assert code == 0
        data = json.loads(out)
        assert data["gap"] == 0 and not data["counterexample"]

    def test_over_cap_fields_null(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gap", EXAMPLE6, "--oracle-cap", "2")
        assert code == 0
        data = json.loads(out)
        assert data["oracle"] is None and data["gap"] is None
        # 12 messages and over 20 virtuals: past both default caps
        _, text, _ = run(capsys, "gen", "-n", "12", "-m", "20", "-p", "0.5",
                         "--demand-max", "3", "--seed", "1")
        path = tmp_path / "gen.json"
        path.write_text(text)
        code, out, _ = run(capsys, "gap", str(path))
        assert code == 0
        assert json.loads(out) == {
            "mais": None,
            "oracle": None,
            "cover_exact": 10,
            "cover_greedy": 14,
            "gap": None,
            "counterexample": False,
        }

    def test_exact_cap_bounds_the_largest_component(self, capsys):
        code, out, _ = run(capsys, "gap", EXAMPLE6, "--exact-cap", "3")
        assert code == 0
        assert json.loads(out)["cover_exact"] == 3

    def test_mais_cap_counts_every_virtual(self, capsys, tmp_path):
        # MAIS branches only on has-minimal virtuals, but its cap counts them all
        _, text, _ = run(capsys, "gen", "-n", "7", "-m", "10", "-p", "0.4",
                         "--demand-max", "2", "--seed", "6")
        u = UnicastInstance(parse_instance(text), True)
        assert (len(u.virtuals), has_minimal(u).bit_count()) == (15, 11)
        path = tmp_path / "dominated.json"
        path.write_text(text)
        code, out, _ = run(capsys, "gap", str(path))
        assert code == 0
        assert json.loads(out) == {
            "mais": 6,
            "oracle": 6,
            "cover_exact": 7,
            "cover_greedy": 7,
            "gap": 1,
            "counterexample": True,
        }
        code, out, _ = run(capsys, "gap", str(path), "--mais-cap", "14")
        assert code == 0
        assert json.loads(out)["mais"] is None
        code, out, _ = run(capsys, "gap", str(path), "--mais-cap", "15")
        assert json.loads(out)["mais"] == 6

    @pytest.mark.parametrize("seed, rate, greedy", [(3, 8, 8), (5, 6, 7), (6, 6, 6)])
    def test_bounds_pin_the_oracle_at_ten_messages(self, capsys, tmp_path, monkeypatch,
                                                   seed, rate, greedy):
        # MAIS meets the exact cover, so gap prints the oracle rate with no search
        # (the search did not end in 40 s on seed 6); the cap still nulls the field
        def no_search(n, k):
            raise AssertionError("the oracle searched")

        _, text, _ = run(capsys, "gen", "-n", "10", "-m", "10", "-p", "0.4",
                         "--demand-max", "2", "--seed", str(seed))
        path = tmp_path / "pinned.json"
        path.write_text(text)
        monkeypatch.setattr(oracle_module, "iter_rref_rowspaces", no_search)
        code, out, err = run(capsys, "gap", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "mais": rate,
            "oracle": rate,
            "cover_exact": rate,
            "cover_greedy": greedy,
            "gap": 0,
            "counterexample": False,
        }
        code, out, _ = run(capsys, "gap", str(path), "--oracle-cap", "9")
        assert code == 0
        assert json.loads(out) == {
            "mais": rate,
            "oracle": None,
            "cover_exact": rate,
            "cover_greedy": greedy,
            "gap": None,
            "counterexample": False,
        }

    def test_exact_cap_wins_where_mais_meets_the_dsatur_cover(self, capsys, tmp_path,
                                                               monkeypatch):
        # components of 3, 5, 5 and 1 virtuals; MAIS meets the DSATUR cover, so
        # gap skips the branch and bound, but only under the cap
        def no_search(rows, start):
            raise AssertionError("the branch and bound ran")

        _, text, _ = run(capsys, "gen", "-n", "7", "-m", "10", "-p", "0.4",
                         "--demand-max", "2", "--seed", "2")
        path = tmp_path / "met.json"
        path.write_text(text)
        monkeypatch.setattr(cover_module, "_exact_coloring", no_search)
        for cap, exact in (("5", 6), ("4", None)):
            expected = {
                "mais": 6,
                "oracle": 6,
                "cover_exact": exact,
                "cover_greedy": 6,
                "gap": None if exact is None else 0,
                "counterexample": False,
            }
            code, out, err = run(capsys, "gap", str(path), "--exact-cap", cap)
            assert (code, err) == (0, "")
            assert out == json.dumps(expected, indent=2) + "\n"

    def test_deep_mais_search_has_no_traceback(self, capsys, tmp_path):
        # 1200 distinct wants and no side information: the MAIS search goes
        # 1200 groups deep, past the interpreter's default recursion limit
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "num_messages": 1200,
            "receivers": [{"wants": [i], "has": []} for i in range(1, 1201)],
        }))
        code, out, err = run(capsys, "gap", str(path), "--mais-cap", "5000")
        assert code == 0
        assert json.loads(out)["mais"] == 1200
        assert "Traceback" not in err


class TestGen:
    def test_output_is_valid_and_deterministic(self, capsys):
        code, first, _ = run(capsys, "gen", "-n", "6", "-m", "6", "-p", "0.4", "--seed", "7")
        assert code == 0
        parse_instance(first)  # raises unless the instance is valid
        _, second, _ = run(capsys, "gen", "-n", "6", "-m", "6", "-p", "0.4", "--seed", "7")
        assert first == second

    def test_zero_density(self, capsys):
        _, out, _ = run(capsys, "gen", "-n", "5", "-m", "4", "-p", "0")
        inst = parse_instance(out)
        assert all(not r.has for r in inst.receivers)

    def test_full_density_unicast_solves_at_rate_1(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "-n", "5", "-m", "6", "-p", "1", "--seed", "2")
        path = tmp_path / "dense.json"
        path.write_text(out)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert json.loads(out)["rate"] == 1

    def test_infeasible_parameters_exit_1(self, capsys):
        code, _, err = run(capsys, "gen", "-n", "3", "-m", "2", "-p", "0.5",
                           "--demand-min", "2", "--demand-max", "5")
        assert code == 1
        assert "demand range" in err

    def test_work_limit_exits_1_before_drawing(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("random_instance called")

        monkeypatch.setattr(cli_module, "random_instance", no_draws)
        for n, m in [("1000000000000", "1"), ("1001", "1000"), ("1", "1000001")]:
            code, out, err = run(capsys, "gen", "-n", n, "-m", m, "-p", "0")
            assert code == 1 and out == ""
            assert err == f"error: messages * receivers must be at most 1000000, got {n} * {m}\n"


class TestArcsPerRequest:
    def test_gap_builds_the_arcs_once_and_verify_none(self, capsys, tmp_path, monkeypatch):
        # the graph's rows and MAIS share the split's arcs, and each request
        # builds the rows once; verify and the bipartite diagram build neither.
        # Only MAIS reads the has-minimal virtuals, once per uncapped gap
        arcs, rows, minimal = [], [], []
        real_arcs = instance_module._side_information_arcs
        real_rows = instance_module._cross_neighbor_rows

        def counting_arcs(virtuals):
            arcs.append(len(virtuals))
            return real_arcs(virtuals)

        def counting_rows(u):
            rows.append(len(u.virtuals))
            return real_rows(u)

        def counting_minimal(u):
            minimal.append(len(u.virtuals))
            return has_minimal(u)

        monkeypatch.setattr(instance_module, "_side_information_arcs", counting_arcs)
        monkeypatch.setattr(instance_module, "_cross_neighbor_rows", counting_rows)
        monkeypatch.setattr(oracle_module, "has_minimal", counting_minimal)
        code, out, _ = run(capsys, "solve", EXAMPLE6)
        assert code == 0 and arcs == rows == [6] and minimal == []
        scheme = tmp_path / "scheme.json"
        scheme.write_text(out)
        for argv, builds, minimal_calls in [
            (("gap", EXAMPLE6), [6], [6]),
            (("gap", EXAMPLE6, "--mais-cap", "5"), [6], []),
            (("gap", GROUPCAST3, "--no-dedup"), [3], [3]),
            (("export-dot", EXAMPLE6), [6], []),
            (("export-dot", EXAMPLE6, "--overlay-cover"), [6], []),
            (("export-dot", EXAMPLE6, "--variant", "bipartite"), [], []),
            (("verify", EXAMPLE6, str(scheme), "--trials", "20"), [], []),
        ]:
            arcs.clear()
            rows.clear()
            minimal.clear()
            assert run(capsys, *argv)[0] == 0
            assert arcs == rows == builds, argv
            assert minimal == minimal_calls, argv


class TestExportDot:
    def test_bipartite(self, capsys):
        code, out, _ = run(capsys, "export-dot", GROUPCAST3, "--variant", "bipartite")
        assert code == 0
        assert out.startswith("graph index_coding {")
        assert out.count("shape=box") == 3

    def test_derived_with_overlay(self, capsys):
        code, out, _ = run(capsys, "export-dot", EXAMPLE6, "--variant", "derived",
                           "--overlay-cover")
        assert code == 0
        assert out.count("style=filled") == 6
        assert sum("--" in line for line in out.splitlines()) == 4

    def test_bipartite_message_limit_exits_1_before_drawing(self, capsys, tmp_path,
                                                            monkeypatch):
        def no_lines(*args, **kwargs):
            raise AssertionError("bipartite_dot called")

        monkeypatch.setattr(cli_module, "bipartite_dot", no_lines)
        path = tmp_path / "huge.json"
        path.write_text('{"num_messages": 1000000000000, '
                        '"receivers": [{"wants": [1], "has": []}]}')
        code, out, err = run(capsys, "export-dot", str(path), "--variant", "bipartite")
        assert code == 1 and out == ""
        assert err == ("error: bipartite diagram: num_messages must be at most 1000000, "
                       "got 1000000000000\n")
        for argv in (["solve", str(path)], ["gap", str(path)]):
            assert run(capsys, *argv)[0] == 0

    def test_no_dedup_draws_one_node_per_kept_duplicate(self, capsys, tmp_path):
        # this generated instance repeats 8 of its 20 virtuals; a seed whose
        # virtuals are all distinct would draw the same nodes either way
        _, text, _ = run(capsys, "gen", "-n", "5", "-m", "12", "-p", "0.3",
                         "--demand-max", "2", "--seed", "1")
        path = tmp_path / "dup.json"
        path.write_text(text)
        for flags, nodes in (([], 12), (["--no-dedup"], 20)):
            code, out, _ = run(capsys, "export-dot", str(path), *flags)
            assert code == 0
            assert sum("label=" in line for line in out.splitlines()) == nodes, flags

    def test_both_variants_check_the_pipeline_flags(self, capsys):
        for variant in ("bipartite", "derived"):
            code, out, err = run(capsys, "export-dot", EXAMPLE6, "--variant", variant,
                                 "--exact-cap", "0")
            assert (code, out, err) == (1, "", "error: caps must be positive\n"), variant
        # argparse's choices keep an unknown solver off the command line
        with pytest.raises(ValidationError, match="^unknown solver 'fast'$"):
            SolveConfig(solver="fast")

    def test_both_variants_write_the_text_chunk_by_chunk(self, capsys, monkeypatch):
        # the diagram reaches stdout one node line or one row's edges at a
        # time, never as one joined text
        class Recording(io.TextIOBase):
            def write(self, text):
                writes.append(text)
                return len(text)

        inst = parse_instance(Path(EXAMPLE6).read_text())
        g = UnicastInstance(inst, True)
        for argv, chunks in [
            (("--variant", "bipartite"), list(bipartite_dot(inst))),
            ((), list(derived_dot(g))),
            (("--overlay-cover",), list(derived_dot(g, exact_min_cover(g)))),
        ]:
            writes = []
            monkeypatch.setattr(sys, "stdout", Recording())
            assert main(["export-dot", EXAMPLE6, *argv]) == 0, argv
            assert writes == chunks and len(chunks) > 2, argv
        assert capsys.readouterr().err == ""

    def test_exact_overlay_colours_every_component_as_solve_does(self, capsys, tmp_path):
        # 66 virtuals after dedup in 18 components, none labelled 0..s-1, as in
        # the CI step: each node is filled by the part solve assigns its virtual
        _, text, _ = run(capsys, "gen", "-n", "30", "-m", "45", "-p", "0.07",
                         "--demand-max", "2", "--seed", "4")
        path = tmp_path / "multi.json"
        path.write_text(text)
        flags = ("--solver", "exact", "--exact-cap", "128")
        code, out, err = run(capsys, "export-dot", str(path), "--overlay-cover", *flags)
        assert (code, err) == (0, "")
        nodes = [line for line in out.splitlines() if "label=" in line]
        assert (len(nodes), sum(" -- " in line for line in out.splitlines())) == (66, 84)
        part_of = {"r%d_%d" % tuple(a["origin"]): a["transmission"]
                   for a in json.loads(run(capsys, "solve", str(path), *flags)[1])["assignments"]}
        for line in nodes:
            name, colour = line.split()[0], line.split("fillcolor=")[1][:-2]
            assert colour == _PART_COLORS[part_of[name] % len(_PART_COLORS)], line

    def test_parse_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "export-dot", str(path))
        assert code == 1
        assert "malformed" in err

    def test_overlay_exact_over_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "export-dot", EXAMPLE6, "--overlay-cover",
                             "--solver", "exact", "--exact-cap", "2")
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_overlay_says_when_it_falls_back(self, capsys):
        # the triangle component is over an exact cap of 2, as in solve's fallback test
        code, out, err = run(capsys, "export-dot", EXAMPLE6, "--overlay-cover", "--exact-cap", "2")
        assert code == 0
        assert out == run(capsys, "export-dot", EXAMPLE6, "--overlay-cover",
                          "--solver", "greedy")[1]
        assert err == run(capsys, "solve", EXAMPLE6, "--exact-cap", "2")[2]
        assert err.startswith("warning: ") and "(component of 3 vertices > 2)" in err
        assert err.endswith("; falling back to greedy\n")
        assert run(capsys, "export-dot", EXAMPLE6, "--exact-cap", "2")[2] == ""

    def test_overlay_honours_greedy_solver(self, capsys, tmp_path):
        # a path 2-0-1-3 in the derived graph: first-fit pairs 0 with 1 and
        # leaves 2 and 3 alone, the exact cover pairs {0, 2} and {1, 3}
        path = tmp_path / "path4.json"
        path.write_text(
            '{"num_messages": 4, "receivers": ['
            '{"wants": [1], "has": [2, 3]}, {"wants": [2], "has": [1, 4]}, '
            '{"wants": [3], "has": [1]}, {"wants": [4], "has": [2]}]}'
        )
        _, default, _ = run(capsys, "export-dot", str(path), "--overlay-cover")
        code, out, _ = run(capsys, "export-dot", str(path), "--overlay-cover",
                           "--solver", "greedy")
        assert code == 0
        u = UnicastInstance(parse_instance(path.read_text()), True)
        assert greedy_cover(u).size == 3
        assert out == "".join(derived_dot(u, greedy_cover(u)))
        assert out != default


class TestGraphCap:
    """A split form of more than ``GRAPH_MAX_VIRTUALS`` virtuals builds no
    graph.  Virtual j wants message 1 and holds message j + 1: dedup keeps
    every virtual and all of them form one clique, so each row of the graph
    holds a bit per virtual.  Each command runs in a child process whose
    address space alone is capped."""

    CHILD = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from indexcoding.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    def child(self, *argv):
        return subprocess.run([sys.executable, "-c", self.CHILD, *argv], capture_output=True,
                              text=True, env=PACKAGE_ENV, timeout=60)

    @staticmethod
    def same_want(tmp_path, k):
        path = tmp_path / f"same_want_{k}.json"
        path.write_text(json.dumps({"num_messages": k + 1, "receivers": [
            {"wants": [1], "has": [j + 1]} for j in range(1, k + 1)]}))
        return str(path)

    def test_above_the_bound_graph_commands_exit_2(self, tmp_path):
        k = GRAPH_MAX_VIRTUALS + 1
        path = self.same_want(tmp_path, k)
        for argv in (["solve", path], ["solve", path, "--no-dedup"], ["gap", path],
                     ["export-dot", path], ["export-dot", path, "--overlay-cover"]):
            proc = self.child(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                2, "", f"error: graph cap exceeded ({k} virtuals > {GRAPH_MAX_VIRTUALS})\n"), argv
        # verify and the bipartite diagram build no graph, so no bound holds them
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"transmissions": [[1]]}')
        for argv in (["verify", path, str(scheme), "--trials", "1"],
                     ["export-dot", path, "--variant", "bipartite"]):
            proc = self.child(*argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv

    def test_at_the_bound_graph_commands_succeed(self, tmp_path):
        path = self.same_want(tmp_path, GRAPH_MAX_VIRTUALS)
        proc = self.child("solve", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["transmissions"] == [[1]]
        proc = self.child("gap", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cover_greedy"] == 1


class TestPipelineClosure:
    # (gen arguments, solve flags): ten small instances, then two the exact
    # cover solves, one solve-exact-sized (a 30-60 virtual component) and one
    # of 66 virtuals in 18 components
    EXACT = ["--solver", "exact", "--exact-cap", "128"]
    CASES = [(["-n", "6", "-m", "5", "-p", "0.5", "--demand-max", "2", "--seed", str(seed)], [])
             for seed in range(10)] + [
        (["-n", "25", "-m", "30", "-p", "0.8", "--demand-max", "2", "--seed", "3"], EXACT),
        (["-n", "30", "-m", "45", "-p", "0.07", "--demand-max", "2", "--seed", "4"], EXACT),
    ]

    def test_solve_then_verify_on_random_instances(self, capsys, tmp_path):
        for k, (gen_args, solve_flags) in enumerate(self.CASES):
            gen_code, inst_text, _ = run(capsys, "gen", *gen_args)
            assert gen_code == 0
            inst_path = tmp_path / f"inst{k}.json"
            inst_path.write_text(inst_text)
            solve_code, scheme_text, _ = run(capsys, "solve", str(inst_path), *solve_flags)
            assert solve_code == 0
            scheme_path = tmp_path / f"scheme{k}.json"
            scheme_path.write_text(scheme_text)
            verify_code, report, _ = run(capsys, "verify", str(inst_path), str(scheme_path))
            assert verify_code == 0, report


# Each payload breaks the JSON decoder itself: one by nesting past the
# recursion limit, one by an integer literal past the interpreter's digit limit.
HOSTILE = {
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "long_integer": '{"num_messages": ' + "9" * 5000 + ', "receivers": []}',
}


@pytest.mark.parametrize(
    "payload",
    [
        "deep_nesting",
        pytest.param(
            "long_integer",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                reason="no integer string-conversion limit in force",
            ),
        ),
    ],
)
@pytest.mark.parametrize(
    "command",
    ["solve", "verify-instance", "verify-scheme", "gap", "export-dot"],
)
def test_hostile_input_exits_1(capsys, tmp_path, command, payload):
    path = tmp_path / "hostile.json"
    path.write_text(HOSTILE[payload])
    argv = {
        "solve": ["solve", str(path)],
        "verify-instance": ["verify", str(path), str(path)],
        "verify-scheme": ["verify", EXAMPLE6, str(path)],
        "gap": ["gap", str(path)],
        "export-dot": ["export-dot", str(path)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed JSON") and err.count("\n") == 1
    assert "Traceback" not in err


ids = st.integers(-1, 7) | st.sampled_from([True, 1.5, "2", None, 10**12])
id_lists = st.lists(ids, max_size=4) | ids
hostile_instance = st.fixed_dictionaries(
    {"num_messages": st.integers(-1, 6) | st.sampled_from([0, 7, 10**12, True, 2.0])},
    optional={
        "receivers": st.lists(
            st.fixed_dictionaries({"wants": id_lists}, optional={"has": id_lists}),
            max_size=5,
        ) | ids,
        "extra": st.none(),
    },
)
hostile_scheme = st.fixed_dictionaries(
    {"transmissions": st.lists(id_lists, max_size=5) | ids},
    optional={"rate": st.integers(0, 5) | ids},
)
valid_instance = st.builds(
    lambda n, m, p, seed: random_instance(n, m, p, (1, min(2, n)), seed=seed),
    st.integers(1, 6), st.integers(1, 5), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 99),
).map(serialize_instance)
plausible_scheme = (
    st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True), max_size=6)
    | st.integers(1, 6).map(lambda k: [[i] for i in range(1, k + 1)])  # sends every message
).map(lambda transmissions: json.dumps({"transmissions": transmissions}))
# arbitrary bytes, JSON of the right shape with hostile values in it, and
# files that pass the parse
instance_bytes = (
    st.binary(max_size=64) | hostile_instance.map(json.dumps).map(str.encode)
    | valid_instance.map(str.encode)
)
scheme_bytes = (
    st.binary(max_size=64) | hostile_scheme.map(json.dumps).map(str.encode)
    | plausible_scheme.map(str.encode)
)
cap = st.integers(-1, 64).map(str)
solve_argv = st.tuples(
    st.just("solve"), st.sampled_from([["--solver", s] for s in ("exact", "greedy", "auto")]),
    st.sampled_from([[], ["--no-dedup"]]),
    cap.map(lambda c: ["--exact-cap", c]),
)
verify_argv = st.tuples(
    st.just("verify"),
    (st.integers(-1, 64) | st.sampled_from([10**6, 10**6 + 1, 10**12]))
    .map(lambda t: ["--trials", str(t)]),
    st.integers(-1, 3).map(lambda s: ["--seed", str(s)]),
)
small_cap = st.integers(-1, 8).map(str)
gap_argv = st.tuples(
    st.just("gap"), st.sampled_from([[], ["--no-dedup"]]),
    cap.map(lambda c: ["--exact-cap", c]),
    small_cap.map(lambda c: ["--oracle-cap", c]),
    small_cap.map(lambda c: ["--mais-cap", c]),
)
export_dot_argv = st.tuples(
    st.just("export-dot"), st.sampled_from([["--variant", v] for v in ("bipartite", "derived")]),
    st.sampled_from([[], ["--overlay-cover"]]),
    st.sampled_from([["--solver", s] for s in ("exact", "greedy", "auto")]),
    cap.map(lambda c: ["--exact-cap", c]),
)
# hostile sizes stay fast: any draw count over the cap is refused before drawing
gen_size = st.sampled_from(["1", "2", "6"]) | st.sampled_from(["-1", "0", str(10**12)])
gen_argv = st.tuples(
    st.just("gen"), gen_size.map(lambda n: ["-n", n]), gen_size.map(lambda m: ["-m", m]),
    (st.sampled_from(["0", "0.5", "1"]) | st.sampled_from(["-0.5", "1.5", "nan", "inf"]))
    .map(lambda p: ["-p", p]),
    st.just([]) | gen_size.map(lambda d: ["--demand-min", d]),
    st.just([]) | gen_size.map(lambda d: ["--demand-max", d]),
    st.sampled_from(["-1", "0", "3"]).map(lambda s: ["--seed", s]),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(solve_argv, verify_argv, gap_argv, export_dot_argv, gen_argv),
       instance_bytes, scheme_bytes)
def test_any_input_ends_in_an_exit_code(command, instance, scheme):
    name, *flags = command
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "instance.json"), os.path.join(tmp, "scheme.json")]
        for path, data in zip(paths, (instance, scheme)):
            with open(path, "wb") as fh:
                fh.write(data)
        files = {"verify": paths, "gen": []}.get(name, paths[:1])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([name, *files, *(arg for flag in flags for arg in flag)])
    assert gc.isenabled()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [["gap", CYCLE3], ["solve", EXAMPLE6]])
def test_module_entry_point_prints_what_main_prints(capsys, argv):
    proc = subprocess.run([sys.executable, "-m", "indexcoding", *argv], capture_output=True,
                          text=True, env=PACKAGE_ENV, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def test_main_restores_the_collector_state(monkeypatch):
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["solve", EXAMPLE6]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()

    def fail(path):
        raise RuntimeError("not an input error")

    # the parser holds the cmd_* functions themselves: fail inside cmd_solve
    monkeypatch.setattr(cli_module, "_load_instance", fail)
    with pytest.raises(RuntimeError):
        main(["solve", EXAMPLE6])
    assert gc.isenabled()


@pytest.mark.parametrize("argv, scheme, expected", [
    (["solve", EXAMPLE6], None, 0),
    (["verify", EXAMPLE6], '{"rate": 3, "transmissions": [[1, 3, 4], [2, 5], [6]]}', 0),
    (["verify", EXAMPLE6], '{"rate": 2, "transmissions": [[1, 3, 4], [2, 5]]}', 3),
    (["gap", EXAMPLE6, "--oracle-cap", "2"], None, 0),
    # every "has" empty
    (["gen", "-n", "12", "-m", "20", "-p", "0", "--demand-max", "3"], None, 0),
    (["export-dot", EXAMPLE6, "--overlay-cover"], None, 0),
], ids=["solve", "verify-0", "verify-3", "gap-capped", "gen", "export-dot-overlay"])
def test_commands_leave_no_cyclic_garbage(tmp_path, argv, scheme, expected):
    # main pauses the collector, so a cycle would wait for its next run; the
    # error exits (1 and 2) may leave a traceback cycle and are not checked
    if scheme is not None:
        path = tmp_path / "scheme.json"
        path.write_text(scheme)
        argv = [*argv, str(path)]
    cli_module.build_parser()  # its one build leaves argparse's formatter cycles
    gc.collect()
    gc.disable()  # no automatic run may free a cycle before it is counted
    try:
        with redirect_stdout(io.StringIO()):
            code = main(argv)
        assert (code, gc.collect()) == (expected, 0)
    finally:
        gc.enable()


class _ClosedPipe(io.TextIOBase):
    # a text stream: its writelines calls write, as sys.stdout's does
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["solve", EXAMPLE6], ["gap", CYCLE3], ["export-dot", EXAMPLE6]])
def test_closed_stdout_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


class _FullDevice:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["solve", EXAMPLE6], ["gen", "-n", "3", "-m", "2", "-p", "0.5"]])
def test_full_stdout_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_device_leaves_no_traceback():
    # the output fits the stdout buffer, so the write fails when it is flushed
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "indexcoding", "solve", EXAMPLE6],
            stdout=full, stderr=subprocess.PIPE, env=PACKAGE_ENV, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_leaves_no_traceback(unbuffered):
    # buffered, the output fits the stdout buffer and the pipe fails only when
    # it is flushed, at interpreter exit unless the CLI flushes it first;
    # unbuffered, the first write fails
    env = dict(PACKAGE_ENV, PYTHONUNBUFFERED="1") if unbuffered else PACKAGE_ENV
    proc = subprocess.Popen(
        [sys.executable, "-m", "indexcoding", "solve", EXAMPLE6],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err
