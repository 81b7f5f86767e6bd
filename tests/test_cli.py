import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gicc
from gicc.cli import main
from gicc.digraph import parse_digraph, serialize_digraph
from gicc.generators import gen_cycle, gen_demo_4gic, gen_relay_family


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.graph"
    path.write_text(serialize_digraph(gen_demo_4gic()[0]) + "\n")
    return str(path)


@pytest.fixture()
def family4_file(tmp_path):
    path = tmp_path / "family4.graph"
    path.write_text(serialize_digraph(gen_relay_family(4)[0]) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_valid(self, capsys, demo_file):
        code, out = run(capsys, "validate", demo_file, "--inner", "1,2,3,4")
        assert code == 0
        assert "valid 4-GIC" in out and "code length 3" in out

    def test_invalid_structure_exits_1(self, capsys, tmp_path):
        path = tmp_path / "c3.graph"
        path.write_text("n=3\n1 -> 2\n2 -> 3\n3 -> 1\n")
        code, out = run(capsys, "validate", str(path), "--inner", "1")
        assert code == 1
        assert "I-cycle" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "/nonexistent.graph", "--inner", "1"]) == 2

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("n=2\n1 -> 1\n")
        assert main(["validate", str(path), "--inner", "1,2"]) == 2

    def test_json_record(self, capsys, demo_file):
        code, record = run_json(capsys, "validate", demo_file, "--inner", "1,2,3,4")
        assert code == 0
        assert record["valid"] is True
        assert record["k"] == 4 and record["code_length"] == 3
        assert record["status"] == "pass" and record["exit_code"] == 0


class TestEncode:
    def test_zero_messages(self, capsys, demo_file, tmp_path):
        msg = tmp_path / "zeros.msg"
        msg.write_text("t=1\n00\n00\n00\n00\n00\n00\n")
        code, out = run(
            capsys, "encode", demo_file, "--inner", "1,2,3,4", "--messages", str(msg)
        )
        assert code == 0
        assert out.splitlines() == [
            "mask=1,2,3,4 payload=00",
            "mask=2,3,5 payload=00",
            "mask=3,4,6 payload=00",
        ]

    def test_random_golden(self, capsys, demo_file):
        code, record = run_json(
            capsys, "encode", demo_file, "--inner", "1,2,3,4",
            "--random", "--t", "8", "--seed", "7",
        )
        assert code == 0
        assert record["messages"] == ["52", "f2", "26", "65", "a6", "0c"]
        assert record["symbols"] == [
            {"mask": [1, 2, 3, 4], "payload": "e3"},
            {"mask": [2, 3, 5], "payload": "72"},
            {"mask": [3, 4, 6], "payload": "4f"},
        ]

    def test_family_emits_seven_symbols(self, capsys, family4_file):
        code, record = run_json(
            capsys, "encode", family4_file, "--inner", "1,2,3,4",
            "--random", "--t", "8", "--seed", "0",
        )
        assert code == 0
        assert len(record["symbols"]) == 7

    def test_random_requires_seed(self, capsys, demo_file):
        assert main(["encode", demo_file, "--inner", "1,2,3,4", "--random", "--t", "8"]) == 2

    def test_wrong_message_count(self, capsys, demo_file, tmp_path):
        msg = tmp_path / "short.msg"
        msg.write_text("t=1\n00\n")
        assert main(
            ["encode", demo_file, "--inner", "1,2,3,4", "--messages", str(msg)]
        ) == 2


class TestVerify:
    def test_exhaustive(self, capsys, demo_file):
        code, out = run(
            capsys, "verify", demo_file, "--inner", "1,2,3,4", "--exhaustive-t1"
        )
        assert code == 0
        assert "round trips: 64/64 pass" in out
        assert "symbolic decode check: pass" in out

    def test_random_trials(self, capsys, family4_file):
        code, record = run_json(
            capsys, "verify", family4_file, "--inner", "1,2,3,4",
            "--trials", "50", "--t", "64", "--seed", "3",
        )
        assert code == 0 and record["failures"] == 0 and record["trials"] == 50

    def test_invalid_inner_exits_1(self, capsys, demo_file):
        assert main(["verify", demo_file, "--inner", "1,2", "--exhaustive-t1"]) == 1


class TestCoverBoundsCompare:
    def test_cover_exact_demo(self, capsys, demo_file):
        code, record = run_json(capsys, "cover", demo_file, "--exact")
        assert code == 0
        assert record["psi"] == 1 and record["length"] == 3
        assert record["parts"][0]["inner"] == [1, 2, 3, 4]

    def test_cover_exact_gate_exits_3(self, capsys, tmp_path):
        path = tmp_path / "big.graph"
        path.write_text("n=11\n")
        assert main(["cover", str(path), "--exact"]) == 3

    def test_bounds_digon(self, capsys, tmp_path):
        path = tmp_path / "digon.graph"
        path.write_text("n=2\n1 -> 2\n2 -> 1\n")
        code, record = run_json(capsys, "bounds", str(path), "--minrank")
        assert code == 0
        assert record["mais"] == 1 and record["minrank"] == 1
        assert record["sandwich_ok"] is True

    def test_bounds_minrank_gate_exits_3(self, capsys, tmp_path):
        path = tmp_path / "k6.graph"
        from gicc.generators import gen_clique

        path.write_text(serialize_digraph(gen_clique(6)) + "\n")
        assert main(["bounds", str(path), "--minrank"]) == 3

    def test_compare_demo(self, capsys, demo_file):
        code, record = run_json(capsys, "compare", demo_file)
        assert code == 0
        assert record["lengths"] == {"gicc": 3.0, "cycle": 4.0, "clique": 5.0}
        assert record["mais"] == 3
        assert record["optimality"] == "optimal-case1"

    def test_compare_family(self, capsys, family4_file):
        code, record = run_json(capsys, "compare", family4_file, "--inner", "1,2,3,4")
        assert code == 0
        assert record["lengths"] == {"gicc": 7.0, "cycle": 8.0, "clique": 10.0}
        assert record["mais"] == 7
        assert record["optimality"] == "optimal-case1"

    def test_text_and_json_numbers_agree(self, capsys, demo_file):
        _, out = run(capsys, "compare", demo_file)
        _, record = run_json(capsys, "compare", demo_file)
        for name in ("gicc", "cycle", "clique"):
            line = next(l for l in out.splitlines() if l.strip().startswith(name))
            assert float(line.split()[-1]) == record["lengths"][name]


class TestGenerate:
    def test_family_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "fam.graph"
        code, out = run(
            capsys, "generate", "relay-family", "--k", "4", "--out", str(out_path)
        )
        assert code == 0
        assert "inner: 1 2 3 4" in out
        text = out_path.read_text()
        assert text.endswith("\n")
        d = parse_digraph(text)
        assert d == gen_relay_family(4)[0]
        assert len(d.arcs) == 18

    def test_clique_to_stdout(self, capsys):
        code, out = run(capsys, "generate", "clique", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["n=2", "1 -> 2", "2 -> 1"]

    def test_demo_stdout_carries_inner_comment(self, capsys):
        code, out = run(capsys, "generate", "demo")
        assert code == 0
        assert "# inner: 1 2 3 4" in out
        assert parse_digraph(out) == gen_demo_4gic()[0]

    def test_icc_description(self, capsys, tmp_path):
        out_path = tmp_path / "icc.graph"
        code, record = run_json(
            capsys, "generate", "icc", "--k", "3", "--seed", "1", "--out", str(out_path)
        )
        assert code == 0
        assert record["description"]["paths"] == [[1], [2, 3, 4], [5]]
        assert record["inner"] == [1, 4, 5]
        assert parse_digraph(out_path.read_text()).n == record["n"]

    def test_identical_invocations_are_byte_identical(self, capsys):
        _, a = run(capsys, "generate", "random", "--n", "8", "--p", "0.3", "--seed", "42", "--json")
        _, b = run(capsys, "generate", "random", "--n", "8", "--p", "0.3", "--seed", "42", "--json")
        assert a == b

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["generate", "relay-family", "--k", "1"]) == 2
        assert main(["generate", "clique"]) == 2
        assert main(["generate", "random", "--n", "4", "--p", "2.0"]) == 2


class TestSweep:
    def test_small_sweep(self, capsys):
        code, record = run_json(
            capsys, "sweep", "--max-exhaustive-n", "3", "--samples", "10",
            "--random-n", "5", "--seed", "2",
        )
        assert code == 0
        assert record["digraphs"] == 4 + 64 + 10
        assert isinstance(record["counterexamples"], list)

    def test_gate(self, capsys):
        assert main(["sweep", "--max-exhaustive-n", "5"]) == 3


# arguments and expected exit code per command; bounds and compare stop
# at the exact-MAIS size gate (exit 3).  Small budgets and trial counts
# keep the runs short: the cover still falls back to a chordless cycle.
LONG_CYCLE_RUNS = {
    "validate": (["--inner", "1,2"], 0),
    "cover": (["--budget", "50"], 0),
    "encode": (["--inner", "1,2", "--random", "--t", "8", "--seed", "1"], 0),
    "verify": (["--inner", "1,2", "--trials", "1"], 0),
    "bounds": (["--inner", "1,2"], 3),
    "compare": (["--inner", "1,2"], 3),
}


@pytest.fixture(scope="module")
def cycle5000_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "cycle5000.graph"
    path.write_text(serialize_digraph(gen_cycle(5000)) + "\n")
    return str(path)


@pytest.mark.parametrize("command", sorted(LONG_CYCLE_RUNS))
def test_long_cycle_runs_without_traceback(command, cycle5000_file):
    args, expected = LONG_CYCLE_RUNS[command]
    paths = [str(Path(gicc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "gicc.cli", command, cycle5000_file, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == expected, proc.stderr
