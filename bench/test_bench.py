"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q

The smoke tests run every workload once at the tiny "smoke" sizes through the
real command line and validate the printed result against BENCHMARK.json.
The sentinels corrupt one output and require the harness to register it.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run_cli(args):
    return bench_run.spawn([sys.executable, "-m", "homsim.cli"] + args, args[-1] + ".log", 120)


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_names_match_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(bench_run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["hom_parallel", "tac_orthogonal", "fit"])
def test_smoke_schema(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_histogram_matches_hand_run(tmp_path):
    """The benchmark's histogram is the one a hand-run simulate writes."""
    _smoke("hom_parallel", 0)
    record = json.loads((bench_run.RUNS / ("hom_parallel-seed%d-trace0-smoke.json" % SEED)).read_text())
    (command,) = record["commands"]
    args = command.split("python -m homsim.cli ", 1)[1].split()
    args[args.index("--out") + 1] = str(tmp_path / "hand")
    _, _, rc, _ = _run_cli(args)
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "hand.hist.csv").read_bytes()).hexdigest()
    assert record["digests"] == [[0, digest]]


@pytest.fixture(scope="module")
def simulate_output(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("sim") / "x")
    _, _, rc, _ = _run_cli(["simulate", "--duration-ns", "2e5", "--seed", str(SEED), "--out", prefix])
    assert rc == 0
    return prefix, Path(prefix + ".log").read_text()


def _corrupt_count(path):
    lines = Path(path).read_text().splitlines(keepends=True)
    tau, n, norm = lines[120].split(",")
    lines[120] = "%s,%d,%s" % (tau, int(n) + 1, norm)
    Path(path).write_text("".join(lines))


def test_sentinel_simulate_outputs(simulate_output, tmp_path):
    prefix, log = simulate_output
    err, digest = bench_run.check_simulate(prefix, log)
    assert err is None and len(digest) == 64

    copy = str(tmp_path / "c")
    for suffix in (".hist.csv", ".tags.csv"):
        Path(copy + suffix).write_bytes(Path(prefix + suffix).read_bytes())
    _corrupt_count(copy + ".hist.csv")
    assert "histogram counts sum" in bench_run.check_simulate(copy, log)[0]

    Path(copy + ".hist.csv").write_bytes(Path(prefix + ".hist.csv").read_bytes())
    tags = Path(prefix + ".tags.csv").read_bytes()
    Path(copy + ".tags.csv").write_bytes(tags[: tags.rstrip(b"\n").rfind(b"\n") + 1])
    assert "time tags hold" in bench_run.check_simulate(copy, log)[0]


def test_sentinel_results(tmp_path):
    prefix = str(tmp_path / "a")
    good = {k: "0.5" for k in bench_run.RESULT_KEYS}
    good.update(gamma_pure_hat_per_ns="0.21", stderr_gamma_pure="0.005", converged="true")

    def check(**change):
        vals = dict(good, **change)
        Path(prefix + ".results.txt").write_text("".join("%s = %s\n" % kv for kv in vals.items()))
        return bench_run.check_analyze(prefix, 0.2)

    err, _, z = check()
    assert err is None and z == pytest.approx(2.0)
    assert check(converged="false")[0] == "fit did not converge"
    assert "not finite" in check(rss="nan")[0]
    assert "not positive" in check(stderr_gamma_pure="0.0")[0]


def test_sentinel_end_to_end(monkeypatch):
    """One corrupted histogram in a run is one failed op and correct=false."""
    real_spawn = bench_run.spawn
    calls = []

    def corrupting_spawn(argv, log_path, timeout):
        out = real_spawn(argv, log_path, timeout)
        if "--mark" in argv:
            calls.append(argv)
            if len(calls) == 2:
                _corrupt_count(argv[argv.index("--out") + 1] + ".hist.csv")
        return out

    monkeypatch.setattr(bench_run, "spawn", corrupting_spawn)
    result, record, _ = bench_run.run("hom_parallel", SEED + 1, 0.1, 0, "smoke")
    assert result["failed"] == 1 and result["correct"] is False
    assert [op["error"] is None for op in record["ops"]] == [True, False, True]
    assert "histogram counts sum" in record["ops"][1]["error"]


def test_sentinel_digest_mismatch(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "RUNS", tmp_path)
    ops = [bench_run.Op(0, False, digest="a" * 64), bench_run.Op(0, False, digest="b" * 64)]
    bench_run._ledger_check(ops, "fit", 1, "code")
    assert ops[0].ok and "differs" in ops[1].error
    later = [bench_run.Op(0, False, digest="b" * 64)]
    bench_run._ledger_check(later, "fit", 1, "code")
    assert "differs" in later[0].error


def test_missing_program_exits_without_result(tmp_path):
    """A directory with only the benchmark cannot produce a result."""
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "child.py"):
        (tmp_path / "bench" / f).write_bytes((BENCH / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
