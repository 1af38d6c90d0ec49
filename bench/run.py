"""homsim benchmark: the CLI's cost and the fit's accuracy on three workloads.

    python3 bench/run.py --workload hom_parallel --seed 1 --seconds 20 --trace 0

Each run is a closed loop with one client: a single child process at a time
runs a homsim CLI command (``PYTHONPATH=src python -m homsim.cli ...``, through
bench/child.py), and the next starts only after it has exited and its outputs
were checked.  Workloads, metrics and the layer-to-end-to-end mapping are
described in bench/README.md; BENCHMARK.json declares the names.

--trace 0 prints the end-to-end metrics, measured with no probe but the
set-up mark.  --trace 1 alternates traced and untraced children and prints
the per-layer metrics from the traced ones.  The last line of stdout is the
JSON result; a record with the environment, every op and the histogram
digests goes to bench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
CHILD = BENCH / "child.py"

# Simulated duration per child, in ns.  "full" sizes put 2-4 s of work in a
# simulate child, well above the ~0.8 s of interpreter start and imports, so
# a run holds several samples.  "smoke" sizes only exercise the harness.
SIZES = {
    "full": {"hom_parallel": 3e6, "tac_orthogonal": 1.2e7, "fit": 1e6},
    "smoke": {"hom_parallel": 2e5, "tac_orthogonal": 5e5, "fit": 1e6},
}
# The fit's Nelder-Mead path, and so its cost, depends on the data: the
# evaluation count of one pair varies by about 17% (sd) from pair to pair,
# at any statistics.  So set-up simulates this many histograms per
# polarization and the fit cycles over all parallel x orthogonal pairs,
# each pair at most once per run: the median does not hinge on a few pairs.
FIT_RUNS = {"full": 4, "smoke": 1}

# hardware-realism branch: sub-unity efficiency and dead time under the
# single-stop TAC; orthogonal polarization leaves pair matching out
TAC_CONFIG = {
    "pol_mode": "orthogonal",
    "correlation_mode": "tac",
    "efficiency_3": "0.3",
    "efficiency_4": "0.3",
    "dead_time_3": "22.0",
    "dead_time_4": "22.0",
}

# the analyze output contract (homsim.fileio.RESULT_KEYS), kept here so the
# check does not depend on the code it checks
RESULT_KEYS = (
    "gamma_pure_hat_per_ns", "w_p_hat_per_ns", "contrast_hat", "background_hat",
    "t2_hat_ns", "v0_hat",
    "stderr_gamma_pure", "stderr_w_p", "stderr_contrast", "stderr_background",
    "rss", "converged",
)

SIM_LINE = re.compile(r"simulate: (\d+) \+ (\d+) clicks, (\d+) correlation records")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("emitter.stream_s", "s"),
    ("emitter.photons", "count"),
    ("interferometer.route_s", "s"),
    ("interferometer.self_s", "s"),
    ("interferometer.candidate_pairs_s", "s"),
    ("interferometer.candidate_pairs", "count"),
    ("interferometer.match_s", "s"),
    ("interferometer.accepted_pairs", "count"),
    ("interferometer.delivered_ratio", "ratio"),
    ("detection.detector_s", "s"),
    ("detection.clicks_out", "count"),
    ("detection.dead_time_s", "s"),
    ("detection.clicks_lost_dead_time", "count"),
    ("detection.correlator_s", "s"),
    ("detection.records", "count"),
    ("detection.tac_conversion_ratio", "ratio"),
    ("detection.pair_counts_s", "s"),
    ("pipeline.run_s", "s"),
    ("pipeline.self_s", "s"),
    ("fileio.write_tags_s", "s"),
    ("fileio.tags_bytes", "B"),
    ("fileio.write_hist_s", "s"),
    ("fileio.read_hist_s", "s"),
    ("analysis.fit_s", "s"),
    ("analysis.fit_evaluations", "count"),
    ("analysis.eval_us", "us"),
    ("analysis.stderr_s", "s"),
    ("coherence.g2_source_s", "s"),
    ("coherence.convolve_irf_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("fit_gamma_pure_z", "sigma"),
    ("trace.overhead_s", "s"),
)

# Coverage: the spans that must fire on each workload; every other probe must
# record zero calls.  A probe on a binding the caller does not use shows up
# here as a missing span.
_SIM_SPANS = {
    "pipeline.run", "emitter.stream", "interferometer.interfere", "interferometer.route",
    "detection.detector", "detection.dead_time", "detection.correlator",
    "fileio.write_tags", "fileio.write_hist",
}
_PAIR_SPANS = {"interferometer.candidate_pairs", "interferometer.match", "detection.pair_counts"}
_FIT_SPANS = {
    "fileio.read_hist", "analysis.fit", "analysis.model", "analysis.stderr",
    "coherence.g2_source", "coherence.convolve_irf",
}
WORKLOADS = ("hom_parallel", "tac_orthogonal", "fit")
EXPECTED_SPANS = {
    "hom_parallel": {"cli.main"} | _SIM_SPANS | _PAIR_SPANS,
    "tac_orthogonal": {"cli.main"} | _SIM_SPANS,
    "fit": {"cli.main"} | _FIT_SPANS,
}
# dead time is configured only on tac_orthogonal
LOSES_DEAD_TIME = {"hom_parallel": False, "tac_orthogonal": True}

# every child must be done this long after the run started
HARD_LIMIT_S = 170.0
# a run measures at least this many children, however short --seconds is
MIN_OPS = 3


class SetupError(RuntimeError):
    """The program could not be run at all; no result is printed."""


@dataclass
class Variant:
    """One CLI command a workload runs, with what its check needs."""

    args: list
    out: str  # output prefix, relative to the checkout root
    kind: str  # "simulate" | "analyze"
    gamma_pure_true: float | None = None


@dataclass
class Op:
    variant: int
    traced: bool
    rc: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None
    error: str | None = None
    digest: str | None = None
    z: float | None = None
    layers: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.error is None


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv, log_path, timeout):
    """Run argv as one child; returns (t_spawn, t_exit, exit code, rusage)."""
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, ru


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_simulate(prefix, log_text):
    """Output checks of one simulate; returns (error, digest of the histogram)."""
    m = SIM_LINE.search(log_text)
    if m is None:
        return "no simulate summary line", None
    n3, n4, records = (int(g) for g in m.groups())
    try:
        hist = Path(prefix + ".hist.csv").read_bytes()
        tags = Path(prefix + ".tags.csv").read_bytes()
    except OSError as e:
        return "missing output: %s" % e, None
    lines = hist.decode("utf-8").splitlines()
    if not lines or lines[0] != "tau_ns,counts,normalized":
        return "bad histogram header", None
    try:
        total = sum(int(line.split(",")[1]) for line in lines[1:])
    except (IndexError, ValueError):
        return "unparsable histogram row", None
    if total != records:
        return "histogram counts sum to %d, simulate printed %d records" % (total, records), None
    if not tags.startswith(b"channel,time_ns\n"):
        return "bad time-tag header", None
    rows = tags.count(b"\n") - 1
    per_channel = (tags.count(b"\n3,"), tags.count(b"\n4,"))
    if rows != n3 + n4 or per_channel != (n3, n4):
        return "time tags hold %d rows %s, simulate printed %d + %d clicks" % (rows, per_channel, n3, n4), None
    return None, _sha256(hist)


def check_analyze(prefix, gamma_pure_true):
    """Output checks of one analyze; returns (error, digest, z of gamma_pure)."""
    try:
        raw = Path(prefix + ".results.txt").read_bytes()
    except OSError as e:
        return "missing output: %s" % e, None, None
    vals = {}
    for line in raw.decode("utf-8").splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            vals[key.strip()] = val.strip()
    missing = [k for k in RESULT_KEYS if k not in vals]
    if missing:
        return "results lack %s" % ", ".join(missing), None, None
    nums = {}
    for k in RESULT_KEYS[:-1]:
        try:
            nums[k] = float(vals[k])
        except ValueError:
            return "results %s = %r is not a number" % (k, vals[k]), None, None
        if not math.isfinite(nums[k]):
            return "results %s = %r is not finite" % (k, vals[k]), None, None
    if vals["converged"] != "true":
        return "fit did not converge", None, None
    if not nums["stderr_gamma_pure"] > 0:
        return "stderr_gamma_pure is not positive", None, None
    z = abs(nums["gamma_pure_hat_per_ns"] - gamma_pure_true) / nums["stderr_gamma_pure"]
    return None, _sha256(raw), z


def _config_value(path, key):
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        k, sep, v = line.partition("=")
        if sep and k.strip() == key:
            return v.strip()
    raise SetupError("%s has no %s" % (path, key))


def _rel(path):
    return os.path.relpath(path, ROOT)


def prepare(workload, seed, size, work, deadline):
    """Write the workload's inputs; returns its variants.  fit simulates its
    histogram pairs here, outside the timed loop."""
    out = _rel(work / "op")
    duration = repr(SIZES[size][workload])
    if workload == "hom_parallel":
        args = ["simulate", "--pol", "parallel", "--duration-ns", duration, "--seed", str(seed), "--out", out]
        return [Variant(args, out, "simulate")]
    if workload == "tac_orthogonal":
        cfg = work / "tac.config.txt"
        cfg.write_text("".join("%s = %s\n" % kv for kv in TAC_CONFIG.items()), encoding="utf-8")
        args = ["simulate", "--config", _rel(cfg), "--duration-ns", duration, "--seed", str(seed), "--out", out]
        return [Variant(args, out, "simulate")]

    n = FIT_RUNS[size]
    hists = {}
    for k, pol in enumerate(("parallel", "orthogonal")):
        for i in range(n):
            prefix = _rel(work / ("%s%d" % (pol, i)))
            args = ["simulate", "--pol", pol, "--duration-ns", duration, "--seed", str((2 * seed + k) * n + i),
                    "--out", prefix]
            log = work / "setup.log"
            _, _, rc, _ = spawn([sys.executable, "-m", "homsim.cli"] + args, log, deadline - time.monotonic())
            text = log.read_text(encoding="utf-8", errors="replace")
            err = "exit code %d" % rc if rc else check_simulate(prefix, text)[0]
            if err:
                raise SetupError("set-up simulate %s failed: %s\n%s" % (" ".join(args), err, text[-2000:]))
            Path(prefix + ".tags.csv").unlink()
            hists[pol, i] = prefix + ".hist.csv"
    truth = float(_config_value(work / "parallel0.config.txt", "gamma_pure"))
    # diagonal by diagonal, so any n consecutive pairs use every histogram once
    pairs = [(i, (i + d) % n) for d in range(n) for i in range(n)]
    return [Variant(["analyze", "--par", hists["parallel", i], "--orth", hists["orthogonal", j], "--out", out],
                    out, "analyze", truth) for i, j in pairs]


def _remove_outputs(prefix):
    for suffix in (".hist.csv", ".tags.csv", ".config.txt", ".results.txt", ".diff.csv"):
        Path(prefix + suffix).unlink(missing_ok=True)


def run_op(variants, index, traced, work, deadline):
    v = variants[index]
    probe = work / ("trace.json" if traced else "mark.txt")
    probe.unlink(missing_ok=True)
    _remove_outputs(v.out)
    log = work / "op.log"
    argv = [sys.executable, str(CHILD), "--trace" if traced else "--mark", str(probe), "--"] + v.args
    t0, t1, rc, ru = spawn(argv, log, max(deadline - time.monotonic(), 1.0))
    op = Op(index, traced, rc, t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)
    text = log.read_text(encoding="utf-8", errors="replace")
    if rc != 0:
        op.error = "exit code %d: %s" % (rc, text[-500:].strip())
        return op
    if v.kind == "simulate":
        op.error, op.digest = check_simulate(v.out, text)
    else:
        op.error, op.digest, op.z = check_analyze(v.out, v.gamma_pure_true)
    if op.error:
        return op
    if traced:
        op.layers = json.loads(probe.read_text(encoding="utf-8"))
    else:
        try:
            op.setup_s = float(probe.read_text(encoding="utf-8")) - t0
        except (OSError, ValueError):
            op.error = "no set-up mark"
    return op


def layer_metrics(trace, z):
    """Per-layer metrics of one traced child, from its spans."""
    spans = trace["spans"]
    total, self_time, calls, counts = Counter(), Counter(), Counter(), Counter()
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, _, t0, t1, c) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child_time[i]
        calls[name] += 1
        counts.update(c or {})

    def ratio(num, den):
        return num / den if den else 0.0

    t = total.__getitem__
    m = {
        "emitter.stream_s": t("emitter.stream"),
        "emitter.photons": counts["photons"],
        "interferometer.route_s": t("interferometer.route"),
        "interferometer.self_s": self_time["interferometer.interfere"],
        "interferometer.candidate_pairs_s": t("interferometer.candidate_pairs"),
        "interferometer.candidate_pairs": counts["candidate_pairs"],
        "interferometer.match_s": t("interferometer.match"),
        "interferometer.accepted_pairs": counts["accepted_pairs"],
        "interferometer.delivered_ratio": ratio(counts["accepted_pairs"], counts["q_sum"]),
        "detection.detector_s": t("detection.detector"),
        "detection.clicks_out": counts["clicks_out"],
        "detection.dead_time_s": t("detection.dead_time"),
        "detection.clicks_lost_dead_time": counts["clicks_lost_dead_time"],
        "detection.correlator_s": t("detection.correlator"),
        "detection.records": counts["records"],
        "detection.tac_conversion_ratio": ratio(counts["tac_records"], counts["tac_stops"]),
        "detection.pair_counts_s": t("detection.pair_counts"),
        "pipeline.run_s": t("pipeline.run"),
        "pipeline.self_s": self_time["pipeline.run"],
        "fileio.write_tags_s": t("fileio.write_tags"),
        "fileio.tags_bytes": counts["tags_bytes"],
        "fileio.write_hist_s": t("fileio.write_hist"),
        "fileio.read_hist_s": t("fileio.read_hist"),
        "analysis.fit_s": t("analysis.fit"),
        "analysis.fit_evaluations": counts["fit_evaluations"],
        "analysis.eval_us": ratio(t("analysis.model"), calls["analysis.model"]) * 1e6,
        "analysis.stderr_s": t("analysis.stderr"),
        "coherence.g2_source_s": t("coherence.g2_source"),
        "coherence.convolve_irf_s": t("coherence.convolve_irf"),
        "cli.import_s": trace["import_s"],
        "cli.self_s": self_time["cli.main"],
        "fit_gamma_pure_z": z or 0.0,
    }
    return m, calls, counts


def coverage_error(workload, trace, calls, counts):
    """None when the spans fired exactly where the workload predicts work."""
    if trace["missing"]:
        return "probe bindings missing: %s" % ", ".join(trace["missing"])
    expected = EXPECTED_SPANS[workload]
    silent = sorted(expected - set(calls))
    stray = sorted(set(calls) - expected)
    if silent or stray:
        return "coverage: no calls to %s; unexpected calls to %s" % (silent, stray)
    if workload in LOSES_DEAD_TIME and (counts["clicks_lost_dead_time"] > 0) != LOSES_DEAD_TIME[workload]:
        return "coverage: dead-time losses %d where %s predicted" % (
            counts["clicks_lost_dead_time"], "some" if LOSES_DEAD_TIME[workload] else "none")
    return None


def _ledger_check(ops, workload, seed, code_id):
    """Same code, same seed, same digests: within this run and across runs
    in this checkout (bench/_runs/digests.json)."""
    path = RUNS / "digests.json"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    for op in ops:
        if op.digest is None:
            continue
        key = "%s:%d:%d:%s" % (workload, seed, op.variant, code_id)
        ref = ledger.setdefault(key, op.digest)
        if op.digest != ref and op.error is None:
            op.error = "output digest %s differs from %s, same code and seed" % (op.digest[:12], ref[:12])
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")


def environment():
    files = sorted((ROOT / "src" / "homsim").glob("*.py"))
    blobs = [f.read_bytes() for f in files]
    code = hashlib.sha256()
    for f, b in zip(files, blobs):
        code.update(f.name.encode() + b"\0" + b)
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": commit,
        "src_sha256": code.hexdigest(),
        "src_lines": sum(b.count(b"\n") for b in blobs),
        "src_lines_method": "newline count over src/homsim/*.py, as wc -l src/homsim/*.py",
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload, seed, seconds, trace, size):
    t_start = time.monotonic()
    hard_deadline = t_start + HARD_LIMIT_S
    if not (ROOT / "src" / "homsim" / "cli.py").is_file():
        raise SetupError("no homsim sources under %s" % (ROOT / "src"))
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-seed%d-" % (workload, seed), dir=RUNS))
    try:
        variants = prepare(workload, seed, size, work, hard_deadline)
        bench_setup_s = time.monotonic() - t_start

        ops = []
        deadline = time.monotonic() + seconds
        modes = (True, False) if trace else (False,)
        i = 0
        while len(ops) < MIN_OPS or time.monotonic() < deadline:
            for traced in modes:
                ops.append(run_op(variants, i % len(variants), traced, work, hard_deadline))
            i += 1
        code_id = "%s:%s:numpy-%s" % (size, env["src_sha256"][:16], env["numpy"])
        _ledger_check(ops, workload, seed, code_id)

        per_layer = []
        for op in ops:
            if op.traced and op.ok:
                m, calls, counts = layer_metrics(op.layers, op.z)
                op.error = coverage_error(workload, op.layers, calls, counts)
                op.layers = {"metrics": m, "calls": calls}
                if op.ok:
                    per_layer.append(m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    good = [op for op in ops if op.ok and not op.traced]
    failed = sum(not op.ok for op in ops)
    if not good or (trace and not per_layer):
        raise SetupError("every op failed: %s" % next(op.error for op in ops if not op.ok))

    if trace:
        metrics = {name: _median([m[name] for m in per_layer]) for name, _ in PER_LAYER if name != "trace.overhead_s"}
        traced_wall = [op.wall_s for op in ops if op.traced and op.ok]
        metrics["trace.overhead_s"] = _median(traced_wall) - _median([op.wall_s for op in good])
        units = dict(PER_LAYER)
    else:
        metrics = {name: _median([getattr(op, name) for op in good]) for name, _ in END_TO_END}
        units = dict(END_TO_END)

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "commands": ["PYTHONPATH=src python -m homsim.cli " + " ".join(v.args) for v in variants],
        "environment": env,
        "bench_setup_s": bench_setup_s,
        "digests": sorted({(op.variant, op.digest) for op in ops if op.digest}),
        "fit_gamma_pure_z": sorted({op.z for op in ops if op.z is not None}),
        "ops": [op.__dict__ for op in ops],
        "result": result,
    }
    name = "%s-seed%d-trace%d%s.json" % (workload, seed, trace, "" if size == "full" else "-" + size)
    (RUNS / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, record, RUNS / name


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes: checks the harness, figures not comparable")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    try:
        result, record, path = run(args.workload, args.seed, args.seconds, args.trace, "smoke" if args.smoke else "full")
    except SetupError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 1
    ops = record["ops"]
    print("%s seed %d: %d ops, %d failed; record %s" % (args.workload, args.seed, len(ops), result["failed"], _rel(path)))
    for op in ops:
        if op["error"]:
            print("  failed op: %s" % op["error"])
    for k, m in result["metrics"].items():
        print("  %-34s %.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
