"""Child-process probe: run one homsim CLI command with the benchmark's probes.

    python bench/child.py --mark FILE -- <homsim cli args>
    python bench/child.py --trace FILE -- <homsim cli args>

The package is imported from PYTHONPATH (run.py puts src/ there) and nothing
under src/ is modified: every probe wraps a module-level binding from the
outside, and the binding is the one the caller looks up.  run_replica calls
``homsim.pipeline.apply_detector`` (a name imported into pipeline), so that is
the attribute wrapped, not ``homsim.detection.apply_detector``.

--mark writes the CLOCK_MONOTONIC instant of the first call into the pipeline
(simulate) or into the histogram reader (analyze); everything before it is
set-up.  Only those two bindings are wrapped.

--trace wraps every binding in PROBES, keeps one span per call in memory
(name, parent span, start, end, counters taken from the call's arguments and
result) and writes them as JSON after the command returns.  A binding that
does not exist is listed under "missing" so run.py can fail its coverage check.

CLOCK_MONOTONIC is system-wide on Linux, so run.py can subtract its own spawn
instant from the mark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute looked up by the caller)
PROBES = (
    ("pipeline.run", "homsim.pipeline", "run_replicas"),
    ("emitter.stream", "homsim.pipeline", "simulate_emission_stream"),
    ("interferometer.interfere", "homsim.pipeline", "interfere_stream"),
    ("interferometer.route", "homsim.interferometer", "route"),
    ("interferometer.candidate_pairs", "homsim.interferometer", "_candidate_pairs"),
    ("interferometer.match", "homsim.interferometer", "match_pairs"),
    ("detection.detector", "homsim.pipeline", "apply_detector"),
    ("detection.dead_time", "homsim.detection", "_dead_time_filter"),
    ("detection.correlator", "homsim.pipeline", "tac_mca_histogram"),
    ("detection.pair_counts", "homsim.detection", "pairwise_delay_counts"),
    ("fileio.write_tags", "homsim.fileio", "write_timetags"),
    ("fileio.write_hist", "homsim.fileio", "write_histogram"),
    ("fileio.read_hist", "homsim.fileio", "read_histogram"),
    ("analysis.fit", "homsim.analysis", "fit_hom_model"),
    ("analysis.model", "homsim.analysis", "hom_model_curves"),
    ("analysis.stderr", "homsim.analysis", "_curvature_stderr"),
    ("coherence.g2_source", "homsim.analysis", "g2_source"),
    ("coherence.convolve_irf", "homsim.analysis", "convolve_irf"),
)

# the first call into one of these ends set-up
SETUP_END = (("homsim.pipeline", "run_replicas"), ("homsim.fileio", "read_histogram"))


def _correlator_counts(args, hist):
    records = int(hist.counts.sum())
    if args[1].correlation_mode != "tac":
        return {"records": records}
    return {"records": records, "tac_records": records, "tac_stops": len(args[0][4])}


# counters read at the same boundary as the span, from positional arguments
# and the return value
COUNTERS = {
    "emitter.stream": lambda a, r: {"photons": len(r)},
    "interferometer.candidate_pairs": lambda a, r: {"candidate_pairs": len(r[2]), "q_sum": float(r[2].sum())},
    "interferometer.match": lambda a, r: {"accepted_pairs": int(r[2].sum())},
    "detection.detector": lambda a, r: {"clicks_out": sum(len(t) for t in r.values())},
    "detection.dead_time": lambda a, r: {"clicks_lost_dead_time": len(a[0]) - len(r)},
    "detection.correlator": _correlator_counts,
    "fileio.write_tags": lambda a, r: {"tags_bytes": os.path.getsize(a[0])},
    "analysis.fit": lambda a, r: {"fit_evaluations": r.n_evaluations},
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, counters or None]
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1], time.monotonic(), 0.0, None])
            stack.append(i)
            try:
                ret = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = time.monotonic()
            if count is not None:
                spans[i][4] = count(args, ret)
            return ret

        return traced


def _mark_first(fn, path, done):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        if not done:
            done.append(time.monotonic())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(repr(done[0]))
        return fn(*args, **kwargs)

    return marked


def main(argv):
    if len(argv) < 3 or argv[0] not in ("--mark", "--trace") or argv[2] != "--":
        print("usage: child.py --mark|--trace FILE -- <homsim cli args>", file=sys.stderr)
        return 2
    mode, path, cli_args = argv[0], argv[1], argv[3:]

    t0 = time.monotonic()
    cli = importlib.import_module("homsim.cli")
    import_s = time.monotonic() - t0

    if mode == "--mark":
        done = []
        for mod, attr in SETUP_END:
            m = importlib.import_module(mod)
            setattr(m, attr, _mark_first(getattr(m, attr), path, done))
        return cli.main(cli_args)

    tracer = Tracer()
    missing = []
    for name, mod, attr in PROBES:
        m = importlib.import_module(mod)
        if hasattr(m, attr):
            setattr(m, attr, tracer.wrap(name, getattr(m, attr)))
        else:
            missing.append("%s.%s" % (mod, attr))
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
