"""Flat key=value run configs and the CSV formats.

All text I/O is LF-terminated, comma-separated with '.' decimals, one header
row per CSV.  Floats are written with repr so a config echoed after a run
parses back to bit-identical parameters.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from .coherence import INSTANTANEOUS, uniform_step
from .histogram import CorrelationHistogram
from .pipeline import RunConfig, default_run_config

# The run-config schema, one row per key in echo order: where the value
# lives in a RunConfig (a digit indexes a tuple field), and the word that
# stands for None ("auto") or INSTANTANEOUS ("instantaneous") in the text.
CONFIG_FIELDS = {
    "gamma_spon": ("emitter.gamma_spon", None),
    "gamma_pure": ("emitter.gamma_pure", None),
    "w_p": ("emitter.w_p", None),
    "gamma_vib": ("emitter.gamma_vib", "instantaneous"),
    "delta_t": ("interferometer.delta_t", None),
    "theta": ("interferometer.bs.theta", None),
    "mode_match": ("interferometer.bs.mode_match", None),
    "pol_mode": ("interferometer.pol_mode", None),
    "arm_prob_long": ("interferometer.arm_prob_long", None),
    "pairing_window": ("interferometer.pairing_window", "auto"),
    "pairing": ("interferometer.pairing", None),
    "irf_fwhm_pair": ("detection.irf_fwhm_pair", None),
    "efficiency_3": ("detection.efficiency.0", None),
    "efficiency_4": ("detection.efficiency.1", None),
    "dead_time_3": ("detection.dead_time.0", None),
    "dead_time_4": ("detection.dead_time.1", None),
    "background_fraction": ("detection.background_fraction", None),
    "electronic_delay": ("detection.electronic_delay", "auto"),
    "tau_min": ("detection.mca_range.0", None),
    "tau_max": ("detection.mca_range.1", None),
    "bin_width": ("detection.bin_width", None),
    "correlation_mode": ("detection.correlation_mode", None),
    "duration": ("duration", None),
    "seed": ("seed", None),
    "replicas": ("replicas", None),
    "norm_lo": ("norm_region.0", None),
    "norm_hi": ("norm_region.1", None),
}

_SENTINEL_VALUES = {"auto": None, "instantaneous": INSTANTANEOUS}


def _field(obj, path):
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


def _encode(value, sentinel):
    if sentinel is not None and value == _SENTINEL_VALUES[sentinel]:
        return sentinel
    return value if isinstance(value, str) else repr(value)


def _decode(text, default, sentinel):
    """Parse text with the type of the field's default (float if None)."""
    if sentinel is not None and text == sentinel:
        return _SENTINEL_VALUES[sentinel]
    return type(default)(text) if isinstance(default, (str, int)) else float(text)


def _replace(obj, values):
    """obj with the fields at the given paths replaced.  Each changed tuple
    or dataclass is built once, after its members, so its validation sees
    all new values together (tau_min and tau_max, for instance)."""
    groups = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    new = {}
    for head, sub in groups.items():
        new[head] = sub[""] if "" in sub else _replace(_field(obj, head), sub)
    if isinstance(obj, tuple):
        return tuple(new.get(str(i), v) for i, v in enumerate(obj))
    return dataclasses.replace(obj, **new)


def format_config(rc: RunConfig) -> str:
    return "".join(
        "%s = %s\n" % (key, _encode(_field(rc, path), sentinel)) for key, (path, sentinel) in CONFIG_FIELDS.items()
    )


def parse_config_text(text: str) -> dict:
    """key = value lines into a raw string mapping; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_FIELDS:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        out[key] = val
    return out


def build_run_config(mapping: dict) -> RunConfig:
    """Apply a raw mapping on top of the defaults.  Every value is decoded
    before any dataclass is built."""
    base = default_run_config()
    values = {}
    for key, text in mapping.items():
        if key not in CONFIG_FIELDS:
            raise ValueError("unknown config key %r" % key)
        path, sentinel = CONFIG_FIELDS[key]
        values[path] = _decode(text, _field(base, path), sentinel)
    return _replace(base, values)


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_run_config(parse_config_text(fh.read()))


def write_config(path, rc: RunConfig):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(rc))


# rows per write in write_timetags: one joined string per block keeps the
# writer's memory small next to the click arrays
TAG_BLOCK = 65_536


def write_timetags(path, channels):
    """Merged click list, 'channel,time_ns', sorted by time.  Times are
    written with repr, so they read back bit-identical."""
    labels = np.array(["3,", "4,"], dtype=object)
    k = np.concatenate([np.full(len(channels[c]), i, dtype=np.int8) for i, c in enumerate((3, 4))])
    t = np.concatenate([np.asarray(channels[c], dtype=float) for c in (3, 4)])
    order = np.argsort(t, kind="stable")
    k, t = k[order], t[order]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("channel,time_ns\n")
        for s in range(0, len(t), TAG_BLOCK):
            # the repr of a list of floats is their reprs joined by ", ",
            # made in one call instead of one format per row
            reprs = repr(t[s : s + TAG_BLOCK].tolist())[1:-1].split(", ")
            rows = map(operator.add, labels[k[s : s + TAG_BLOCK]].tolist(), reprs)
            fh.write("\n".join(rows) + "\n")


def read_timetags(path):
    chs, ts = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "channel,time_ns":
            raise ValueError("unexpected time-tag header %r" % header)
        for line in fh:
            c, t = line.strip().split(",")
            chs.append(int(c))
            ts.append(float(t))
    chs = np.asarray(chs, dtype=np.int64)
    ts = np.asarray(ts, dtype=float)
    return {c: np.sort(ts[chs == c]) for c in (3, 4)}


def write_histogram(path, hist: CorrelationHistogram):
    centers = hist.bin_centers
    norm = hist.normalized
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau_ns,counts,normalized\n")
        for i in range(len(centers)):
            nv = "" if norm is None else repr(float(norm[i]))
            fh.write("%s,%d,%s\n" % (repr(float(centers[i])), int(hist.counts[i]), nv))


def read_histogram(path) -> CorrelationHistogram:
    centers, counts, norm = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "tau_ns,counts,normalized":
            raise ValueError("unexpected histogram header %r" % header)
        for line in fh:
            c, n, v = line.strip().split(",")
            centers.append(float(c))
            counts.append(int(n))
            norm.append(float(v) if v else np.nan)
    centers = np.asarray(centers)
    counts = np.asarray(counts, dtype=np.int64)
    if len(centers) < 2:
        raise ValueError("histogram needs at least two bins")
    width = uniform_step(centers)
    edges = np.concatenate([centers - width / 2, [centers[-1] + width / 2]])
    hist = CorrelationHistogram(edges, counts)
    norm = np.asarray(norm)
    if not np.all(np.isnan(norm)):
        hist.normalized = norm
        nz = (counts > 0) & ~np.isnan(norm) & (norm != 0)
        if not np.any(nz):
            raise ValueError("normalized column has no bin with counts to fix its constant")
        i = int(np.flatnonzero(nz)[0])
        hist.normalization_constant = float(counts[i] / norm[i])
    return hist


def write_difference(path, dc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau_ns,value,sigma\n")
        for i in range(len(dc.tau)):
            fh.write(
                "%s,%s,%s\n"
                % (repr(float(dc.tau[i])), repr(float(dc.value[i])), repr(float(dc.sigma[i])))
            )


RESULT_KEYS = (
    "gamma_pure_hat_per_ns", "w_p_hat_per_ns", "contrast_hat", "background_hat",
    "t2_hat_ns", "v0_hat",
    "stderr_gamma_pure", "stderr_w_p", "stderr_contrast", "stderr_background",
    "rss", "converged",
)


def write_results(path, fit):
    vals = {
        "gamma_pure_hat_per_ns": repr(fit.gamma_pure_hat),
        "w_p_hat_per_ns": repr(fit.w_p_hat),
        "contrast_hat": repr(fit.contrast_hat),
        "background_hat": repr(fit.background_hat),
        "t2_hat_ns": repr(fit.t2_hat),
        "v0_hat": repr(fit.v0_hat),
        "stderr_gamma_pure": repr(fit.stderr_gamma_pure),
        "stderr_w_p": repr(fit.stderr_w_p),
        "stderr_contrast": repr(fit.stderr_contrast),
        "stderr_background": repr(fit.stderr_background),
        "rss": repr(fit.rss),
        "converged": "true" if fit.converged else "false",
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for k in RESULT_KEYS:
            fh.write("%s = %s\n" % (k, vals[k]))
