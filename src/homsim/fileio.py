"""Flat key=value run configs and the CSV tables.

All text I/O is LF-terminated, comma-separated with '.' decimals, one header
row per CSV, written by write_table (the time tags, on a 1-ps grid, with
three decimals by their own faster writer) and read by read_table.  Floats
are written with repr so a config echoed after a run parses back to
bit-identical parameters.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .coherence import INSTANTANEOUS, uniform_step
from .detection import CHANNELS, TICKS_PER_NS
from .histogram import BLOCK, CorrelationHistogram
from .pipeline import RunConfig, default_run_config

# The run-config schema, one row per key in echo order: where the value
# lives in a RunConfig (a digit indexes a tuple field).  In the text, the
# word "instantaneous" stands for INSTANTANEOUS in any float field.
CONFIG_FIELDS = {
    "gamma_spon": "emitter.gamma_spon",
    "gamma_pure": "emitter.gamma_pure",
    "w_p": "emitter.w_p",
    "gamma_vib": "emitter.gamma_vib",
    "delta_t": "interferometer.delta_t",
    "theta": "interferometer.bs.theta",
    "mode_match": "interferometer.bs.mode_match",
    "pol_mode": "interferometer.pol_mode",
    "pairing": "interferometer.pairing",
    "irf_fwhm_pair": "detection.irf_fwhm_pair",
    "efficiency_3": "detection.efficiency.0",
    "efficiency_4": "detection.efficiency.1",
    "dead_time_3": "detection.dead_time.0",
    "dead_time_4": "detection.dead_time.1",
    "background_fraction": "detection.background_fraction",
    "tau_min": "detection.mca_range.0",
    "tau_max": "detection.mca_range.1",
    "bin_width": "detection.bin_width",
    "correlation_mode": "detection.correlation_mode",
    "duration": "duration",
    "seed": "seed",
    "norm_lo": "norm_region.0",
    "norm_hi": "norm_region.1",
}


def _field(obj, path):
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


def _encode(value):
    if value == INSTANTANEOUS:
        return "instantaneous"
    return value if isinstance(value, str) else repr(value)


def _decode(text, default):
    """Parse text with the type of the field's default."""
    if text == "instantaneous" and isinstance(default, float):
        return INSTANTANEOUS
    return type(default)(text)


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
    return "".join("%s = %s\n" % (key, _encode(_field(rc, path))) for key, path in CONFIG_FIELDS.items())


def parse_config_text(text: str) -> dict:
    """key = value lines into a raw string mapping; '#' starts a comment.
    A key given twice is a ValueError naming both lines."""
    out, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_FIELDS:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        if key in seen:
            raise ValueError("line %d: key %r already set on line %d" % (lineno, key, seen[key]))
        seen[key] = lineno
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
        path = CONFIG_FIELDS[key]
        values[path] = _decode(text, _field(base, path))
    return _replace(base, values)


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_run_config(parse_config_text(fh.read()))


def write_config(path, rc: RunConfig):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(rc))


# the four ASCII digits of 0..9999, one uint32 each
_DIGITS4 = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
_DIGITS4 = (_DIGITS4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def write_timetags(path, channels):
    """Merged click list, 'channel,time_ns', stably sorted by time.

    Each row is b'%d,%.3f' % (channel, time) for a time on the tagger's 1-ps
    grid (detection.TICKS_PER_NS), which reads back bit-identical.  Below
    2**50 ps (19 minutes) doubles lie at most 1/4 ps apart, so rint(t * 1e3)
    is its count k; a time not finite, off the grid or not below 2**50 ps is
    a ValueError before the file is opened.  With each channel in time order
    (sorted here if not), a second-channel click's row is its index plus the
    earlier or equal first-channel clicks: the rows merge a block at a time.
    """
    t_a, t_b = (np.asarray(channels[c], dtype=float) for c in CHANNELS)
    bad = []
    for blk in (t[s : s + BLOCK] for t in (t_a, t_b) for s in range(0, len(t), BLOCK)):
        k = np.rint(blk * TICKS_PER_NS)
        bad.extend(blk[~((np.abs(k) < 2.0**50) & (k / TICKS_PER_NS == blk))])
    if bad:  # the earliest bad time (np.sort puts NaN last)
        raise ValueError("time tag %r ns is not on the 1-ps grid below 2**50 ps" % float(np.sort(bad)[0]))
    t_a, t_b = (t if np.all(t[1:] >= t[:-1]) else np.sort(t, kind="stable") for t in (t_a, t_b))
    from_b = np.zeros(len(t_a) + len(t_b), dtype=bool)
    from_b[np.searchsorted(t_a, t_b, side="right") + np.arange(len(t_b))] = True
    with open(path, "wb") as fh:
        fh.write(b"channel,time_ns\n")
        # 24 columns a row: channel, ",", sign, q = |k| // 1000 in 16 digits,
        # "." over r = |k| % 1000's leading zero, r, newline; the mask keeps
        # a negative time's sign and q from its first nonzero digit or units
        i_b = 0  # second-channel rows before this block
        for s in range(0, len(from_b), BLOCK):
            b, a = np.flatnonzero(from_b[s : s + BLOCK]), np.flatnonzero(~from_b[s : s + BLOCK])
            t = np.empty(len(a) + len(b))
            t[b], t[a] = t_b[i_b : i_b + len(b)], t_a[s - i_b : s - i_b + len(a)]
            i_b += len(b)
            k = np.rint(t * TICKS_PER_NS)
            q, r = np.divmod(np.abs(k).astype(np.int64), 1000)
            rows = np.empty((len(q), 24), dtype=np.uint8)
            rows[:, 0] = CHANNELS[0] + ord("0")
            rows[b, 0] = CHANNELS[1] + ord("0")
            rows[:, 1:3] = np.frombuffer(b",-", dtype=np.uint8)
            groups = np.stack([q // 10**12, q // 10**8 % 10**4, q // 10**4 % 10**4, q % 10**4, r], axis=1)
            rows[:, 3:23] = _DIGITS4[groups].view(np.uint8)
            rows[:, 19], rows[:, 23] = ord("."), ord("\n")
            keep = np.ones((len(q), 24), dtype=bool)
            keep[:, 2] = np.signbit(k)
            keep[:, 3:18] = np.logical_or.accumulate(rows[:, 3:18] != ord("0"), axis=1)
            fh.write(rows[keep].tobytes())


def write_table(fh, header, columns):
    """The header row, then row i of every column (an array): the repr of its
    tolist() value, so floats read back bit-identical, or empty for a None
    column.  Rows are formatted and written BLOCK at a time."""
    fh.write(header + "\n")
    for s in range(0, max(len(c) for c in columns if c is not None), BLOCK):
        cells = [[""] * BLOCK if c is None else [repr(v) for v in c[s : s + BLOCK].tolist()] for c in columns]
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_table(path, header, dtype):
    """The rows under the header (checked with whitespace stripped), blank
    lines skipped, as a 1-d structured array; a ragged row or bad cell is a
    ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        got = fh.readline().strip()
        if got != header:
            raise ValueError("unexpected header %r, expected %r" % (got, header))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header alone is an empty table
            return np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)


def read_timetags(path):
    rows = read_table(path, "channel,time_ns", [("channel", np.int64), ("time", np.float64)])
    chs, ts = rows["channel"], rows["time"]
    bad = chs[(chs != 3) & (chs != 4)]
    if len(bad):
        raise ValueError("channel %d is not 3 or 4" % bad[0])
    return {c: np.sort(ts[chs == c]) for c in (3, 4)}


def write_histogram(path, hist: CorrelationHistogram):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_table(fh, "tau_ns,counts,normalized", (hist.bin_centers, hist.counts, hist.normalized))


def read_histogram(path) -> CorrelationHistogram:
    # the normalized cells stay text: the column is blank when unnormalized
    rows = read_table(path, "tau_ns,counts,normalized", [("tau", float), ("counts", np.int64), ("norm", object)])
    if len(rows) < 2:
        raise ValueError("histogram needs at least two bins")
    centers, counts, norm = rows["tau"], rows["counts"], rows["norm"]
    width = uniform_step(centers)
    edges = np.concatenate([centers - width / 2, [centers[-1] + width / 2]])
    hist = CorrelationHistogram(edges, counts)
    if np.all(norm == ""):
        return hist
    norm = np.where(norm == "", "nan", norm).astype(float)
    if not np.all(np.isfinite(norm)):
        raise ValueError("normalized column must be all blank or all finite")
    nz = (counts > 0) & (norm != 0)
    if not np.any(nz):
        raise ValueError("normalized column has no bin with counts to fix its constant")
    i = int(np.flatnonzero(nz)[0])
    hist.normalized = norm
    hist.normalization_constant = float(counts[i] / norm[i])
    return hist


def write_difference(path, dc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_table(fh, "tau_ns,value,sigma", (dc.tau, dc.value, dc.sigma))


# the fit results in file order: (key, HomFitResult field)
RESULT_FIELDS = (
    ("gamma_pure_hat_per_ns", "gamma_pure_hat"), ("w_p_hat_per_ns", "w_p_hat"), ("contrast_hat", "contrast_hat"),
    ("background_hat", "background_hat"), ("t2_hat_ns", "t2_hat"), ("v0_hat", "v0_hat"),
    ("stderr_gamma_pure", "stderr_gamma_pure"), ("stderr_w_p", "stderr_w_p"), ("stderr_contrast", "stderr_contrast"),
    ("stderr_background", "stderr_background"), ("rss", "rss"), ("converged", "converged"),
)
RESULT_KEYS = tuple(key for key, _ in RESULT_FIELDS)


def write_results(path, fit):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, name in RESULT_FIELDS:
            value = getattr(fit, name)
            text = ("true" if value else "false") if name == "converged" else repr(value)
            fh.write("%s = %s\n" % (key, text))
