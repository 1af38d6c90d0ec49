"""Flat key=value run configs and the CSV tables.

All text I/O is LF-terminated, comma-separated with '.' decimals, one header
row per CSV, written by write_table (the time tags by their own faster
writer) and read by read_table.  Floats are written with repr so a config
echoed after a run parses back to bit-identical parameters.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .coherence import INSTANTANEOUS, uniform_step
from .histogram import BLOCK, CorrelationHistogram
from .pipeline import RunConfig, default_run_config

# The run-config schema, one row per key in echo order: where the value
# lives in a RunConfig (a digit indexes a tuple field), and the word that
# stands for INSTANTANEOUS ("instantaneous") in the text.
CONFIG_FIELDS = {
    "gamma_spon": ("emitter.gamma_spon", None),
    "gamma_pure": ("emitter.gamma_pure", None),
    "w_p": ("emitter.w_p", None),
    "gamma_vib": ("emitter.gamma_vib", "instantaneous"),
    "delta_t": ("interferometer.delta_t", None),
    "theta": ("interferometer.bs.theta", None),
    "mode_match": ("interferometer.bs.mode_match", None),
    "pol_mode": ("interferometer.pol_mode", None),
    "pairing": ("interferometer.pairing", None),
    "irf_fwhm_pair": ("detection.irf_fwhm_pair", None),
    "efficiency_3": ("detection.efficiency.0", None),
    "efficiency_4": ("detection.efficiency.1", None),
    "dead_time_3": ("detection.dead_time.0", None),
    "dead_time_4": ("detection.dead_time.1", None),
    "background_fraction": ("detection.background_fraction", None),
    "tau_min": ("detection.mca_range.0", None),
    "tau_max": ("detection.mca_range.1", None),
    "bin_width": ("detection.bin_width", None),
    "correlation_mode": ("detection.correlation_mode", None),
    "duration": ("duration", None),
    "seed": ("seed", None),
    "norm_lo": ("norm_region.0", None),
    "norm_hi": ("norm_region.1", None),
}

_SENTINEL_VALUES = {"instantaneous": INSTANTANEOUS}


def _field(obj, path):
    for step in path.split("."):
        obj = obj[int(step)] if step.isdigit() else getattr(obj, step)
    return obj


def _encode(value, sentinel):
    if sentinel is not None and value == _SENTINEL_VALUES[sentinel]:
        return sentinel
    return value if isinstance(value, str) else repr(value)


def _decode(text, default, sentinel):
    """Parse text with the type of the field's default."""
    if sentinel is not None and text == sentinel:
        return _SENTINEL_VALUES[sentinel]
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
    return "".join(
        "%s = %s\n" % (key, _encode(_field(rc, path), sentinel)) for key, (path, sentinel) in CONFIG_FIELDS.items()
    )


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
        path, sentinel = CONFIG_FIELDS[key]
        values[path] = _decode(text, _field(base, path), sentinel)
    return _replace(base, values)


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_run_config(parse_config_text(fh.read()))


def write_config(path, rc: RunConfig):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(rc))


_POW10 = np.array([float(10**i) for i in range(17)])  # all exact: 5**16 < 2**53
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# the four ASCII digits of 0..9999, one uint32 each
_DIGITS4 = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
_DIGITS4 = (_DIGITS4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_MANTISSA = (1 << 52) - 1
_MARGIN = 2.0**-40


def _split(a):
    """Veltkamp's split of a float64 into two halves of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scale(x, k):
    """x * 10**k exactly, as an int64 floor and a fraction in [0, 1), by
    Dekker's two-product: the rounded product plus its exact error."""
    b = _POW10[k]
    prod = x * b
    (xh, xl), (bh, bl) = _split(x), _split(b)
    err = ((xh * bh - prod) + xh * bl + xl * bh) + xl * bl
    floor = np.floor(err)
    return prod.astype(np.int64) + floor.astype(np.int64), err - floor


def _shortest_digits(x):
    """For x in [1, 1e15): repr's digits of x as a 17-digit integer padded
    with zeros, how many of them precede the decimal point, how many there
    are, and whether the row is certified."""
    # the decade, exactly: _POW10[16 - k] <= x < _POW10[17 - k], so y lies in [1e16, 1e17)
    k = 16 - (np.searchsorted(_POW10, x, side="right") - 1)
    y, frac = _scale(x, k)
    half = np.spacing(x) * 0.5 * _POW10[k]  # exact: a power of two times 10**k
    ok = (x.view(np.int64) & _MANTISSA) != 0
    count = np.full(len(x), 17)
    live = np.flatnonzero(ok)
    for p in range(16, 0, -1):
        unit = _POW10_INT[17 - p]
        yl, fl = y[live], frac[live]
        rest = yl - yl // unit * unit
        below, above = rest + fl, (unit - rest) - fl
        gap = np.minimum(below, above) - half[live]
        inside = gap < -_MARGIN
        unsure = (np.abs(gap) <= _MARGIN) | (inside & (below == above))
        ok[live[unsure]] = False
        live = live[inside & ~unsure]
        if not len(live):
            break
        count[live] = p
    ok &= (count < 17) | (frac != 0.5)
    unit = _POW10_INT[17 - count]
    q = y // unit
    rest = y - q * unit
    digits = (q + ((unit - rest) - frac < rest + frac)) * unit
    return digits, 17 - k, count, ok


def _tag_rows(k, t):
    """The rows b'%d,%r\\n' % (3 + k, t) of one sorted block, as one buffer."""
    fast = np.flatnonzero((t >= 1.0) & (t < 1e15))
    digits, decpt, count, ok = _shortest_digits(t[fast])
    good = fast[ok]
    digits, decpt, count = digits[ok], decpt[ok], count[ok]
    top = digits // _POW10_INT[16]
    rest = digits - top * _POW10_INT[16]
    hi = rest // _POW10_INT[8]
    lo = rest - hi * _POW10_INT[8]
    hi_a, lo_a = hi // 10_000, lo // 10_000
    quads = np.stack([top, hi_a, hi - hi_a * 10_000, lo_a, lo - lo_a * 10_000], axis=1)
    text = _DIGITS4[quads].view(np.uint8)[:, 3:]  # "000" then the 17 digits
    rows = np.empty((len(good), 21), dtype=np.uint8)
    rows[:, 0] = k[good] + ord("3")
    rows[:, 1] = ord(",")
    # the times are sorted, so the rows of each decpt form one run
    ends = np.searchsorted(decpt, np.arange(1, 17))
    for d in range(1, 16):
        run = slice(ends[d - 1], ends[d])
        rows[run, 2 : 2 + d] = text[run, :d]
        rows[run, 2 + d] = ord(".")
        rows[run, 3 + d : 20] = text[run, d:]
    length = (decpt + np.maximum(count - decpt, 1) + 4).astype(np.uint8)
    rows[np.arange(len(good)), length - 1] = ord("\n")
    data = rows[np.arange(21, dtype=np.uint8) < length[:, None]].tobytes()
    # the rows the fast path did not certify go in with repr, in place
    certified = np.zeros(len(t), dtype=bool)
    certified[good] = True
    slow = np.flatnonzero(~certified)
    cuts = np.concatenate([[0], np.cumsum(length, dtype=np.int64)])[np.searchsorted(good, slow)]
    parts, prev = [], 0
    for i, cut in zip(slow.tolist(), cuts.tolist()):
        parts += [data[prev:cut], b"%d,%r\n" % (3 + k[i], float(t[i]))]
        prev = cut
    return b"".join(parts + [data[prev:]])


def write_timetags(path, channels):
    """Merged click list, 'channel,time_ns', sorted by time.

    Each row is exactly b'%d,%r' % (channel, time).  repr gives the
    shortest digits that read back to the same float, so the tags read
    back bit-identical.  numpy formats the rows BLOCK at a time, and
    the result is exact: for x in [1, 1e15), y = x * 10**k lies in
    [1e16, 1e17) with k <= 16, so 10**k is exact and Dekker's two-product
    gives y exactly.  x's rounding interval is y +- spacing(x)/2 * 10**k,
    also exact.  The 17-digit rounding of y always lies inside it; p digits
    read back to x when the nearest multiple of 10**(17 - p) does, and
    repr's digits are that multiple for the smallest such p.  A row falls
    back to repr when x lies outside [1, 1e15), when its mantissa is a
    power of two (the interval is lopsided), when a distance lies within
    2**-40 of the interval's edge (the edge reads back by half-even rules),
    or when two candidates tie.
    """
    k = np.concatenate([np.full(len(channels[c]), i, dtype=np.int8) for i, c in enumerate((3, 4))])
    t = np.concatenate([np.asarray(channels[c], dtype=float) for c in (3, 4)])
    order = np.argsort(t, kind="stable")
    k, t = k[order], t[order]
    del order  # 8 bytes per tag that the write no longer needs
    with open(path, "wb") as fh:
        fh.write(b"channel,time_ns\n")
        for s in range(0, len(t), BLOCK):
            fh.write(_tag_rows(k[s : s + BLOCK], t[s : s + BLOCK]))


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
