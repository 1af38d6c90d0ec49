"""Flat-text persistence: configs, time tags, histograms, fit results."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import CorrelationHistogram, HomFitResult, INSTANTANEOUS, default_run_config, make_bin_edges, normalize
from homsim.fileio import (
    CONFIG_FIELDS,
    RESULT_KEYS,
    build_run_config,
    format_config,
    parse_config_text,
    read_config,
    read_histogram,
    read_timetags,
    write_config,
    write_histogram,
    write_results,
    write_table,
    write_timetags,
)
from homsim.histogram import BLOCK


def test_config_text_roundtrip():
    rc = default_run_config()
    text = format_config(rc)
    rc2 = build_run_config(parse_config_text(text))
    assert rc2 == rc
    assert format_config(rc2) == text  # byte-identical echo


def test_config_defaults_and_overrides():
    assert build_run_config({}) == default_run_config()
    rc = build_run_config({"seed": "42", "pol_mode": "orthogonal", "duration": "2e5"})
    assert rc.seed == 42
    assert rc.interferometer.pol_mode == "orthogonal"
    assert rc.duration == 2e5
    assert rc.emitter == default_run_config().emitter


def test_config_sentinels():
    rc = build_run_config({"gamma_vib": "instantaneous"})
    assert rc.emitter.gamma_vib == INSTANTANEOUS
    assert parse_config_text(format_config(rc))["gamma_vib"] == "instantaneous"
    rc = build_run_config({"gamma_vib": "2.5"})
    assert rc.emitter.gamma_vib == 2.5


# for every key: a value other than the default, spelled as format_config
# echoes it, and the RunConfig field it must land in
NON_DEFAULT = {
    "gamma_spon": ("0.5", lambda rc: rc.emitter.gamma_spon),
    "gamma_pure": ("0.3", lambda rc: rc.emitter.gamma_pure),
    "w_p": ("2.0", lambda rc: rc.emitter.w_p),
    "gamma_vib": ("4.0", lambda rc: rc.emitter.gamma_vib),
    "delta_t": ("3.0", lambda rc: rc.interferometer.delta_t),
    "theta": ("0.9", lambda rc: rc.interferometer.bs.theta),
    "mode_match": ("0.5", lambda rc: rc.interferometer.bs.mode_match),
    "pol_mode": ("orthogonal", lambda rc: rc.interferometer.pol_mode),
    "pairing": ("none", lambda rc: rc.interferometer.pairing),
    "irf_fwhm_pair": ("0.3", lambda rc: rc.detection.irf_fwhm_pair),
    "efficiency_3": ("0.3", lambda rc: rc.detection.efficiency[0]),
    "efficiency_4": ("0.4", lambda rc: rc.detection.efficiency[1]),
    "dead_time_3": ("22.0", lambda rc: rc.detection.dead_time[0]),
    "dead_time_4": ("11.0", lambda rc: rc.detection.dead_time[1]),
    "background_fraction": ("0.1", lambda rc: rc.detection.background_fraction),
    "tau_min": ("-20.79", lambda rc: rc.detection.mca_range[0]),
    "tau_max": ("20.79", lambda rc: rc.detection.mca_range[1]),
    "bin_width": ("0.42", lambda rc: rc.detection.bin_width),
    "correlation_mode": ("tac", lambda rc: rc.detection.correlation_mode),
    "duration": ("200000.0", lambda rc: rc.duration),
    "seed": ("7", lambda rc: rc.seed),
    "norm_lo": ("10.0", lambda rc: rc.norm_region[0]),
    "norm_hi": ("20.0", lambda rc: rc.norm_region[1]),
}


@pytest.mark.parametrize("key", list(CONFIG_FIELDS))
def test_config_field_roundtrip(key):
    value, where = NON_DEFAULT[key]
    rc = build_run_config({key: value})
    assert str(where(rc)) == value
    assert where(default_run_config()) != where(rc)
    text = format_config(rc)
    assert parse_config_text(text)[key] == value
    assert build_run_config(parse_config_text(text)) == rc


def test_config_rejects_non_finite():
    for key in ("gamma_spon", "gamma_pure", "w_p", "delta_t", "irf_fwhm_pair",
                "dead_time_3", "tau_max", "bin_width", "duration", "norm_hi"):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError):
                build_run_config({key: bad})
    # an infinitely fast vibronic stage is legal, spelled either way
    assert build_run_config({"gamma_vib": "inf"}).emitter.gamma_vib == INSTANTANEOUS
    with pytest.raises(ValueError):
        build_run_config({"gamma_vib": "nan"})


def _num(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


def _num_or(word, lo, hi):
    return st.one_of(st.just(word), _num(lo, hi))


@st.composite
def config_text(draw):
    """Text for every config key, spelled as format_config echoes it."""
    out = draw(st.fixed_dictionaries({
        "gamma_spon": _num(1e-3, 1e3),
        "gamma_pure": _num(0.0, 1e3),
        "w_p": _num(1e-3, 1e3),
        "gamma_vib": _num_or("instantaneous", 1e-3, 1e3),
        "delta_t": _num(0.0, 1e3),
        "theta": _num(0.0, math.pi / 2),
        "mode_match": _num(0.0, 1.0),
        "pol_mode": st.sampled_from(["parallel", "orthogonal"]),
        "pairing": st.sampled_from(["weighted", "none"]),
        "irf_fwhm_pair": _num(0.0, 10.0),
        "efficiency_3": _num(0.0, 1.0),
        "efficiency_4": _num(0.0, 1.0),
        "dead_time_3": _num(0.0, 1e3),
        "dead_time_4": _num(0.0, 1e3),
        "background_fraction": _num(0.0, 1.0, exclude_max=True),
        "correlation_mode": st.sampled_from(["tac", "full"]),
        "duration": _num(1e-3, 1e12),
        "seed": st.integers(0, 2**32).map(repr),
    }))
    # tau_max lies a whole number of bins above tau_min
    width, tau_min = draw(st.floats(1e-3, 10.0)), draw(st.floats(-100.0, 100.0))
    tau_max = tau_min + draw(st.integers(1, 1000)) * width
    out.update(tau_min=repr(tau_min), tau_max=repr(tau_max), bin_width=repr(width))
    # 0 <= norm_lo < norm_hi around the |center| of one bin of that axis
    edges = make_bin_edges(tau_min, tau_max, width)
    center = abs(0.5 * (edges[:-1] + edges[1:])[draw(st.integers(0, len(edges) - 2))])
    norm_lo = draw(st.floats(0.0, center))
    norm_hi = draw(st.floats(center, center + 1e3).filter(lambda v: v > norm_lo))
    out.update(norm_lo=repr(norm_lo), norm_hi=repr(norm_hi))
    return out


# keys whose value must be a finite number (gamma_vib = inf means instantaneous)
FINITE_ONLY = (
    "gamma_spon", "gamma_pure", "w_p", "delta_t", "theta", "mode_match",
    "irf_fwhm_pair", "efficiency_3", "efficiency_4", "dead_time_3", "dead_time_4", "background_fraction",
    "tau_min", "tau_max", "bin_width", "duration", "norm_lo", "norm_hi",
)


@settings(max_examples=200, deadline=None)
@given(mapping=config_text(), bad_key=st.sampled_from(FINITE_ONLY), bad=st.sampled_from(["nan", "inf", "-inf"]))
def test_config_roundtrip_generated(mapping, bad_key, bad):
    assert set(mapping) == set(CONFIG_FIELDS)
    rc = build_run_config(mapping)
    text = format_config(rc)
    # every value lands in its own field and echoes as it was written
    assert parse_config_text(text) == mapping
    rc2 = build_run_config(parse_config_text(text))
    assert rc2 == rc
    assert format_config(rc2) == text
    with pytest.raises(ValueError):
        build_run_config({**mapping, bad_key: bad})
    with pytest.raises(ValueError):  # norm_lo >= norm_hi
        build_run_config({**mapping, "norm_lo": mapping["norm_hi"], "norm_hi": mapping["norm_lo"]})


def test_config_parse_rules():
    got = parse_config_text("# full line comment\n\nseed = 7 # trailing comment\n")
    assert got == {"seed": "7"}
    with pytest.raises(ValueError):
        parse_config_text("pump_rate = 2.0\n")  # unknown key
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    # a key given twice is an error naming both lines, not a silent override
    with pytest.raises(ValueError, match=r"line 3: key 'gamma_pure' already set on line 1"):
        parse_config_text("gamma_pure = 0.2\nseed = 7\ngamma_pure = 0.4\n")
    with pytest.raises(ValueError):
        build_run_config({"pump_rate": "2.0"})
    # tau_min and tau_max are applied together, so a shifted range is legal
    shifted = {"tau_min": "30.0", "tau_max": "40.0", "bin_width": "0.5", "norm_lo": "32.0", "norm_hi": "38.0"}
    rc = build_run_config(shifted)
    assert rc.detection.mca_range == (30.0, 40.0)
    # a norm region that normalize would reject is rejected here, before a run
    for lo, hi in (("30.0", "20.0"), ("-1.0", "20.0"), ("12.0", "12.0"), ("12.0", "24.0")):
        with pytest.raises(ValueError):
            build_run_config({**shifted, "norm_lo": lo, "norm_hi": hi})


def test_config_file_roundtrip(tmp_path):
    rc = default_run_config()
    path = tmp_path / "run.config.txt"
    write_config(path, rc)
    assert read_config(path) == rc


def test_timetags_roundtrip(tmp_path):
    channels = {3: np.array([0.5, 2.0]), 4: np.array([1.0])}
    path = tmp_path / "tags.csv"
    write_timetags(path, channels)
    lines = path.read_text().splitlines()
    assert lines[0] == "channel,time_ns"
    assert lines[1].startswith("3,") and lines[2].startswith("4,")  # merged, time sorted
    back = read_timetags(path)
    np.testing.assert_array_equal(back[3], channels[3])
    np.testing.assert_array_equal(back[4], channels[4])
    bad = tmp_path / "bad.csv"
    bad_rows = ("time,chan\n", "channel,time_ns\n3,0.5\n5,1.0\n", "channel,time_ns\n3,0.5\n4\n",
                "channel,time_ns\n3.0,0.5\n", "channel,time_ns\n3,abc\n")
    for text in bad_rows:
        bad.write_text(text)
        with pytest.raises(ValueError):
            read_timetags(bad)


def test_timetags_integer_roundtrip(tmp_path, rng):
    # whole picoseconds k, written as k / 1e3 ns, read back as the same
    # doubles and so as the same integers, over two block edges
    k = np.sort(rng.integers(10**6, 2**50, 2 * BLOCK + 3))
    k[:3] = [-1500, 0, 999]
    channels = {3: k[::2] / 1e3, 4: k[1::2] / 1e3}
    path = tmp_path / "tags.csv"
    write_timetags(path, channels)
    rows = path.read_text().splitlines()[1:]
    assert rows[:3] == ["3,-1.500", "4,0.000", "3,0.999"]
    assert [int(r[2:].replace(".", "")) for r in rows] == k.tolist()
    back = read_timetags(path)
    for c in (3, 4):
        assert back[c].tobytes() == channels[c].tobytes()
        assert np.rint(back[c] * 1e3).astype(np.int64).tolist() == k[c - 3 :: 2].tolist()


def test_write_timetags_peak_memory(tmp_path, rng):
    # the two channels are merged a block of rows at a time: a one-byte row
    # source per tag and one block's temporaries, 25.0 BLOCK-sized float
    # arrays here.  A stable argsort of every tag's time, with gathered
    # copies of the times and channels, peaked at 65.0 (3.4 times the tags'
    # own 8 bytes a tag)
    n = 20 * BLOCK
    k = np.sort(rng.integers(0, 10**12, n))
    channels = {3: k[::2] / 1e3, 4: k[1::2] / 1e3}
    tracemalloc.start()
    try:
        write_timetags(tmp_path / "tags.csv", channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n + 28 * 8 * BLOCK


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0005, 1.0000000001, -2.5e-4, 2.0**50 / 1e3, -1e13])
def test_timetags_off_the_grid_raise(tmp_path, bad):
    # never rounded in silence, and no file is left behind
    path = tmp_path / "tags.csv"
    with pytest.raises(ValueError, match="grid"):
        write_timetags(path, {3: np.array([0.001, bad]), 4: np.array([2.0])})
    assert not path.exists()


def test_write_table_blocks_equal_one_join(rng):
    # rows are formatted a block at a time; over two block edges, with a
    # blank column and values repr spells differently, the bytes are those of
    # formatting every cell at once
    n = 2 * BLOCK + 3
    floats = rng.normal(0.0, 1e3, n)
    floats[:4] = [0.1, -0.0, 1e-300, np.nan]
    columns = [floats, rng.integers(-5, 10**12, n), None]
    out = io.StringIO()
    write_table(out, "x,k,blank", columns)
    cells = [[repr(v) for v in floats.tolist()], [repr(v) for v in columns[1].tolist()], [""] * n]
    assert out.getvalue() == "x,k,blank\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def test_histogram_roundtrip(tmp_path, rng):
    raw = CorrelationHistogram(make_bin_edges(-2.1, 2.1, 0.21), rng.poisson(50.0, 20))
    h = normalize(raw, (1.0, 2.0))
    path = tmp_path / "hist.csv"
    write_histogram(path, h)
    back = read_histogram(path)
    assert np.array_equal(back.counts, h.counts)
    np.testing.assert_allclose(back.bin_centers, h.bin_centers, atol=1e-12)
    np.testing.assert_array_equal(back.normalized, h.normalized)  # repr is exact
    assert back.normalization_constant == pytest.approx(h.normalization_constant, rel=1e-9)


def test_histogram_rejects_partly_normalized(tmp_path, rng):
    raw = CorrelationHistogram(make_bin_edges(-2.1, 2.1, 0.21), rng.poisson(50.0, 20))
    path = tmp_path / "hist.csv"
    write_histogram(path, normalize(raw, (1.0, 2.0)))
    rows = path.read_text().splitlines()
    # a blank, nan or inf cell among numbers, or a column of nan
    for cells in ([""], ["nan"], ["inf"], ["", "nan"], ["nan"] * 20):
        text = [r.rsplit(",", 1)[0] + "," + c for r, c in zip(rows[1:], cells)] + rows[1 + len(cells):]
        path.write_text("\n".join(rows[:1] + text) + "\n")
        with pytest.raises(ValueError):
            read_histogram(path)


def test_histogram_roundtrip_unnormalized(tmp_path, rng):
    raw = CorrelationHistogram(make_bin_edges(-2.1, 2.1, 0.21), rng.poisson(50.0, 20))
    path = tmp_path / "hist.csv"
    write_histogram(path, raw)
    back = read_histogram(path)
    assert back.normalized is None
    assert back.normalization_constant is None
    assert np.array_equal(back.counts, raw.counts)


def test_results_roundtrip(tmp_path):
    fit = HomFitResult(
        gamma_pure_hat=0.21, w_p_hat=6.4, contrast_hat=0.66, background_hat=0.051,
        t2_hat=2.86, v0_hat=0.31,
        stderr_gamma_pure=0.004, stderr_w_p=0.2, stderr_contrast=0.01, stderr_background=0.002,
        rss=123.4, converged=True, n_evaluations=900,
    )
    path = tmp_path / "fit.results.txt"
    write_results(path, fit)
    lines = path.read_text().splitlines()
    keys = [l.split(" = ")[0] for l in lines]
    assert tuple(keys) == RESULT_KEYS
    vals = dict(l.split(" = ") for l in lines)
    assert float(vals["gamma_pure_hat_per_ns"]) == 0.21
    assert float(vals["t2_hat_ns"]) == 2.86
    assert vals["converged"] == "true"
