"""Flat-text persistence: configs, time tags, histograms, fit results."""

import math

import numpy as np
import pytest

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
    write_emission_csv,
    write_histogram,
    write_results,
    write_timetags,
)


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
    rc = build_run_config({"gamma_vib": "2.5", "pairing_window": "7.0", "electronic_delay": "1.5"})
    assert rc.emitter.gamma_vib == 2.5
    assert rc.interferometer.pairing_window == 7.0
    assert rc.detection.electronic_delay == 1.5
    rc = build_run_config({"pairing_window": "auto", "electronic_delay": "auto"})
    assert rc.interferometer.pairing_window is None
    assert rc.detection.electronic_delay is None


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
    "arm_prob_long": ("0.3", lambda rc: rc.interferometer.arm_prob_long),
    "pairing_window": ("7.0", lambda rc: rc.interferometer.pairing_window),
    "pairing": ("none", lambda rc: rc.interferometer.pairing),
    "irf_fwhm_pair": ("0.3", lambda rc: rc.detection.irf_fwhm_pair),
    "efficiency_3": ("0.3", lambda rc: rc.detection.efficiency[0]),
    "efficiency_4": ("0.4", lambda rc: rc.detection.efficiency[1]),
    "dead_time_3": ("22.0", lambda rc: rc.detection.dead_time[0]),
    "dead_time_4": ("11.0", lambda rc: rc.detection.dead_time[1]),
    "background_fraction": ("0.1", lambda rc: rc.detection.background_fraction),
    "electronic_delay": ("1.5", lambda rc: rc.detection.electronic_delay),
    "tau_min": ("-20.79", lambda rc: rc.detection.mca_range[0]),
    "tau_max": ("20.79", lambda rc: rc.detection.mca_range[1]),
    "bin_width": ("0.42", lambda rc: rc.detection.bin_width),
    "correlation_mode": ("tac", lambda rc: rc.detection.correlation_mode),
    "duration": ("200000.0", lambda rc: rc.duration),
    "seed": ("7", lambda rc: rc.seed),
    "replicas": ("3", lambda rc: rc.replicas),
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
    for key in ("gamma_spon", "gamma_pure", "w_p", "delta_t", "pairing_window", "irf_fwhm_pair",
                "dead_time_3", "electronic_delay", "tau_max", "bin_width", "duration", "norm_hi"):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError):
                build_run_config({key: bad})
    # an infinitely fast vibronic stage is legal, spelled either way
    assert build_run_config({"gamma_vib": "inf"}).emitter.gamma_vib == INSTANTANEOUS
    with pytest.raises(ValueError):
        build_run_config({"gamma_vib": "nan"})


def test_config_parse_rules():
    got = parse_config_text("# full line comment\n\nseed = 7 # trailing comment\n")
    assert got == {"seed": "7"}
    with pytest.raises(ValueError):
        parse_config_text("pump_rate = 2.0\n")  # unknown key
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError):
        build_run_config({"pump_rate": "2.0"})
    # tau_min and tau_max are applied together, so a shifted range is legal
    rc = build_run_config({"tau_min": "30.0", "tau_max": "40.0", "bin_width": "0.5"})
    assert rc.detection.mca_range == (30.0, 40.0)


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
    bad.write_text("time,chan\n")
    with pytest.raises(ValueError):
        read_timetags(bad)


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


def test_emission_csv(tmp_path, strong_dephasing):
    from homsim import StreamConfig, simulate_emission_stream

    st = simulate_emission_stream(StreamConfig(strong_dephasing, 100.0, rng_seed=1))
    path = tmp_path / "emission.csv"
    write_emission_csv(path, st)
    lines = path.read_text().splitlines()
    assert lines[0] == "photon_id,emission_time_ns"
    assert len(lines) == len(st) + 1
    first_id, first_t = lines[1].split(",")
    assert first_id == "0"
    assert float(first_t) == st.emission_times[0]
