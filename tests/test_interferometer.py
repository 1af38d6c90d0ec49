"""Delay-line routing, pairwise interference law, and stochastic matching."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from homsim import (
    BeamSplitterConfig,
    EmitterParams,
    InterferometerConfig,
    PhotonStream,
    bunching_probability,
    interfere_stream,
    route,
    simulate_emission_stream,
)
from homsim import interferometer
from homsim.interferometer import _candidate_pairs, match_pairs

Q_EXAMPLE = 0.670320046035639301  # exp(-0.4), balanced splitter, M=1


def _itf(**kw):
    kw.setdefault("delta_t", 4.6)
    kw.setdefault("bs", BeamSplitterConfig(theta=math.pi / 4, mode_match=1.0))
    kw.setdefault("pol_mode", "parallel")
    return InterferometerConfig(**kw)


def _routed(stream, cfg, rng):
    """route's arrival-order slices gathered: (long_arm, arrivals in emission
    order, the arrival order, the slices)."""
    long_arm, slices = route(stream, cfg, rng)
    slices = list(slices)
    order = np.concatenate([o for o, _ in slices])
    arrival = np.empty(len(order))
    arrival[order] = np.concatenate([a for _, a in slices])
    return long_arm, arrival, order, slices


def test_route_applies_exact_delay(strong_dephasing):
    stream = simulate_emission_stream(strong_dephasing, 3e3, seed=4)
    long_arm, arrival, order, _ = _routed(stream, _itf(), np.random.default_rng(7))
    # replay the arm draw: each photon's arrival is its emission plus exactly
    # 0 or exactly delta_t (the forward sum, so the float op matches bit for
    # bit); the slices run through the stable sort of the arrivals
    want_long = np.random.default_rng(7).random(len(stream)) < 0.5
    want = stream.emission_times + 4.6 * want_long
    np.testing.assert_array_equal(long_arm, want_long)
    assert arrival.tobytes() == want.tobytes()
    np.testing.assert_array_equal(order, np.argsort(want, kind="stable"))
    # the delay line reorders photons: arrival order is not emission order
    assert not np.array_equal(order, np.arange(len(stream)))


def test_route_arm_fraction_and_polarization(strong_dephasing):
    stream = simulate_emission_stream(strong_dephasing, 3e4, seed=9)
    routed = _routed(stream, _itf(pol_mode="orthogonal"), np.random.default_rng(11))
    frac = routed[0].mean()
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / len(stream))
    # polarization decides only whether pairs interfere, never the routing
    par = _routed(stream, _itf(), np.random.default_rng(11))
    for got, want in zip(par[:3], routed[:3]):
        np.testing.assert_array_equal(got, want)
    assert len(par[3]) == len(routed[3])
    for got, want in zip(par[3], routed[3]):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_bunching_probability_frozen_example(balanced_splitter):
    # both instants inside both envelopes, 1 ns apart, gamma_pure 0.2
    q = bunching_probability(1.0, 0.0, 0.0, 0.0, 0.2, balanced_splitter)
    assert q == pytest.approx(Q_EXAMPLE, abs=1e-12)
    # equal instants: the full weight 2 w M, perfect bunching when balanced
    assert bunching_probability(0.3, 0.3, 0.0, 0.1, 0.3, balanced_splitter) == 1.0
    bs = BeamSplitterConfig(theta=0.9, mode_match=0.6)
    want = 2.0 * bs.interference_weight * 0.6
    assert bunching_probability(0.3, 0.3, 0.0, 0.1, 0.3, bs) == pytest.approx(want, rel=1e-15)
    # distinguishable instants give a probability strictly inside (0, 1)
    assert 0.02 < bunching_probability(0.3, 0.7, 0.0, 0.1, 0.3, balanced_splitter) < 0.98


def test_bunching_probability_overlap_cases(balanced_splitter):
    # both detection instants after both arrivals: full overlap
    assert bunching_probability(3.0, 3.0, 0.0, 2.0, 0.0, balanced_splitter) == 1.0
    # either instant before the later wave packet has started: no overlap
    assert bunching_probability(1.5, 3.0, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    assert bunching_probability(3.0, 1.5, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    # both instants before either envelope exists
    assert bunching_probability(-1.0, -1.0, 0.0, 2.0, 0.0, balanced_splitter) == 0.0
    q = bunching_probability(np.array([3.0, 1.5]), np.array([3.0, 3.0]), 0.0, np.array([2.0, 2.0]), 0.0,
                             balanced_splitter)
    np.testing.assert_array_equal(q, [1.0, 0.0])


def test_bunching_probability_bounds(rng):
    n = 2000
    for _ in range(20):
        bs = BeamSplitterConfig(theta=rng.uniform(0, math.pi / 2), mode_match=rng.uniform(0, 1))
        arr_a, arr_b = rng.uniform(0, 5, n), rng.uniform(0, 5, n)
        u_a = arr_a + rng.exponential(1.25, n)
        u_b = arr_b + rng.exponential(1.25, n)
        q = bunching_probability(u_a, u_b, arr_a, arr_b, rng.uniform(0, 2), bs)
        top = 2.0 * bs.interference_weight * bs.mode_match
        assert top <= 1.0
        assert np.all((q >= 0.0) & (q <= top))
        assert np.any(q > 0.0) and np.any(q == 0.0)


def test_unpaired_port_probabilities():
    # without pairing a short-arm photon reaches port 3 with cos^2(theta)
    # and a long-arm photon with sin^2(theta); the detection instant, the
    # arrival plus the envelope delay, tells the arms apart
    bs = BeamSplitterConfig(theta=0.9, mode_match=1.0)
    c2 = math.cos(0.9) ** 2
    n = 20000
    stream = PhotonStream(np.arange(n) * 10.0 + 1.0, np.full(n, 0.5), n * 10.0)
    p = EmitterParams(gamma_spon=1.0)
    out = interfere_stream(stream, _itf(bs=bs, pairing="none"), p, np.random.default_rng(5))
    counted = 0
    for delay, p3 in ((0.0, c2), (4.6, 1 - c2)):
        n3, n4 = (np.count_nonzero(np.isin(out[k], stream.emission_times + delay + 0.5)) for k in (3, 4))
        assert abs(n3 / (n3 + n4) - p3) < 3 * math.sqrt(c2 * (1 - c2) / (n3 + n4))
        counted += n3 + n4
    assert len(out[3]) + len(out[4]) == counted == n


def test_candidate_pairs_weights_and_window():
    p = EmitterParams(gamma_spon=1 / 3.4, gamma_pure=0.2, w_p=1.0)
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7)
    long_arm = np.array([False, True])
    delays = np.array([0.5, 0.6])
    a, b, q = _candidate_pairs(np.array([0.0, 0.1]), delays, long_arm, p, bs, window=5.0)
    assert (a.tolist(), b.tolist()) == ([1], [0])
    assert q[0] == pytest.approx(0.7 * math.exp(-2 * 0.2 * 0.2), rel=1e-12)

    # arrival separation beyond the pairing window: no candidates
    a, b, q = _candidate_pairs(np.array([0.0, 100.0]), delays, long_arm, p, bs, window=5.0)
    assert len(q) == 0

    # second wave packet starts only after the first detection: zero overlap
    a, b, q = _candidate_pairs(np.array([0.0, 5.0]), np.array([1.0, 1.0]), long_arm, p, bs, window=10.0)
    assert len(q) == 0

    # every photon in one arm: typed empty arrays
    for arm in (False, True):
        a, b, q = _candidate_pairs(np.arange(5.0), np.full(5, 0.5), np.full(5, arm), p, bs, window=10.0)
        assert (len(a), len(b), len(q)) == (0, 0, 0)
        assert (a.dtype, b.dtype, q.dtype) == (np.int64, np.int64, np.float64)


def test_candidate_pairs_emission_order_equals_arrival_order(molecule):
    # the long arm's delay interleaves the arms, so arrival rank is not the
    # emission index; the pairs found in emission order, renumbered by rank,
    # are those found in arrival order, in the same sequence
    stream = simulate_emission_stream(molecule, 2e4, seed=6)
    long_arm, arrival, order, _ = _routed(stream, _itf(), np.random.default_rng(2))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    assert not np.array_equal(rank, np.arange(len(rank)))
    bs = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7)
    a, b, q = _candidate_pairs(arrival, stream.envelope_delays, long_arm, molecule, bs, 34.0, chunk=1000)
    want = _candidate_pairs(arrival[order], stream.envelope_delays[order], long_arm[order], molecule, bs, 34.0,
                            chunk=1000)
    assert len(q) > 100
    np.testing.assert_array_equal(rank[a], want[0])
    np.testing.assert_array_equal(rank[b], want[1])
    assert q.tobytes() == want[2].tobytes()


def test_match_pairs_unconditional_rates():
    # chains of three photons: pair A (q=0.5) shares its second photon with
    # pair B (q=0.4).  The survival correction must keep the unconditional
    # acceptance of B at 0.4 even though A is resolved first.
    m = 20000
    k = np.arange(m)
    a_idx = np.empty(2 * m, dtype=np.int64)
    b_idx = np.empty(2 * m, dtype=np.int64)
    q = np.empty(2 * m)
    a_idx[0::2], b_idx[0::2], q[0::2] = 3 * k, 3 * k + 1, 0.5
    a_idx[1::2], b_idx[1::2], q[1::2] = 3 * k + 1, 3 * k + 2, 0.4
    a_o, b_o, acc = match_pairs(3 * m, a_idx, b_idx, q, np.random.default_rng(99))
    q_o = np.where(b_o % 3 == 1, 0.5, 0.4)  # recover pair type after reordering
    frac_a = acc[q_o == 0.5].mean()
    frac_b = acc[q_o == 0.4].mean()
    assert abs(frac_a - 0.5) < 3.5 * math.sqrt(0.25 / m)
    assert abs(frac_b - 0.4) < 3.5 * math.sqrt(0.24 / m)


def test_match_pairs_overcommitted_photon():
    # two q=0.9 pairs share a photon; only 1.0 of probability is available.
    # The first pair keeps its 0.9, the second fires whenever possible (the
    # clamp) and lands at 0.1 unconditionally.
    m = 20000
    k = np.arange(m)
    a_idx = np.empty(2 * m, dtype=np.int64)
    b_idx = np.empty(2 * m, dtype=np.int64)
    a_idx[0::2], b_idx[0::2] = 3 * k, 3 * k + 1
    a_idx[1::2], b_idx[1::2] = 3 * k + 1, 3 * k + 2
    q = np.full(2 * m, 0.9)
    a_o, b_o, acc = match_pairs(3 * m, a_idx, b_idx, q, np.random.default_rng(7))
    first = b_o % 3 == 1
    assert abs(acc[first].mean() - 0.9) < 3.5 * math.sqrt(0.09 / m)
    assert abs(acc[~first].mean() - 0.1) < 3.5 * math.sqrt(0.09 / m)


def test_match_pairs_exclusive(rng):
    n = 4000
    a_idx = rng.integers(0, n, 6000)
    b_idx = (a_idx + rng.integers(1, n, 6000)) % n
    q = rng.uniform(0.0, 0.4, 6000)
    a_o, b_o, acc = match_pairs(n, a_idx, b_idx, q, rng)
    used = np.concatenate([a_o[acc], b_o[acc]])
    assert len(np.unique(used)) == len(used)
    assert a_o.shape == b_o.shape == acc.shape


def test_interfere_stream_conserves_and_reproduces(strong_dephasing):
    stream = simulate_emission_stream(strong_dephasing, 2e4, seed=31)
    for pairing in ("weighted", "none"):
        cfg = _itf(pairing=pairing)
        out1 = interfere_stream(stream, cfg, strong_dephasing, np.random.default_rng(7))
        out2 = interfere_stream(stream, cfg, strong_dephasing, np.random.default_rng(7))
        assert len(out1[3]) + len(out1[4]) == len(stream)
        assert np.all(np.diff(out1[3]) >= 0) and np.all(np.diff(out1[4]) >= 0)
        np.testing.assert_array_equal(out1[3], out2[3])
        np.testing.assert_array_equal(out1[4], out2[4])


@pytest.mark.parametrize("pol_mode,arrays,blocks", [("orthogonal", 1.3, 4.5), ("parallel", 7.3, 0.0)],
                         ids=["orthogonal", "parallel"])
def test_interfere_stream_peak_memory(molecule, pol_mode, arrays, blocks):
    # Orthogonal: the arm flags, the port flags and the two ports' instants,
    # 1.25 photon-sized arrays, plus the block walk's temporaries, 3.85
    # PORT_BLOCK-sized float arrays at this seed (2.15 photon-sized arrays in
    # all; 1.29 at the benchmark's length).  A photon-sized arrival array,
    # a global argsort and the instants before the port split peaked at 2.75.
    # The parallel peak (7.11 at this seed) is the pair search's; the
    # matcher's was 7.13 when it gathered its own copy of the pairs, and
    # 10.72 with a photon-sized array of detection instants in the pair
    # search and a new 2m-sized buffer for each step of the survival sums.
    cfg = _itf(bs=BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7), pol_mode=pol_mode)
    interfere_stream(simulate_emission_stream(molecule, 1e3, seed=1), cfg, molecule, np.random.default_rng(1))
    stream = simulate_emission_stream(molecule, 1e6, seed=3)
    tracemalloc.start()
    try:
        interfere_stream(stream, cfg, molecule, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) > 100_000
    assert peak <= arrays * stream.emission_times.nbytes + blocks * 8 * interferometer.PORT_BLOCK


def test_match_pairs_peak_memory(molecule):
    # the pairs are permuted in place and the survival sums hold at most
    # three 2m-sized buffers: 7.0 pair-sized arrays (8 m bytes) above entry
    # at this seed, against 10.0 with a gathered copy of the pairs and 18.6
    # when the sorted photons, the gathered q, the cumsum, the group bases
    # and the survival values each had their own buffer
    cfg = _itf(bs=BeamSplitterConfig(theta=math.pi / 4, mode_match=0.7))
    stream = simulate_emission_stream(molecule, 1e6, seed=3)
    with mock.patch.object(interferometer, "match_pairs", wraps=match_pairs) as spy:
        interfere_stream(stream, cfg, molecule, np.random.default_rng(3))
    n, a_idx, b_idx, q, _ = spy.call_args.args
    tracemalloc.start()
    try:
        match_pairs(n, a_idx, b_idx, q, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q) > 50_000
    assert peak <= 7.5 * q.nbytes


def test_no_interference_paths_agree(strong_dephasing):
    # orthogonal polarization, M=0 and pairing "none" all skip the pairing
    # stage and must consume identical random draws
    stream = simulate_emission_stream(strong_dephasing, 2e4, seed=41)
    ref = interfere_stream(stream, _itf(pairing="none"), strong_dephasing, np.random.default_rng(3))
    orth = interfere_stream(stream, _itf(pol_mode="orthogonal"), strong_dephasing, np.random.default_rng(3))
    bs0 = BeamSplitterConfig(theta=math.pi / 4, mode_match=0.0)
    nomatch = interfere_stream(stream, _itf(bs=bs0), strong_dephasing, np.random.default_rng(3))
    for ch in (3, 4):
        np.testing.assert_array_equal(ref[ch], orth[ch])
        np.testing.assert_array_equal(ref[ch], nomatch[ch])


def test_interferometer_config_validation(balanced_splitter):
    with pytest.raises(ValueError):
        _itf(delta_t=-1.0)
    with pytest.raises(ValueError):
        _itf(pol_mode="circular")
    with pytest.raises(ValueError):
        _itf(pairing="quadratic")
    with pytest.raises(ValueError):
        _itf(pairing="greedy")
    for bad in (dict(delta_t=math.nan), dict(delta_t=math.inf)):
        with pytest.raises(ValueError):
            _itf(**bad)
    # the pair search reaches ten radiative lifetimes: 5 ns at gamma_spon 2
    p = EmitterParams(gamma_spon=2.0, gamma_pure=0.0, w_p=1.0)
    with mock.patch.object(interferometer, "_candidate_pairs", wraps=_candidate_pairs) as search:
        interfere_stream(simulate_emission_stream(p, 100.0, seed=1), _itf(), p, np.random.default_rng(1))
    assert search.call_args.args[5] == 5.0
