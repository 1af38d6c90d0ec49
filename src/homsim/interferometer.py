"""Unbalanced Michelson-style delay line plus recombining beam splitter.

Each photon takes the short or long arm (Bernoulli), acquiring delta_t of
extra delay on the long arm, and leaves the output splitter through port 3
or 4 independently.  In parallel polarization, opposite-arm photons whose
envelopes overlap at both detection instants can instead bunch into a
common port; bunching_probability states that law once, for whole arrays
of pairs.  _candidate_pairs applies it to the pairs that arrive within ten
radiative lifetimes of each other and whose wave packets overlap (the only
ones it can score above zero), and match_pairs draws an exclusive matching
that delivers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import BeamSplitterConfig, EmitterParams
from .emitter import PhotonStream
from .histogram import window_pairs

# pairs whose bunching probability falls below this are never candidates
Q_MIN = 1e-12


@dataclass(frozen=True)
class InterferometerConfig:
    delta_t: float = 0.0
    bs: BeamSplitterConfig = BeamSplitterConfig()
    pol_mode: str = "parallel"
    arm_prob_long: float = 0.5
    pairing: str = "weighted"  # weighted | none

    def __post_init__(self):
        if not 0 <= self.delta_t < math.inf:
            raise ValueError("delta_t must be non-negative and finite")
        if self.pol_mode not in ("parallel", "orthogonal"):
            raise ValueError("pol_mode must be 'parallel' or 'orthogonal'")
        if not 0.0 <= self.arm_prob_long <= 1.0:
            raise ValueError("arm_prob_long must lie in [0, 1]")
        if self.pairing not in ("weighted", "none"):
            raise ValueError("pairing must be weighted or none")


@dataclass
class RoutedStream:
    """Photons after the delay line, sorted by arrival time."""

    arrival_times: np.ndarray
    long_arm: np.ndarray  # bool
    envelope_delays: np.ndarray

    def __len__(self):
        return len(self.arrival_times)


def route(stream: PhotonStream, cfg: InterferometerConfig, rng) -> RoutedStream:
    """Send each photon through a random arm; long arm adds exactly delta_t."""
    long_arm = rng.random(len(stream)) < cfg.arm_prob_long
    arrival = cfg.delta_t * long_arm  # then summed in place: one photon-sized temporary fewer
    arrival += stream.emission_times
    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]  # the unsorted arrivals are freed before the delays are gathered
    return RoutedStream(arrival, long_arm[order], stream.envelope_delays[order])


def bunching_probability(u_a, u_b, arr_a, arr_b, gamma_pure, bs: BeamSplitterConfig):
    """Probability that an opposite-arm, same-polarization pair bunches.

    u_a, u_b are the detection instants and arr_a, arr_b the arrivals of the
    two photons (arrays or scalars).  Equal-width exponential envelopes
    overlap only when both instants fall after both arrivals; dephasing then
    damps the interference as exp(-2 gamma_pure |u_a - u_b|).  The value is
    at most 2 w M (w the splitter's interference weight, M the mode match),
    which is 1 for a balanced splitter and perfect mode match.
    """
    overlap = np.minimum(u_a, u_b) >= np.maximum(arr_a, arr_b)
    amp = 2.0 * bs.interference_weight * bs.mode_match
    # damping first: one float temporary fewer is alive on a chunk of pairs
    return np.exp(-2.0 * gamma_pure * np.abs(u_a - u_b)) * overlap * amp


def match_pairs(n_photons, a_idx, b_idx, q, rng):
    """Exclusive stochastic matching with per-pair target probabilities q.

    Pairs are processed strongest first, pairs of equal q in the order
    given.  Because a photon consumed by an earlier pair is lost to later
    ones, each pair fires with q divided by both photons' survival (1 minus
    the q already spent on earlier pairs), so its unconditional acceptance
    stays ~q.  Photons whose summed q exceeds 1 cannot be fully served; the
    clamp makes those under-deliver slightly rather than distort their
    neighbours.

    A fired pair is accepted when neither photon was taken by an accepted
    pair earlier in that order (sequential greedy matching).  It is computed
    in rounds: each round accepts every live fired pair that comes first in
    order on both of its photons, then drops the pairs touching a photon now
    used.  This gives exactly the sequential result, in few rounds for
    random-like orders (Blelloch, Fineman & Shun, "Greedy sequential maximal
    independent set and matching are parallel on average", SPAA 2012).
    """
    # strongest first, ties in candidate order: the unstable sort is much
    # faster than a stable one, and only the runs of equal q need re-sorting
    order = np.argsort(-q)
    q_o = q[order]
    tied = np.flatnonzero(q_o[1:] == q_o[:-1])
    if len(tied):
        pos = np.union1d(tied, tied + 1)
        run = np.cumsum(np.r_[0, q_o[pos[1:]] != q_o[pos[:-1]]])
        order[pos] = order[pos][np.lexsort((order[pos], run))]
        q_o[pos] = q[order[pos]]
    a_o, b_o = a_idx[order], b_idx[order]
    m = len(q_o)
    if m == 0:
        return a_o, b_o, np.zeros(0, dtype=bool)

    # survival prefix sums: for each pair, the q-mass its photons spent on
    # earlier-processed pairs.  Entry k is photon a_o[k] of pair k and entry
    # m + k photon b_o[k]; sorting the key photon * m + k groups the entries
    # by photon in processing order.  Keys repeat only for a self-pair, whose
    # two entries then share a photon, a position and q, so either order
    # gives the same s_a * s_b.
    k = np.arange(m)
    key = np.concatenate([a_o, b_o], dtype=np.int64)
    key *= m
    key[:m] += k
    key[m:] += k
    so = np.argsort(key)
    ph_s = key[so]
    ph_s //= m
    q_s = q_o[so % m]
    del key, k
    cs = np.cumsum(q_s)
    grp = np.flatnonzero(np.r_[True, ph_s[1:] != ph_s[:-1]])
    base = np.repeat(cs[grp] - q_s[grp], np.diff(np.r_[grp, len(ph_s)]))
    # 1 - (cs - q_s - base) in place: the same operations, no temporaries
    cs -= q_s
    cs -= base
    del ph_s, q_s, grp, base
    surv = np.empty(2 * m)
    surv[so] = np.subtract(1.0, cs, out=cs)
    s_a = surv[:m]
    s_b = surv[m:]

    p_fire = np.clip(q_o / np.maximum(s_a * s_b, Q_MIN), 0.0, 1.0)
    fired = rng.random(m) < p_fire

    accepted = np.zeros(m, dtype=bool)
    used = np.zeros(n_photons, dtype=bool)
    # earliest live pair per photon; reset only where set, so a round costs
    # its live pairs, not n_photons
    first = np.full(n_photons, m, dtype=np.int64)
    live = np.flatnonzero(fired)
    while len(live):
        a, b = a_o[live], b_o[live]
        np.minimum.at(first, a, live)
        np.minimum.at(first, b, live)
        win = live[(first[a] == live) & (first[b] == live)]
        accepted[win] = True
        used[a_o[win]] = True
        used[b_o[win]] = True
        first[a] = m
        first[b] = m
        live = live[~(used[a] | used[b])]
    return a_o, b_o, accepted


def _candidate_pairs(routed: RoutedStream, p: EmitterParams, bs: BeamSplitterConfig, window, chunk=50_000):
    """All opposite-arm pairs within the arrival window whose bunching
    probability is non-negligible.  Returns (a_idx, b_idx, q).

    A pair can overlap only if each photon arrives before the other's
    detection instant, so each long-arm photon's short-arm range also ends
    at its own instant and starts where the running maximum of the short-arm
    instants reaches its arrival.  Only pairs whose q is zero are skipped,
    so the output is that of scoring every window pair.  Long-arm photons
    are taken `chunk` at a time, which only partitions the work; about one
    in ten window pairs overlaps at the experiment point, so a chunk's
    expansion is small next to the stream and the matcher.
    """
    arrival = routed.arrival_times
    u = arrival + routed.envelope_delays
    idx_long = np.flatnonzero(routed.long_arm)
    idx_short = np.flatnonzero(~routed.long_arm)
    arr_short = arrival[idx_short]
    reach_short = np.maximum.accumulate(u[idx_short])

    out_a, out_b, out_q = [], [], []
    for start in range(0, len(idx_long), chunk):
        il = idx_long[start : start + chunk]
        arr_l = arrival[il]
        lo = np.maximum(
            np.searchsorted(arr_short, arr_l - window, side="left"),
            np.searchsorted(reach_short, arr_l, side="left"),
        )
        hi = np.searchsorted(arr_short, np.minimum(arr_l + window, u[il]), side="right")
        a, b = window_pairs(lo, np.maximum(hi, lo))  # positions in il and idx_short
        a, b = il[a], idx_short[b]
        q = bunching_probability(u[a], u[b], arrival[a], arrival[b], p.gamma_pure, bs)
        keep = q > Q_MIN
        out_a.append(a[keep])
        out_b.append(b[keep])
        out_q.append(q[keep])
    if not out_a:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0)
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_q)


def interfere_stream(stream: PhotonStream, cfg: InterferometerConfig, p: EmitterParams, rng):
    """Run the full stream through the interferometer.

    Returns {3: times, 4: times}, detection instants per output port, sorted.
    Interference only moves opposite-port pairs to a common port; singles
    rates and totals are preserved.
    """
    routed = route(stream, cfg, rng)
    n = len(routed)

    c2 = math.cos(cfg.bs.theta) ** 2
    s2 = math.sin(cfg.bs.theta) ** 2
    # port 3 with probability sin^2 (long arm) or cos^2 (short arm): one bool
    # mask, drawn before any other photon-sized array is formed
    r = rng.random(n)
    port3 = np.where(routed.long_arm, r < s2, r < c2)
    del r  # spent: the pairing and the port split reuse its space

    if cfg.pol_mode == "parallel" and cfg.pairing == "weighted" and cfg.bs.mode_match > 0 and n > 1:
        a_idx, b_idx, q = _candidate_pairs(routed, p, cfg.bs, 10.0 / p.gamma_spon)
        a_o, b_o, acc = match_pairs(n, a_idx, b_idx, q, rng)
        det = rng.random(len(a_o)) < 0.5  # the common port: 3 if True
        port3[a_o[acc]] = det[acc]
        port3[b_o[acc]] = det[acc]

    # the arrivals are spent: the detection instants take their place
    u = routed.arrival_times
    u += routed.envelope_delays
    del routed  # spent too: the port split fits in freed space, not in a seed-dependent hole
    # np.compress selects a random half several times faster than u[port3].
    # u is nearly sorted (delays of a few ns on arrivals ns apart), and the
    # stable sort (timsort) merges its runs
    return {ch: np.sort(np.compress(sel, u), kind="stable") for ch, sel in ((3, port3), (4, ~port3))}
