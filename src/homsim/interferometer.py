"""Unbalanced Michelson-style delay line plus recombining beam splitter.

Each photon takes the short or long arm (1/2 each), acquiring delta_t of
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
PORT_BLOCK = 1 << 16  # photons per slice of the port draw, entries per block of the survival sums


@dataclass(frozen=True)
class InterferometerConfig:
    delta_t: float = 0.0
    bs: BeamSplitterConfig = BeamSplitterConfig()
    pol_mode: str = "parallel"
    pairing: str = "weighted"  # weighted | none

    def __post_init__(self):
        if not 0 <= self.delta_t < math.inf:
            raise ValueError("delta_t must be non-negative and finite")
        if self.pol_mode not in ("parallel", "orthogonal"):
            raise ValueError("pol_mode must be 'parallel' or 'orthogonal'")
        if self.pairing not in ("weighted", "none"):
            raise ValueError("pairing must be weighted or none")


def route(stream: PhotonStream, cfg: InterferometerConfig, rng):
    """Send each photon through either arm with probability 1/2, as
    coherence.g2_34 assumes; the long arm adds exactly delta_t.

    Returns (long_arm, arrival_order): the arm flags in emission order, and a
    generator of consecutive (indices, arrivals) slices of the stream in
    stable arrival order, so no photon-sized permutation is built.
    """
    n = len(stream)
    long_arm = np.empty(n, dtype=bool)
    for start in range(0, n, PORT_BLOCK):  # consecutive draws: the doubles of one rng.random(n)
        flags = long_arm[start : start + PORT_BLOCK]
        np.less(rng.random(len(flags)), 0.5, out=flags)
    return long_arm, _arrival_order(stream.emission_times, long_arm, cfg.delta_t)


def _arrival(delta_t, long_arm, emission_times):
    """Emission plus exactly 0 or delta_t: the bits of every arrival."""
    arrival = delta_t * long_arm
    arrival += emission_times
    return arrival


def _arrival_order(emission_times, long_arm, delta_t):
    """Yield (indices, arrivals) slices whose concatenation is the stream in
    np.argsort(arrival, kind="stable") order, walking emission-order blocks.

    A photon emitted at or after emission_times[stop] arrives no earlier, and
    has a larger index, so the photons seen so far that arrive by then
    precede every later one in stable order: they are released, the rest are
    carried, in index order, into the next block.
    """
    n = len(long_arm)
    block = PORT_BLOCK
    carry, carry_arr = np.zeros(0, dtype=np.int64), np.zeros(0)
    for start in range(0, n, block):
        stop = min(start + block, n)
        idx = np.concatenate([carry, np.arange(start, stop)])
        arr = np.concatenate([carry_arr, _arrival(delta_t, long_arm[start:stop], emission_times[start:stop])])
        late = arr > (emission_times[stop] if stop < n else np.inf)
        carry, carry_arr = idx[late], arr[late]
        # the late photons arrive after every released one: they sort last
        o = np.argsort(arr, kind="stable")[: len(arr) - len(carry)]
        yield idx[o], arr[o]


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

    a_idx, b_idx and q are permuted in place into processing order, so no
    second copy of the pairs is alive during the survival sums; the returned
    a_o and b_o are a_idx and b_idx.
    """
    # strongest first, ties in candidate order: the unstable sort is much
    # faster than a stable one, and only the runs of equal q need re-sorting
    # (which leaves q_o as it is: a run's values are equal)
    order = np.argsort(-q)
    a_o, b_o, q_o = a_idx, b_idx, q  # permuted in place
    q_o[:] = q_o[order]
    tied = np.flatnonzero(q_o[1:] == q_o[:-1])
    if len(tied):
        pos = np.union1d(tied, tied + 1)
        run = np.cumsum(np.r_[0, q_o[pos[1:]] != q_o[pos[:-1]]])
        order[pos] = order[pos][np.lexsort((order[pos], run))]
    a_o[:] = a_o[order]
    b_o[:] = b_o[order]
    del order
    m = len(q_o)
    if m == 0:
        return a_o, b_o, np.zeros(0, dtype=bool)

    p_fire = np.clip(q_o / np.maximum(_survival_products(a_o, b_o, q_o), Q_MIN), 0.0, 1.0)
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


def _survival_products(a_o, b_o, q_o):
    """s_a * s_b of each of m > 0 pairs in processing order: the survival of
    each photon is 1 minus the q-mass it spent on earlier-processed pairs.

    Entry k is photon a_o[k] of pair k and entry m + k photon b_o[k]; sorting
    the key photon * m + k groups the entries by photon in processing order.
    Keys repeat only for a self-pair, whose two entries then share a photon,
    a position and q, so either order gives the same product.  The spent mass
    is one cumsum over that sequence minus its value before the group's
    first entry, located by integer index (a running maximum of the float
    cs - q can step down by an ulp where q is below an ulp of the sum).  At
    most three 2m-sized buffers are alive at once.
    """
    m = len(q_o)
    key = np.concatenate([a_o, b_o], dtype=np.int64)
    key *= m
    key.reshape(2, m)[:] += np.arange(m)
    so = np.argsort(key)
    key = key[so]
    key //= m  # the photon of each sorted entry; then, in place, its group's first position
    np.multiply(np.arange(2 * m), np.r_[True, key[1:] != key[:-1]], out=key)
    np.maximum.accumulate(key, out=key)
    cs = np.take(q_o, so, mode="wrap")  # q_o[so % m] without the index temporary
    np.cumsum(cs, out=cs)
    # cs - q, then minus its value at the group start: the second pass runs
    # from the end, so each group start is read before it is changed
    blocks = range(0, 2 * m, PORT_BLOCK)
    for s in blocks:
        cs[s : s + PORT_BLOCK] -= np.take(q_o, so[s : s + PORT_BLOCK], mode="wrap")
    for s in reversed(blocks):
        cs[s : s + PORT_BLOCK] -= cs[key[s : s + PORT_BLOCK]]
    del key
    surv = np.empty(2 * m)
    surv[so] = np.subtract(1.0, cs, out=cs)
    return surv[:m] * surv[m:]


def _candidate_pairs(arrival, envelope_delays, long_arm, p, bs, window, chunk=50_000):
    """All opposite-arm pairs within the arrival window whose bunching
    probability is non-negligible.  Returns (a_idx, b_idx, q).

    Arrivals need only increase within each arm, as they do in emission
    order.  A pair can overlap only if each photon arrives before the other's
    detection instant, so each long-arm photon's short-arm range also ends at
    its own instant and starts where the running maximum of the short-arm
    instants reaches its arrival.  Only pairs whose q is zero are skipped, so
    the output is that of scoring every window pair.  Long-arm photons are
    taken `chunk` at a time, which only partitions the work; about one in ten
    window pairs overlaps at the experiment point, so a chunk's expansion is
    small next to the stream and the matcher.
    """
    idx_long = np.flatnonzero(long_arm)
    idx_short = np.flatnonzero(~long_arm)
    arr_short = arrival[idx_short]
    # each instant is arrival[x] + envelope_delays[x], taken where it is used
    reach_short = arr_short + envelope_delays[idx_short]
    np.maximum.accumulate(reach_short, out=reach_short)

    out_a, out_b, out_q = [], [], []
    for start in range(0, len(idx_long), chunk):
        il = idx_long[start : start + chunk]
        arr_l = arrival[il]
        lo = np.maximum(np.searchsorted(arr_short, arr_l - window, side="left"),
                        np.searchsorted(reach_short, arr_l, side="left"))
        # rounding is monotone, so this bound is min(arr_l + window, instant) bit for bit
        hi = np.searchsorted(arr_short, arr_l + np.minimum(envelope_delays[il], window), side="right")
        a, b = window_pairs(lo, np.maximum(hi, lo))  # positions in il and idx_short
        a, b = il[a], idx_short[b]
        arr_a, arr_b = arrival[a], arrival[b]
        q = bunching_probability(arr_a + envelope_delays[a], arr_b + envelope_delays[b], arr_a, arr_b,
                                 p.gamma_pure, bs)
        keep = q > Q_MIN
        out_a.append(a[keep])
        out_b.append(b[keep])
        out_q.append(q[keep])
    del idx_long, idx_short, arr_short, reach_short
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
    long_arm, arrival_order = route(stream, cfg, rng)
    n = len(long_arm)
    c2, s2 = math.cos(cfg.bs.theta) ** 2, math.sin(cfg.bs.theta) ** 2
    pairing = cfg.pol_mode == "parallel" and cfg.pairing == "weighted" and cfg.bs.mode_match > 0 and n > 1
    # port 3 with probability sin^2 (long arm) or cos^2 (short arm): uniforms
    # drawn a slice of the arrival order at a time are the doubles of one
    # rng.random(n).  Only the pair search needs the whole arrival order.
    port3 = np.empty(n, dtype=bool)
    if pairing:
        arrival, order = np.empty(n), np.empty(n, dtype=np.int64)
    pos = 0
    for o, arr in arrival_order:
        r = rng.random(len(o))
        port3[o] = np.where(long_arm[o], r < s2, r < c2)
        if pairing:
            arrival[o] = arr
            order[pos : pos + len(o)] = o
            pos += len(o)
    o = arr = r = None  # the last slice and its uniforms, a block each, would live through the ports' fill

    if pairing:
        a_idx, b_idx, q = _candidate_pairs(arrival, stream.envelope_delays, long_arm, p, cfg.bs, 10.0 / p.gamma_spon)
        del arrival  # the matcher runs with one photon-sized array fewer
        # the matcher numbers photons by arrival rank, which its survival sums' bits follow
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        a_idx, b_idx = rank[a_idx], rank[b_idx]
        del rank
        a_o, b_o, acc = match_pairs(n, a_idx, b_idx, q, rng)
        det = rng.random(len(a_o)) < 0.5  # the common port: 3 if True
        port3[order[a_o[acc]]] = det[acc]
        port3[order[b_o[acc]]] = det[acc]
        del order

    # the detection instants, arrival plus envelope delay, filled a block of
    # emission order at a time into each port's array, then sorted in place:
    # the stable sort (timsort) merges the runs of each arm's instants
    n3 = int(np.count_nonzero(port3))
    out = {3: np.empty(n3), 4: np.empty(n - n3)}
    filled = {3: 0, 4: 0}
    for start in range(0, n, PORT_BLOCK):
        blk = slice(start, start + PORT_BLOCK)
        u = _arrival(cfg.delta_t, long_arm[blk], stream.emission_times[blk])
        u += stream.envelope_delays[blk]
        for ch, sel in ((3, port3[blk]), (4, ~port3[blk])):
            k = filled[ch] + int(np.count_nonzero(sel))
            np.compress(sel, u, out=out[ch][filled[ch] : k])
            filled[ch] = k
    for t in out.values():
        t.sort(kind="stable")
    return out
