"""Seeded Monte-Carlo estimation cross-checking the exact evaluator.

This is the only module that touches floating point, and the only one that
imports numpy, inside the functions that sample, so the exact subcommands
never load it.  Randomness comes from the counter-based Philox4x64-10
generator keyed by the seed, an integer in [0, 2**128); sample i consumes
exactly the i-th row of the (n, horizon+1) uniform matrix that
`Generator(Philox(key=seed)).random` fills row by row, so estimates are
bit-identical across runs and individual plays can be replayed from their
sample index alone.  Because Philox is counter-based, the double at stream
position p is a pure function of the key and of the counter p // 4 + 1
(Salmon, Moraes, Dror, Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC 2011): `_uniforms` computes exactly the positions asked for with the
numpy kernel `_philox`, and `sample_play` reads its row through it.

The matrix is never built whole.  `estimate_expectation` takes its rows in
consecutive chunks and walks each chunk step by step, all its samples at
once: step t takes the live samples' draws from column t+1 and moves them
along flat edge indices (node*deg + k), k counting the node's joint
(action, successor) moves in the order of `_Walker.edges`: action order,
then successor *state* order.  The walker's nodes are the one
`model.closure` of the member's moves over its transition table, numbered
breadth-first from (start, init).  A sample is *settled* once it stands on
a node from which no reachable edge carries weight in any discounted or
total-reward dimension and every reachable node has the node's own target
flags (a shortest path then adds nothing, or is censored): nothing it
accumulates can change any more, so it leaves the walk early with its sums
and target hits exactly as the full-horizon walk would leave them, and the
walk of a chunk ends when no sample is left.

The walk reads its draws in windows of `_WINDOW` columns, and a chunk is
drawn one of two ways, decided once per estimate by `_draws_lazily` from
the members' float chains, whichever is expected to cost less: filled
whole, up to `_CHUNK` rows and `_CHUNK_BYTES` at a time from one generator
into one reused buffer, or lazily, each window computed by `_philox`
only for the samples still live, `_LAZY_CHUNK` rows at a time.  Both read
the same matrix, so they give the same estimate to the last bit; the lazy
draw wins when samples settle long before the horizon.

Shortest-path samples that do not reach the target within the horizon are
*censored*: they are excluded from the mean and reported through a count,
because the payoff is +inf on non-reaching plays and no unbiased finite
estimator exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, repeat
from typing import List, Optional, Sequence, Tuple

from .errors import SchemaError, UnsupportedKind
from .evaluate import expected_payoff
from .model import Pomdp, closure
from .payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff, ReachGatedDiscountedSum,
                      ReachIndicator, ShortestPath, TotalRewardNonNeg)
from .rationals import ExtRealVector, format_rational
from .strategies import FiniteMemoryStrategy, FiniteMixture, strategy_premetric, transition_table


@dataclass(frozen=True)
class SampleConfig:
    samples: int
    horizon: int
    seed: int

    def __post_init__(self):
        if self.samples < 1 or self.horizon < 1:
            raise ValueError("samples and horizon must be >= 1")
        if not 0 <= self.seed < 2 ** 128:
            raise ValueError(f"seed {self.seed} lies outside [0, 2**128), the Philox key range")


@dataclass(frozen=True)
class Estimate:
    mean: Tuple[float, ...]
    stderr: Tuple[float, ...]
    samples: int
    horizon: int
    seed: int
    bias_bound: Tuple[Optional[Fraction], ...]
    censored: Tuple[int, ...]


# Rows of the uniform matrix filled and walked at a time when every draw is
# made, and when only the windows of live samples are drawn: a kernel call
# costs as much as a few thousand blocks, so the lazy chunk is larger.  A
# filled chunk also holds at most `_CHUNK_BYTES` of doubles (and at least
# one row), so its buffer stays bounded at any horizon; up to horizon 1,023
# that is all `_CHUNK` rows.
_CHUNK = 4096
_CHUNK_BYTES = 32 * 2 ** 20
_LAZY_CHUNK = 16384
# Steps walked between two draws of the live samples' next columns.
_WINDOW = 8
# Costs in microseconds, min of 100 calls with numpy 2.4 on a shared 2-vCPU
# x86-64 Linux host: `_philox` computes a 4-word block in 0.12 us (0.09 to
# 0.13 over 8,192 to 100,000 counters), and any call costs about 180 us
# however few blocks it computes; `Generator.random` fills a block in
# 0.0225 us.  Only their ratios matter.
_BLOCK_US, _CALL_US, _FILL_US = 0.12, 180.0, 0.0225
# Counters per slice of `_philox`, and the largest number of unsettled
# walker nodes whose live mass `_draws_lazily` follows.
_SLICE = 8192
_MASS_NODES = 128

_M64 = 2 ** 64 - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key increments


def _philox(seed: int, counters):
    """The four 64-bit words Philox4x64-10 keyed by `seed` gives at each
    counter (below 2**64), as a (len(counters), 4) uint64 array: the block
    numpy's `Philox(key=seed)` makes after its counter has been advanced to
    that value.

    Each round multiplies the words (x0, x2) by their two constants and
    xors the high halves into (x3, x1); both products run as one (2, k)
    array op, with the 64x64->128-bit product taken through 32-bit halves,
    in place, `_SLICE` counters at a time.  `pair` holds (x0, x2) and
    `other` (x1, x3), each possibly a reversed view of its buffer."""
    import numpy as np

    u64 = np.uint64
    mult = np.array([[_PHILOX_M[0]], [_PHILOX_M[1]]], dtype=np.uint64)
    m_hi, m_lo = mult >> u64(32), mult & u64(0xFFFFFFFF)
    low, half = u64(0xFFFFFFFF), u64(32)
    # round r's key (k0 + r w0, k1 + r w1) mod 2**64, ordered (k1, k0) to
    # meet (hi0 ^ x3, hi1 ^ x1)
    keys = [np.array([[((seed >> 64) + r * _PHILOX_W[1]) & _M64],
                      [(seed + r * _PHILOX_W[0]) & _M64]], dtype=np.uint64) for r in range(10)]
    counters = np.asarray(counters, dtype=np.uint64)
    out = np.empty((len(counters), 4), dtype=np.uint64)
    buffers = np.empty((8, 2, min(_SLICE, len(counters))), dtype=np.uint64)
    for lo in range(0, len(counters), _SLICE):
        k = min(_SLICE, len(counters) - lo)
        pair, other, high, a_lo, a_hi, ll, hl, lh = buffers[:, :, :k]
        pair[0], pair[1], other[:] = counters[lo:lo + k], 0, 0
        for key in keys:
            np.bitwise_and(pair, low, out=a_lo)
            np.right_shift(pair, half, out=a_hi)
            np.multiply(a_lo, m_lo, out=ll)
            np.right_shift(ll, half, out=ll)
            np.multiply(a_hi, m_lo, out=hl)
            np.multiply(a_lo, m_hi, out=lh)
            np.add(ll, lh, out=ll)
            np.bitwise_and(hl, low, out=lh)
            np.add(ll, lh, out=ll)  # the middle column of the product
            np.right_shift(ll, half, out=ll)
            np.right_shift(hl, half, out=hl)
            np.multiply(a_hi, m_hi, out=high)
            np.add(high, hl, out=high)
            np.add(high, ll, out=high)  # (hi0, hi1)
            np.multiply(pair, mult, out=pair)  # (lo0, lo1)
            np.bitwise_xor(high, other[::-1], out=high)
            np.bitwise_xor(high, key, out=high)  # (new x2, new x0)
            pair, other, high = high[::-1], pair[::-1], other  # new x1, x3 = lo1, lo0
        out[lo:lo + k, 0::2], out[lo:lo + k, 1::2] = pair.T, other.T
    return out


def _uniforms(seed: int, horizon: int, rows, col: int, width: int):
    """Columns col .. col+width-1 of `rows` of the (samples, horizon+1)
    uniform matrix of `seed`: exactly the doubles (word >> 11) * 2**-53 that
    `Generator(Philox(key=seed)).random` draws at those stream positions,
    computed from the blocks that hold them alone.  Position p is word p % 4
    of the block at counter p // 4 + 1."""
    import numpy as np

    start = np.asarray(rows, dtype=np.int64) * (horizon + 1) + col
    first = start // 4
    count = (start + width - 1) // 4 - first + 1  # blocks of each row
    offset = np.cumsum(count) - count  # each row's first block in the list
    blocks = np.repeat(first - offset, count) + np.arange(count.sum())
    words = _philox(seed, blocks + 1).reshape(-1)
    index = (4 * offset + start % 4)[:, None] + np.arange(width)
    return (words[index] >> np.uint64(11)) * (1.0 / 2 ** 53)


def _lazy_draw(seed: int, horizon: int, rows, col: int, width: int):
    """`_uniforms` as `_Walker.walk`'s `draw` answers: the window and each
    row's place in it."""
    import numpy as np

    return _uniforms(seed, horizon, rows, col, width), np.arange(len(rows))


def sample_play(model: Pomdp, strategy, start: str, horizon: int, seed: int,
                index: int = 0) -> Tuple[str, ...]:
    """One play prefix of `horizon` steps, reproducible from (seed, index):
    row `index` of the uniform matrix, computed alone by `_uniforms`.

    `strategy` may be a finite-memory strategy or a finite mixture; a mixture
    draws its pure member once, from the first draw of the sample's row.
    """
    import numpy as np

    u = _uniforms(seed, horizon, [index], 0, horizon + 1)[0]
    if isinstance(strategy, FiniteMixture):
        strategy = strategy.support[np.searchsorted(_cuts(strategy.weights), u[0], side="right")]
    walker = _Walker(model, strategy, start, ())
    node = 0
    out: List[str] = [walker.nodes[node][0]]
    for r in u[1:]:
        a, _p, node = walker.edges[node][int((walker.cum[:, node] <= r).sum())]
        out += [a, walker.nodes[node][0]]
    return tuple(out)


def _cuts(weights) -> List[float]:
    """Cumulative float weights, the last forced to 1.0: member i owns the
    first draws in [cuts[i-1], cuts[i]), so a draw's member is
    `np.searchsorted(cuts, draw, side="right")`."""
    acc = 0.0
    cuts = []
    for w in weights:
        acc += float(w)
        cuts.append(acc)
    cuts[-1] = 1.0
    return cuts


def estimate_expectation(model: Pomdp, strategy, start: str, dims: MultiPayoff,
                         cfg: SampleConfig) -> Estimate:
    """Sample means of horizon-truncated payoffs with standard errors.

    Bias bounds: discounted sums carry the geometric tail bound
    W * lambda^H / (1 - lambda) (gated variants likewise once the gate has
    resolved); other kinds report None and expose a censored/unresolved count
    instead.
    """
    import numpy as np

    n, horizon, seed = cfg.samples, cfg.horizon, cfg.seed
    for spec in dims:
        if isinstance(spec, BuchiIndicator):
            raise UnsupportedKind("Buchi indicators are not horizon-determined; "
                                  "no truncation policy is provided")
    if isinstance(strategy, FiniteMixture):
        members, weights = strategy.support, strategy.weights
    else:
        members, weights = (strategy,), (1,)  # cuts [1.0]: every draw of [0, 1)
    cuts = _cuts(weights)
    walker = cache(lambda i: _Walker(model, members[i], start, dims))  # built on first use
    lazy = _draws_lazily(walker, [float(w) for w in weights], n, horizon)
    values = np.zeros((n, len(dims)), dtype=np.float64)
    resolved = np.ones((n, len(dims)), dtype=bool)
    if lazy:
        size, draw = _LAZY_CHUNK, partial(_lazy_draw, seed, horizon)
    else:
        size = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * (horizon + 1))))
        gen = np.random.Generator(np.random.Philox(key=seed))
        chunk = np.empty((min(size, n), horizon + 1), dtype=np.float64)
    for lo in range(0, n, size):
        m = min(size, n - lo)
        if not lazy:
            u = gen.random(out=chunk[:m])
            draw = partial(_chunk_draw, u, lo)
        if len(members) == 1:
            owner = np.zeros(m, dtype=np.int64)
        else:
            first = _uniforms(seed, horizon, np.arange(lo, lo + m), 0, 1)[:, 0] if lazy else u[:, 0]
            owner = np.searchsorted(cuts, first, side="right")
        for i in range(len(members)):
            mine = lo + np.flatnonzero(owner == i)
            if len(mine):
                acc, hit = walker(i).walk(draw, mine, horizon)
                _store(dims, mine, acc, hit, values, resolved)

    means, errs, censored = [], [], []
    for j in range(len(dims)):
        ok = resolved[:, j]
        censored.append(int(n - ok.sum()))
        data = values[ok, j] if ok.any() else np.zeros(1)
        means.append(float(data.mean()))
        errs.append(float(data.std(ddof=1) / math.sqrt(max(len(data), 1))) if len(data) > 1 else 0.0)

    return Estimate(
        mean=tuple(means), stderr=tuple(errs), samples=n, horizon=horizon, seed=seed,
        bias_bound=tuple(_bias_bound(spec, horizon) for spec in dims),
        censored=tuple(censored),
    )


def _chunk_draw(u, lo: int, rows, col: int, width: int):
    """Columns col .. col+width-1 of `rows` as `_Walker.walk`'s `draw`
    answers, read in place from the filled chunk `u` of the rows from `lo`
    on: its columns and each row's place in them."""
    return u[:, col:col + width], rows - lo


def _draws_lazily(walker, weights: Sequence[float], n: int, horizon: int) -> bool:
    """Whether drawing each `_WINDOW` columns for the live samples alone is
    expected to cost less than filling every row whole; `walker(i)` is
    member i's walker, drawn with probability `weights[i]`.

    A sample opens the window at step t = 0, W, 2W, ... while it is live,
    with the probability `_Walker.live_mass` follows on the member's float
    chain; a window of width w holds (w + 3) / 4 blocks on average, and each
    lazy chunk's call costs `_CALL_US` while any of its samples is live
    (expected number, capped at one).  A mixture first draws column 0 of
    every row.  The live mass never grows, so the sum stops as soon as
    either side is sure to win."""
    dense = n * (horizon + 1) / 4 * _FILL_US
    chunks = -(-n // _LAZY_CHUNK)
    lazy = 0.0 if len(weights) == 1 else n * _BLOCK_US + chunks * _CALL_US
    if lazy + n * (min(_WINDOW, horizon) + 3) / 4 * _BLOCK_US + chunks * _CALL_US > dense:
        return False  # dearer even if every sample settled after one window
    masses = [walker(i).live_mass() for i in range(len(weights))]
    windows = range(0, horizon, _WINDOW)
    for k, t in enumerate(windows):
        live = sum(w * next(mass) for w, mass in zip(weights, masses))
        cost = (n * live * (min(_WINDOW, horizon - t) + 3) / 4 * _BLOCK_US
                + chunks * min(1.0, _LAZY_CHUNK * live) * _CALL_US)
        lazy += cost
        if lazy > dense or lazy + (len(windows) - k - 1) * cost <= dense:
            break
    return lazy <= dense


def _bias_bound(spec, horizon: int) -> Optional[Fraction]:
    if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum)):
        lam = spec.discount
        w = spec.weights.max_abs
        return w * lam ** horizon / (1 - lam) if lam > 0 else Fraction(0)
    return None


class _Walker:
    """One member's moves over the transition table, flattened for the walk.

    `nodes` are the (state, memory) pairs the member reaches from (start,
    init), node 0, numbered by `closure` over the member's moves in the
    table: breadth-first, in the member's distribution order and then the
    table's.  `edges[i]` lists node i's joint moves (action a,
    probability alpha(a) * p(t), successor node of state t), one per action
    played and successor state, in model action order and then model state
    order.  Each step consumes one uniform draw r and picks one edge; the
    law is exactly "draw the action, then the successor".  Edge k of node i
    sits at flat index i*deg + k.  `cum[k, i]` is the float probability of
    node i's first k+1 edges, forced to exactly 1.0 at its last edge
    (absorbing rounding) and padded with 1.0 up to `deg` edges; row deg-1,
    all 1.0, is left out.  No draw reaches 1.0, so r picks edge
    k = #{entries <= r} of its node.  Alongside are the successors and
    per-dimension edge weights at the flat edge indices, node target flags,
    and the settled nodes.
    """

    def __init__(self, model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                 dims: MultiPayoff):
        import numpy as np

        table = transition_table(model, strategy.skeleton, [start])
        edges: List[Tuple[Tuple[str, Fraction, int], ...]] = []
        action_rank = {a: k for k, a in enumerate(model.actions)}
        state_rank = {t: k for k, t in enumerate(model.states)}

        def expand(node, number):
            s, mem = table.nodes[node]
            moves = sorted((action_rank[a], state_rank[table.nodes[nxt][0]], a, alpha * p,
                            number(nxt))
                           for a, alpha in strategy.choice(mem, model.obs[s])
                           for nxt, p in table.moves[node][a])
            edges.append(tuple(move[2:] for move in moves))

        self.nodes = [table.nodes[node] for node in closure([0], expand)]
        self.edges = edges
        n = len(edges)
        self.dims = len(dims)
        self.deg = deg = max(len(moves) for moves in edges)
        cum = np.ones((deg, n), dtype=np.float64)
        self.next = np.zeros(n * deg, dtype=np.int64)
        for i, moves in enumerate(edges):
            acc = 0.0
            for k, (_a, p, j) in enumerate(moves):
                acc += float(p)
                cum[k, i] = acc
                self.next[i * deg + k] = j
            cum[len(moves) - 1, i] = 1.0
        self.cum = cum[:-1]
        self.weights = {}    # dimension -> flat edge weights
        self.discount = {}   # dimension -> float discount (discounted kinds)
        self.flags = {}      # dimension -> node target flags
        for j, spec in enumerate(dims):
            if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum, TotalRewardNonNeg,
                                 ShortestPath)):
                w = np.zeros(n * deg, dtype=np.float64)
                for i, moves in enumerate(edges):
                    s = self.nodes[i][0]
                    for k, (a, _p, _j) in enumerate(moves):
                        value = spec.weights(s, a)
                        try:
                            w[i * deg + k] = float(value)
                        except OverflowError:
                            raise SchemaError(f"weight {format_rational(value)} of ({s}, {a}) lies "
                                              "beyond the float range of the simulation") from None
                self.weights[j] = w
            if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum)):
                self.discount[j] = float(spec.discount)
            if isinstance(spec, (ReachIndicator, ReachGatedDiscountedSum, ShortestPath)):
                self.flags[j] = np.array([s in spec.target for s, _m in self.nodes], dtype=bool)
        self.until_hit = {j for j, spec in enumerate(dims) if isinstance(spec, ShortestPath)}
        # Shortest-path weights cannot unsettle a node: where no flag changes
        # any more, a sample that has hit the target adds nothing, and one
        # that has not is censored whatever it adds.
        self.settled = self._settled(
            [w for j, w in self.weights.items() if j not in self.until_hit])

    def _settled(self, edge_weights):
        """Nodes from which no reachable edge has a nonzero weight in any of
        `edge_weights` and every reachable node carries the node's own
        target flags: all but the predecessor closure of the nodes that
        break this locally."""
        import numpy as np

        n = len(self.nodes)
        unsettled = np.zeros(n, dtype=bool)
        for w in edge_weights:
            unsettled |= (w != 0).reshape(n, self.deg).any(axis=1)
        preds: List[List[int]] = [[] for _ in range(n)]
        for i, moves in enumerate(self.edges):
            for _a, _p, j in moves:
                preds[j].append(i)
                if any(f[i] != f[j] for f in self.flags.values()):
                    unsettled[i] = True
        unsettled[closure(np.flatnonzero(unsettled).tolist(),
                          lambda j, number: [number(i) for i in preds[j]])] = True
        return ~unsettled

    def live_mass(self):
        """An endless iterator of P(a sample is still live) at steps 0, W,
        2W, ... with W = `_WINDOW`, on the float chain: the settled nodes
        are closed under the moves, so it is the mass e_0 T^t puts on the
        unsettled ones, stepped with T^W restricted to them.  A walker with
        more than `_MASS_NODES` unsettled nodes reports 1.0 throughout."""
        import numpy as np

        live = np.flatnonzero(~self.settled)
        if self.settled[0] or len(live) > _MASS_NODES:
            return repeat(0.0 if self.settled[0] else 1.0)
        index = np.full(len(self.nodes), -1)
        index[live] = np.arange(len(live))
        step = np.zeros((len(live), len(live)))
        for i in live:
            for _a, p, j in self.edges[i]:
                if index[j] >= 0:
                    step[index[i], index[j]] += float(p)
        mass = np.zeros(len(live))
        mass[index[0]] = 1.0
        masses = accumulate(repeat(np.linalg.matrix_power(step, _WINDOW)), np.matmul, initial=mass)
        return (float(m.sum()) for m in masses)

    def walk(self, draw, rows, horizon: int):
        """Walk samples `rows` (rows of the uniform matrix) from node 0 for
        `horizon` steps; step t reads column t+1.  Every `_WINDOW` steps the
        walk draws the next window for the samples still live:
        `draw(rows, col, width)` answers (block, index), where row index[i]
        of block holds columns col .. col+width-1 of rows[i].  Returns the
        samples' (dims, len(rows)) accumulated sums and target hits.

        Settled samples leave the live arrays and their window rows with
        their sums and hits written back; the rest walk the whole
        horizon."""
        import numpy as np

        m = len(rows)
        acc = np.zeros((self.dims, m), dtype=np.float64)
        hit = np.zeros((self.dims, m), dtype=bool)
        for j, flags in self.flags.items():
            hit[j] = flags[0]
        pos = np.arange(m)  # index into `rows` of each live sample
        slot = pos  # row of each live sample in the window
        state = np.zeros(m, dtype=np.int64)
        live_acc, live_hit = acc.copy(), hit.copy()
        discount_pow = {j: 1.0 for j in self.discount}
        for t in range(horizon):
            done = self.settled.take(state)
            if done.any():
                acc[:, pos[done]] = live_acc[:, done]
                hit[:, pos[done]] = live_hit[:, done]
                keep = np.flatnonzero(~done)
                if len(keep) == 0:
                    return acc, hit
                pos, state, slot = pos.take(keep), state.take(keep), slot.take(keep)
                live_acc, live_hit = live_acc.take(keep, axis=1), live_hit.take(keep, axis=1)
            if t % _WINDOW == 0:
                window, slot = draw(rows.take(pos), t + 1, min(_WINDOW, horizon - t))
            r = window[:, t % _WINDOW].take(slot)
            edge = state * self.deg + (self.cum.take(state, axis=1) <= r).sum(axis=0)
            for j, w in self.weights.items():
                w = w.take(edge)
                if j in discount_pow:
                    live_acc[j] += discount_pow[j] * w
                elif j in self.until_hit:
                    live_acc[j] += np.where(live_hit[j], 0.0, w)
                else:
                    live_acc[j] += w
            state = self.next.take(edge)
            for j in discount_pow:
                discount_pow[j] *= self.discount[j]
            for j, flags in self.flags.items():
                live_hit[j] |= flags.take(state)
        acc[:, pos] = live_acc
        hit[:, pos] = live_hit
        return acc, hit


def _store(dims, rows, acc, hit, values, resolved):
    """Payoff values of walked samples from their sums and target hits."""
    import numpy as np

    for j, spec in enumerate(dims):
        if isinstance(spec, ReachIndicator):
            values[rows, j] = hit[j].astype(np.float64)
        elif isinstance(spec, (DiscountedSum, TotalRewardNonNeg)):
            values[rows, j] = acc[j]
        elif isinstance(spec, (ReachGatedDiscountedSum, ShortestPath)):
            values[rows, j] = np.where(hit[j], acc[j], 0.0)
            if isinstance(spec, ShortestPath):
                resolved[rows[~hit[j]], j] = False
        else:
            raise UnsupportedKind(type(spec).__name__)


# -- convergence probes -------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    index: int
    vector: ExtRealVector
    premetric_sq: Fraction  # squared distance to the limit strategy


@dataclass(frozen=True)
class ProbeTable:
    rows: Tuple[ProbeRow, ...]
    limit_vector: ExtRealVector


def convergence_probe(model: Pomdp, family: Sequence[Tuple[int, FiniteMemoryStrategy]],
                      limit: FiniteMemoryStrategy, start: str, dims: MultiPayoff,
                      premetric_horizon: int) -> ProbeTable:
    """Exact payoff vectors along a strategy family, with the squared
    premetric to the limit strategy, for convergence (or divergence)
    assertions."""
    rows = []
    for index, member in family:
        vec = expected_payoff(model, member, start, dims)
        dist = strategy_premetric(model, member, limit, premetric_horizon)
        rows.append(ProbeRow(index, vec, dist))
    return ProbeTable(tuple(rows), expected_payoff(model, limit, start, dims))
