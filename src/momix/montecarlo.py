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

The matrix is never built whole.  Each member walks its samples as one
live set, a window of `_WINDOW` steps at a time, for which the live
samples' next columns are drawn, at most `_LAZY_CHUNK` samples at a time.
Step t moves each sample along the flat edge index (node*deg + k) its draw
in column t+1 picks (k counts the node's joint moves in the order of
`_Walker.edges`), with one gather from a table fusing the edge weights of
all summed dimensions, one add and one or of target bitmasks.  The
walker's nodes are the one `model.closure` of the member's moves over its
transition table, numbered breadth-first from (start, init).  A sample is
*settled* once it stands on a node from which no reachable edge carries
weight in any discounted or total-reward dimension and every reachable
node has the node's own target flags (a shortest path then adds nothing,
or is censored): nothing it accumulates can change any more, so it leaves
the walk at the end of the window, with its values stored exactly as the
full-horizon walk would leave them.

The columns are drawn one of two ways, decided once per estimate by
`_draws_lazily` from the members' float chains, whichever is expected to
cost less: filled whole, up to `_CHUNK` rows and `_CHUNK_BYTES` at a time
from one generator into one reused buffer and walked chunk by chunk, or
lazily, each window computed by `_philox` for the live samples alone.
Both read the same matrix, so they give the same estimate to the last bit.
Positions are int64, so samples * (horizon + 1) may be at most 2**63.

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
        if self.samples * (self.horizon + 1) > 2 ** 63:
            raise ValueError("samples * (horizon + 1) exceeds 2**63, the int64 stream positions")


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
# made; a filled chunk also holds at most `_CHUNK_BYTES` of doubles (and at
# least one row), so its buffer stays bounded at any horizon; up to horizon
# 1,023 that is all `_CHUNK` rows.  The most samples a window is drawn (in
# one `_uniforms` call) and walked for at a time.
_CHUNK = 4096
_CHUNK_BYTES = 32 * 2 ** 20
_LAZY_CHUNK = 16384
# Steps walked between two draws of the live samples' next columns.
_WINDOW = 8
# Costs in microseconds, min of 15 to 50 calls with numpy 2.4 on a shared
# 2-vCPU x86-64 Linux host: `_uniforms` computes a 4-word block in 0.10 us
# (50,000 rows of a window of 8, in 19 kernel calls), any kernel call costs
# about 190 us however few blocks it computes (150 us of it in `_philox`),
# and `Generator.random` fills a block in 0.0183 us.  Only ratios matter.
_BLOCK_US, _CALL_US, _FILL_US = 0.10, 190.0, 0.0183
# Counters per `_philox` call (together with one window's output, at most
# 4 MiB for 50,000 rows), and the largest number of unsettled walker nodes
# whose live mass `_draws_lazily` follows.
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
    xors the high halves into (x3, x1), with the 64x64->128-bit product
    taken through 32-bit halves, in place, `_SLICE` counters at a time.
    Rounds 1 and 2 multiply one lane: x2 is 0 in round 1, and x0 is the
    key after it.  From round 3 on both products run as one (2, k) array
    op on `pair` (x0, x2) and `other` (x1, x3), each possibly a reversed
    view; the roles cycle through three buffers with period 3, so that
    after round 10 they are the output's own rows."""
    import numpy as np

    u64 = np.uint64
    low, half = u64(0xFFFFFFFF), u64(32)

    def mulhilo(a, m, high, a_lo, ll, hl):  # high, a = the words of a * m[0]; m[1:] its halves
        m, m_hi, m_lo = m
        np.bitwise_and(a, low, out=a_lo)
        np.right_shift(a, half, out=high)  # a_hi
        np.multiply(a_lo, m_lo, out=ll)
        np.right_shift(ll, half, out=ll)
        np.multiply(high, m_lo, out=hl)
        np.multiply(a_lo, m_hi, out=a_lo)
        np.add(ll, a_lo, out=ll)
        np.bitwise_and(hl, low, out=a_lo)
        np.add(ll, a_lo, out=ll)  # the middle column of the product
        np.right_shift(ll, half, out=ll)
        np.right_shift(hl, half, out=hl)
        np.multiply(high, m_hi, out=high)
        np.add(high, hl, out=high)
        np.add(high, ll, out=high)
        np.multiply(a, m, out=a)

    # round r's key (k0 + r w0, k1 + r w1) mod 2**64
    keys = [((seed + r * _PHILOX_W[0]) & _M64, ((seed >> 64) + r * _PHILOX_W[1]) & _M64)
            for r in range(10)]
    x0_hi, x3 = divmod(keys[0][0] * _PHILOX_M[0], 2 ** 64)  # round 2's product of x0
    halves = [(m, m >> 32, m & 0xFFFFFFFF) for m in _PHILOX_M]  # each multiplier, high, low
    lanes, mult = [[*map(u64, h)] for h in halves], np.array(halves, dtype=np.uint64).T[:, :, None]
    # rounds 3-10, ordered (k1, k0) to meet (hi0 ^ x3, hi1 ^ x1)
    pair_keys = [np.array([[k1], [k0]], dtype=np.uint64) for k0, k1 in keys[2:]]
    counters = np.asarray(counters, dtype=np.uint64)
    words = np.empty((2, 2, len(counters)), dtype=np.uint64)  # [[x0, x1], [x2, x3]]
    buffers = np.empty((4, 2, min(_SLICE, len(counters))), dtype=np.uint64)
    for lo in range(0, len(counters), _SLICE):
        k = min(_SLICE, len(counters) - lo)
        pair, a_lo, ll, hl = buffers[:, :, :k]
        other, high = words[::-1, 0, lo:lo + k], words[:, 1, lo:lo + k]
        pair[1] = counters[lo:lo + k]
        mulhilo(pair[1], lanes[0], other[0], a_lo[0], ll[0], hl[0])  # round 1: x3 in pair[1]
        np.bitwise_xor(other[0], u64(keys[0][1]), out=other[0])  # x2
        mulhilo(other[0], lanes[1], pair[0], a_lo[0], ll[0], hl[0])  # round 2: x1 in other[0]
        np.bitwise_xor(pair[0], u64(keys[1][0]), out=pair[0])  # x0
        np.bitwise_xor(pair[1], u64(x0_hi ^ keys[1][1]), out=pair[1])  # x2
        other[1] = x3
        for key in pair_keys:
            mulhilo(pair, mult, high, a_lo, ll, hl)  # (hi0, hi1), pair (lo0, lo1)
            np.bitwise_xor(high, other[::-1], out=high)
            np.bitwise_xor(high, key, out=high)  # (new x2, new x0)
            pair, other, high = high[::-1], pair[::-1], other  # new x1, x3 = lo1, lo0
    return words.reshape(4, -1).T


def _uniforms(seed: int, horizon: int, rows, col: int, width: int):
    """Columns col .. col+width-1 of `rows` of the (samples, horizon+1)
    uniform matrix of `seed`: exactly the doubles (word >> 11) * 2**-53 that
    `Generator(Philox(key=seed)).random` draws at those stream positions,
    computed from the blocks that hold them alone, one `_philox` call per
    slice of rows.  Position p is word p % 4 of the block at counter
    p // 4 + 1."""
    import numpy as np

    out = np.empty((len(rows), width), dtype=np.float64)
    per = max(1, _SLICE // ((width + 2) // 4 + 1))  # a row spans at most (width+2)//4 + 1 blocks
    for lo in range(0, len(rows), per):
        start = np.asarray(rows[lo:lo + per], dtype=np.int64) * (horizon + 1) + col
        count = (start + width - 1) // 4 - start // 4 + 1  # blocks of each row
        skip = np.cumsum(count) - count - start // 4  # row's first block in the slice - its counter
        counters = np.repeat(-skip, count).astype(np.uint64)  # below 0 wraps; += wraps back
        counters += np.arange(1, len(counters) + 1, dtype=np.uint64)
        words = _philox(seed, counters).T.reshape(-1)  # word w of block b at w * len(counters) + b
        pos = start[:, None] + np.arange(width)
        index = pos >> 2
        index += skip[:, None]
        pos &= 3
        pos *= len(counters)
        index += pos
        bits = words.take(index, out=pos.view(np.uint64), mode="clip")  # clip: into pos, no copy
        bits >>= np.uint64(11)
        np.multiply(bits, 1.0 / 2 ** 53, out=out[lo:lo + per])
        del words, pos, index, bits  # before the next slice's kernel call
    return out


def sample_play(model: Pomdp, strategy, start: str, horizon: int, seed: int,
                index: int = 0) -> Tuple[str, ...]:
    """One play prefix of `horizon` steps, reproducible from (seed, index):
    row `index` of the uniform matrix, computed alone by `_uniforms`.

    `strategy` may be a finite-memory strategy or a finite mixture; a mixture
    draws its pure member once, from the first draw of the sample's row.
    """
    import numpy as np

    if (index + 1) * (horizon + 1) > 2 ** 63:
        raise ValueError("(index + 1) * (horizon + 1) exceeds 2**63, the int64 stream positions")
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
        size, draw = n, partial(_uniforms, seed, horizon)  # one chunk, walked window by window
    else:
        size = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * (horizon + 1))))
        gen = np.random.Generator(np.random.Philox(key=seed))
        chunk = np.empty((min(size, n), horizon + 1), dtype=np.float64)
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        if not lazy:
            draw = partial(_chunk_draw, gen.random(out=chunk[:hi - lo]), lo)
        if len(members) == 1:
            groups = [range(lo, hi)]
        else:
            first = np.concatenate([draw(np.arange(a, min(hi, a + _LAZY_CHUNK)), 0, 1)[:, 0]
                                    for a in range(lo, hi, _LAZY_CHUNK)])
            owner = np.searchsorted(cuts, first, side="right")
            groups = [lo + np.flatnonzero(owner == i) for i in range(len(members))]
        for i, rows in enumerate(groups):
            if len(rows):
                walker(i).walk(draw, rows, horizon, partial(_store, dims, walker(i), values, resolved))

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
    """`_Walker.walk`'s `draw` from the filled chunk `u` of the rows from `lo` on."""
    return u[rows - lo, col:col + width]


def _draws_lazily(walker, weights: Sequence[float], n: int, horizon: int) -> bool:
    """Whether drawing each `_WINDOW` columns for the live samples alone is
    expected to cost less than filling every row whole; `walker(i)` is
    member i's walker, drawn with probability `weights[i]`.

    A sample opens the window at step t = 0, W, 2W, ... while it is live,
    with the probability `_Walker.live_mass` follows on the member's float
    chain; a window of width w holds (w + 3) / 4 blocks on average, and the
    live rows are drawn in kernel calls of at most `_SLICE` blocks (at
    least one call while any sample is live, in expectation).  A mixture
    first draws column 0 of every row.  The live mass never grows, so the
    sum stops as soon as either side is sure to win."""
    dense = n * (horizon + 1) / 4 * _FILL_US

    def window(rows, width):
        calls = max(min(1.0, rows), rows * ((width + 2) // 4 + 1) / _SLICE)
        return rows * (width + 3) / 4 * _BLOCK_US + calls * _CALL_US

    lazy = 0.0 if len(weights) == 1 else window(n, 1)
    if lazy + window(n, min(_WINDOW, horizon)) > dense:
        return False  # dearer even if every sample settled after one window
    masses = [walker(i).live_mass() for i in range(len(weights))]
    windows = range(0, horizon, _WINDOW)
    for k, t in enumerate(windows):
        cost = window(n * sum(w * next(mass) for w, mass in zip(weights, masses)),
                      min(_WINDOW, horizon - t))
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
    k = #{entries <= r} of its node.  The step tables are fused across
    dimensions: `weights` holds one column per summed dimension j (column
    `column[j]`) at the flat edge indices, `factor` each column's discount
    or 1.0, and `flags` one target bitmask per node (bit `bit[j]`).
    `until_hit` pairs each shortest-path column with its target bit.
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
        summed = [j for j, spec in enumerate(dims) if isinstance(
            spec, (DiscountedSum, ReachGatedDiscountedSum, TotalRewardNonNeg, ShortestPath))]
        targeted = [j for j, spec in enumerate(dims)
                    if isinstance(spec, (ReachIndicator, ReachGatedDiscountedSum, ShortestPath))]
        self.column = {j: c for c, j in enumerate(summed)}
        self.bit = {j: b for b, j in enumerate(targeted)}
        self.weights = np.zeros((n * deg, len(summed)), dtype=np.float64)
        for c, j in enumerate(summed):
            for i, moves in enumerate(edges):
                s = self.nodes[i][0]
                for k, (a, _p, _j) in enumerate(moves):
                    value = dims[j].weights(s, a)
                    try:
                        self.weights[i * deg + k, c] = float(value)
                    except OverflowError:
                        raise SchemaError(f"weight {format_rational(value)} of ({s}, {a}) lies "
                                          "beyond the float range of the simulation") from None
        self.factor = np.array([float(getattr(dims[j], "discount", 1)) for j in summed])
        self.flags = np.array([sum(1 << self.bit[j] for j in targeted if s in dims[j].target)
                               for s, _m in self.nodes],
                              dtype=np.min_scalar_type((1 << len(targeted)) - 1))
        self.until_hit = [(self.column[j], 1 << self.bit[j]) for j in summed
                          if isinstance(dims[j], ShortestPath)]
        self.settled = self._settled()

    def _settled(self):
        """Nodes from which no reachable edge has a nonzero weight in a
        column but the shortest-path ones and every reachable node carries
        the node's own target flags: all but the predecessor closure of the
        nodes that break this locally.  (Where no flag changes any more, a
        shortest-path sample that has hit the target adds nothing, and one
        that has not is censored whatever it adds.)"""
        import numpy as np

        n = len(self.nodes)
        summed = np.delete(self.weights, [c for c, _bit in self.until_hit], axis=1)
        unsettled = (summed != 0).reshape(n, -1).any(axis=1)
        preds: List[List[int]] = [[] for _ in range(n)]
        for i, moves in enumerate(self.edges):
            for _a, _p, j in moves:
                preds[j].append(i)
                if self.flags[i] != self.flags[j]:
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

    def walk(self, draw, rows, horizon: int, store):
        """Walk samples `rows` (an array or a range of rows of the uniform
        matrix) from node 0 for `horizon` steps; step t reads column t+1.
        The live set advances a window at a time in slices of at most
        `_LAZY_CHUNK`, each drawn by `draw(rows, col, width)`; the first
        window starts each slice's samples itself.  A slice stops stepping
        once all its samples are settled, and at the window's end they
        leave through `store(rows, sums, hits)`.  A settled sample walked
        on changes nothing `_store` reads: settled nodes are closed under
        the moves, weigh 0 but in shortest-path columns and keep their
        target bits, and a shortest-path sample that has not hit its target
        is censored whatever it adds."""
        import numpy as np

        live = None  # (rows, nodes, sums, hits) of the samples still walking
        settles = self.settled.any()
        power = np.ones(len(self.factor))
        for t in range(0, horizon, _WINDOW):
            width = min(_WINDOW, horizon - t)
            # each step's discount powers, one multiplication a step
            powers = list(accumulate(repeat(self.factor, width), np.multiply, initial=power))
            power = powers.pop()
            kept = []
            for lo in range(0, len(rows if live is None else live[0]), _LAZY_CHUNK):
                if live is None:
                    pos = rows[lo:lo + _LAZY_CHUNK]
                    pos = np.arange(pos.start, pos.stop) if isinstance(pos, range) else pos
                    state = np.zeros(len(pos), dtype=np.int64)
                    acc = np.zeros((len(pos), len(self.factor)), dtype=np.float64)
                    hit = np.full(len(pos), self.flags[0], dtype=self.flags.dtype)
                else:
                    pos, state, acc, hit = (a[lo:lo + _LAZY_CHUNK] for a in live)
                window = draw(pos, t + 1, width)
                for k in range(width):
                    if settles and self.settled.take(state).all():
                        break
                    state = self._step(window[:, k], state, acc, hit, powers[k])
                done = self.settled.take(state)
                if done.any():
                    store(pos[done], acc[done], hit[done])
                    pos, state, acc, hit = pos[~done], state[~done], acc[~done], hit[~done]
                kept.append((pos, state, acc, hit))
            live = kept[0] if len(kept) == 1 else tuple(map(np.concatenate, zip(*kept)))
            if not len(live[0]):
                return
        store(live[0], live[2], live[3])

    def _step(self, r, state, acc, hit, power):
        """The successors of samples at nodes `state` along the edges their
        draws `r` pick; adds the edges' weights times `power` (0 in a hit
        shortest-path column) to `acc` and their target bits to `hit`."""
        import numpy as np

        edge = state * self.deg
        for cut in self.cum:  # one gather a threshold: k = #{cum[:, node] <= r}
            edge += cut.take(state) <= r
        if len(power):
            w = (self.weights * power).take(edge, axis=0)
            for col, bit in self.until_hit:
                w[:, col] *= (hit & bit) == 0
            acc += w
        state = self.next.take(edge)
        if self.bit:
            hit |= self.flags.take(state)
        return state


def _store(dims, walker, values, resolved, rows, acc, hit):
    """Payoff values of walked samples `rows` from their sums and target bits."""
    import numpy as np

    for j, spec in enumerate(dims):
        if j in walker.bit:
            reached = (hit & (1 << walker.bit[j])) != 0
        if isinstance(spec, ReachIndicator):
            values[rows, j] = reached
        elif isinstance(spec, (DiscountedSum, TotalRewardNonNeg)):
            values[rows, j] = acc[:, walker.column[j]]
        elif isinstance(spec, (ReachGatedDiscountedSum, ShortestPath)):
            values[rows, j] = np.where(reached, acc[:, walker.column[j]], 0.0)
            if isinstance(spec, ShortestPath):
                resolved[rows[~reached], j] = False
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
