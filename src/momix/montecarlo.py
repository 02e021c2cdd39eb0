"""Seeded Monte-Carlo estimation cross-checking the exact evaluator.

This is the only module that touches floating point, and the only one that
imports numpy, inside the functions that sample, so the exact subcommands
never load it.  Randomness comes from the counter-based Philox generator
with an explicit 64-bit seed; sample i consumes exactly the i-th row of the
(n, horizon+1) uniform matrix, so estimates are bit-identical across runs
and individual plays can be replayed from their sample index alone
(`sample_play` advances the Philox counter to the row instead of drawing
the rows before it).

The matrix is never built whole: `estimate_expectation` draws it in
consecutive chunks of `_CHUNK` rows from one generator, into one reused
buffer, which yields exactly the rows of the full matrix.  Each chunk is
walked step by step, all its samples at once: step t takes the live samples'
draws from column t+1 and moves them along flat edge indices (node*deg + k),
k counting the node's joint (action, successor) moves in the order of
`_Walker.edges`: action order, then successor *state* order.  The walker's
nodes are the one `model.closure` of the member's moves over its transition
table, numbered breadth-first from (start, init).  Memory is
O(chunk x horizon) plus one value per sample and dimension.  A
sample is *settled* once it stands on a node from which no reachable edge
carries weight in any discounted or total-reward dimension and every
reachable node has the node's own target flags (a shortest path then adds
nothing, or is censored): nothing it accumulates can change any more, so it
leaves the walk early with its sums and target hits exactly as the
full-horizon walk would leave them, and the walk of a chunk ends when no
sample is left.

Shortest-path samples that do not reach the target within the horizon are
*censored*: they are excluded from the mean and reported through a count,
because the payoff is +inf on non-reaching plays and no unbiased finite
estimator exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import UnsupportedKind
from .evaluate import expected_payoff
from .model import Pomdp, closure
from .payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff, ReachGatedDiscountedSum,
                      ReachIndicator, ShortestPath, TotalRewardNonNeg)
from .rationals import ExtRealVector
from .strategies import FiniteMemoryStrategy, FiniteMixture, strategy_premetric, transition_table


@dataclass(frozen=True)
class SampleConfig:
    samples: int
    horizon: int
    seed: int

    def __post_init__(self):
        if self.samples < 1 or self.horizon < 1:
            raise ValueError("samples and horizon must be >= 1")


@dataclass(frozen=True)
class Estimate:
    mean: Tuple[float, ...]
    stderr: Tuple[float, ...]
    samples: int
    horizon: int
    seed: int
    bias_bound: Tuple[Optional[Fraction], ...]
    censored: Tuple[int, ...]


# Rows of the uniform matrix drawn and walked at a time.
_CHUNK = 4096


def _uniform_row(seed: int, index: int, horizon: int):
    """Row `index` of the (samples, horizon+1) uniform matrix of `seed`,
    drawn alone: each Philox counter value gives four doubles."""
    import numpy as np

    bits = np.random.Philox(key=seed)
    offset = index * (horizon + 1)
    bits.advance(offset // 4)
    gen = np.random.Generator(bits)
    gen.random(offset % 4)
    return gen.random(horizon + 1)


def sample_play(model: Pomdp, strategy, start: str, horizon: int, seed: int,
                index: int = 0) -> Tuple[str, ...]:
    """One play prefix of `horizon` steps, reproducible from (seed, index).

    `strategy` may be a finite-memory strategy or a finite mixture; a mixture
    draws its pure member once, from the first draw of the sample's row.
    """
    import numpy as np

    u = _uniform_row(seed, index, horizon)
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
        members, cuts = strategy.support, _cuts(strategy.weights)
    else:
        members, cuts = (strategy,), [1.0]  # every draw of [0, 1)
    walkers = {}  # member index -> _Walker, built on the member's first sample

    values = np.zeros((n, len(dims)), dtype=np.float64)
    resolved = np.ones((n, len(dims)), dtype=bool)
    gen = np.random.Generator(np.random.Philox(key=seed))
    chunk = np.empty((min(_CHUNK, n), horizon + 1), dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        u = gen.random(out=chunk[:min(_CHUNK, n - lo)])
        owner = np.searchsorted(cuts, u[:, 0], side="right")
        for i in range(len(members)):
            rows = np.flatnonzero(owner == i)
            if len(rows) == 0:
                continue
            if i not in walkers:
                walkers[i] = _Walker(model, members[i], start, dims)
            acc, hit = walkers[i].walk(u, rows)
            _store(dims, lo + rows, acc, hit, values, resolved)

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
                    for k, (a, _p, _j) in enumerate(moves):
                        w[i * deg + k] = float(spec.weights(self.nodes[i][0], a))
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

    def walk(self, u, rows):
        """Walk the samples of chunk `rows` from node 0, reading
        step t's draw from column t+1 of the chunk's uniforms `u`; returns
        their (dims, len(rows)) accumulated sums and target hits.

        Settled samples leave the live arrays with their sums and hits
        written back; the rest walk the whole horizon."""
        import numpy as np

        m = len(rows)
        acc = np.zeros((self.dims, m), dtype=np.float64)
        hit = np.zeros((self.dims, m), dtype=bool)
        for j, flags in self.flags.items():
            hit[j] = flags[0]
        pos = np.arange(m)  # index into `rows` of each live sample
        state = np.zeros(m, dtype=np.int64)
        live_acc, live_hit = acc.copy(), hit.copy()
        discount_pow = {j: 1.0 for j in self.discount}
        for t in range(u.shape[1] - 1):
            done = self.settled.take(state)
            if done.any():
                acc[:, pos[done]] = live_acc[:, done]
                hit[:, pos[done]] = live_hit[:, done]
                keep = ~done
                pos, state = pos[keep], state[keep]
                live_acc, live_hit = live_acc[:, keep], live_hit[:, keep]
                if len(pos) == 0:
                    return acc, hit
            r = u[:, t + 1].take(rows.take(pos))
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
