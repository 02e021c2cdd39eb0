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
draws from column t+1 and moves them along flat edge indices (node*deg + k).
Memory is O(chunk x horizon) plus one value per sample and dimension.  A
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
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import UnsupportedKind
from .model import Pomdp
from .payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff, ReachGatedDiscountedSum,
                      ReachIndicator, ShortestPath, TotalRewardNonNeg)
from .rationals import ExtRealVector
from .strategies import (FiniteMemoryStrategy, FiniteMixture, MarkovChain,
                         product_chain, strategy_premetric)


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


class _ChainSampler:
    """Flattens a product chain into edge arrays for vectorized walking.

    Each step consumes one uniform draw and picks a joint (action, successor)
    edge; the law is exactly "draw the action, then the successor".  Edge
    order is deterministic (action order, then successor node index), and
    each node's cumulative row ends at exactly 1.0.  Rows shorter than
    `deg` are padded with cumulative 1.0, which no draw in [0, 1) reaches.
    """

    def __init__(self, model: Pomdp, strategy: FiniteMemoryStrategy, start: str):
        import numpy as np

        self.chain = product_chain(model, strategy, start)
        chain = self.chain
        n = len(chain.nodes)
        edges: List[List[Tuple[float, int, str]]] = []
        max_deg = 0
        for i, (s, mem) in enumerate(chain.nodes):
            z = model.obs[s]
            row = []
            for a in model.actions:
                alpha = chain.action_dists[i].get(a)
                if not alpha:
                    continue
                nxt_mem = strategy.skeleton.step(mem, z, a)
                for t in model.states:
                    p = model.dist(s, a).get(t, Fraction(0))
                    if p > 0:
                        row.append((float(alpha * p), chain.index[(t, nxt_mem)], a))
            edges.append(row)
            max_deg = max(max_deg, len(row))
        self.deg = max_deg
        self.cum = np.ones((n, max_deg), dtype=np.float64)
        self.next = np.zeros((n, max_deg), dtype=np.int64)
        self.actions = [[a for _p, _j, a in row] for row in edges]
        self.successors = [[j for _p, j, _a in row] for row in edges]
        for i, row in enumerate(edges):
            acc = 0.0
            for k, (p, j, _a) in enumerate(row):
                acc += p
                self.cum[i, k] = acc
                self.next[i, k] = j
            self.cum[i, len(row) - 1] = 1.0  # absorb float rounding

    def edge_weights(self, weights):
        import numpy as np

        out = np.zeros(self.next.shape, dtype=np.float64)
        for i, (s, _mem) in enumerate(self.chain.nodes):
            for k, a in enumerate(self.actions[i]):
                out[i, k] = float(weights(s, a))
        return out

    def target_flags(self, target):
        import numpy as np

        return np.array([s in target for s, _m in self.chain.nodes], dtype=bool)

    def settled(self, edge_weights, flags):
        """Nodes from which no reachable edge has a nonzero weight in any of
        `edge_weights` and every reachable node carries the node's own
        `flags`: one reverse BFS from the nodes that break this locally."""
        import numpy as np

        n = len(self.successors)
        unsettled = np.zeros(n, dtype=bool)
        for w in edge_weights:
            unsettled |= (w != 0).any(axis=1)
        preds: List[List[int]] = [[] for _ in range(n)]
        for i, succ in enumerate(self.successors):
            for j in succ:
                preds[j].append(i)
                if any(f[i] != f[j] for f in flags):
                    unsettled[i] = True
        queue = deque(np.flatnonzero(unsettled).tolist())
        while queue:
            j = queue.popleft()
            for i in preds[j]:
                if not unsettled[i]:
                    unsettled[i] = True
                    queue.append(i)
        return ~unsettled


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
        member = _pick_member(strategy, u[0])
        sampler = _ChainSampler(model, member, start)
    else:
        sampler = _ChainSampler(model, strategy, start)
    chain = sampler.chain
    node = chain.init
    out: List[str] = [chain.nodes[node][0]]
    for t in range(horizon):
        r = u[t + 1]
        k = int(np.sum(sampler.cum[node] <= r))
        out.append(sampler.actions[node][k])
        node = int(sampler.next[node, k])
        out.append(chain.nodes[node][0])
    return tuple(out)


def _cuts(weights) -> List[float]:
    """Cumulative float weights, the last forced to 1.0: member i owns the
    first draws in [cuts[i-1], cuts[i])."""
    acc = 0.0
    cuts = []
    for w in weights:
        acc += float(w)
        cuts.append(acc)
    cuts[-1] = 1.0
    return cuts


def _pick_member(mixture: FiniteMixture, draw: float):
    for member, cut in zip(mixture.support, _cuts(mixture.weights)):
        if draw < cut:
            return member
    return mixture.support[-1]


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
        draws = u[:, 0]
        prev = 0.0
        for i, cut in enumerate(cuts):
            rows = np.flatnonzero((draws >= prev) & (draws < cut))
            prev = cut
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
    """One member's chain flattened for the walk: the cumulative rows as
    columns over nodes, successors and per-dimension edge weights at flat
    edge index node*deg + k, node target flags, and the settled nodes."""

    def __init__(self, model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                 dims: MultiPayoff):
        import numpy as np

        sampler = _ChainSampler(model, strategy, start)
        self.dims = len(dims)
        self.init = sampler.chain.init
        self.deg = sampler.deg
        # every column but the last, which is 1.0 on every node
        self.cum = np.ascontiguousarray(sampler.cum[:, :-1].T)
        self.next = sampler.next.ravel()
        weights = {}         # dimension -> (node, k) edge weights
        self.discount = {}   # dimension -> float discount (discounted kinds)
        self.flags = {}      # dimension -> node target flags
        for j, spec in enumerate(dims):
            if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum, TotalRewardNonNeg,
                                 ShortestPath)):
                weights[j] = sampler.edge_weights(spec.weights)
            if isinstance(spec, (DiscountedSum, ReachGatedDiscountedSum)):
                self.discount[j] = float(spec.discount)
            if isinstance(spec, (ReachIndicator, ReachGatedDiscountedSum, ShortestPath)):
                self.flags[j] = sampler.target_flags(spec.target)
        self.until_hit = {j for j, spec in enumerate(dims) if isinstance(spec, ShortestPath)}
        # Shortest-path weights cannot unsettle a node: where no flag changes
        # any more, a sample that has hit the target adds nothing, and one
        # that has not is censored whatever it adds.
        self.settled = sampler.settled(
            [w for j, w in weights.items() if j not in self.until_hit], self.flags.values())
        self.weights = {j: w.ravel() for j, w in weights.items()}

    def walk(self, u, rows):
        """Walk the samples of chunk `rows` from the initial node, reading
        step t's draw from column t+1 of the chunk's uniforms `u`; returns
        their (dims, len(rows)) accumulated sums and target hits.

        Settled samples leave the live arrays with their sums and hits
        written back; the rest walk the whole horizon."""
        import numpy as np

        m = len(rows)
        acc = np.zeros((self.dims, m), dtype=np.float64)
        hit = np.zeros((self.dims, m), dtype=bool)
        for j, flags in self.flags.items():
            hit[j] = flags[self.init]
        pos = np.arange(m)  # index into `rows` of each live sample
        state = np.full(m, self.init, dtype=np.int64)
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
    from .evaluate import expected_payoff

    rows = []
    for index, member in family:
        vec = expected_payoff(model, member, start, dims)
        dist = strategy_premetric(model, member, limit, premetric_horizon)
        rows.append(ProbeRow(index, vec, dist))
    return ProbeTable(tuple(rows), expected_payoff(model, limit, start, dims))
