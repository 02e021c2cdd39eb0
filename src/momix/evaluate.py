"""Exact expected multi-payoff vectors for finite-memory and mixed strategies.

A payoff's value at a node of the product of the model with a strategy
depends only on the part of the product reachable from that node:

* reachability        -- h(c) = 1 on the target, else sum_j P(c, j) h(j),
* Buchi               -- the hitting probability of the bottom SCCs that
                         meet the target,
* discounted sum      -- x = r + lambda P x,
* shortest path       -- 0 on the target, +inf where h < 1, else
                         x = r + P x off the target,
* total reward (>=0)  -- +inf where a bottom SCC earning positive weight is
                         reachable, else x = r + P x off the bottom SCCs,
* gated discounted    -- E[DS * 1Reach] = E[DS] - y, where y solves
                         y = r' + lambda P y off the target, r' the expected
                         weight of a move times the probability of never
                         reaching the target after it.

One call evaluates all its strategies together (a single strategy is a pool
of one).  The model and each skeleton are stepped once, into a
`strategies.TransitionTable`.  A strategy is walked over the table without
arithmetic, and the product it reaches is condensed into SCC blocks,
successors first.  Each finished node has an entry: its slots, one flat
tuple, interned by value.  A block is hash-consed by what its solve reads:
per node its state, action distribution and successors per action, one
inside the block as its position, one outside as its entry.  So equal keys
mean equal values, by induction from the successors: the reduction rule of
reduced BDDs (Bryant, IEEE TC 35, 1986) applied to values as in ADDs
(Bahar et al., ICCAD 1993).  `_Evaluator._solve_block` solves a block the
first time its key appears, every payoff dimension in one pass, hitting
probabilities first.  A system of one unknown, as in every one-node
block, is solved by one formula per slot, x = (c + lambda sum_j P(i, j)
x_j) / (1 - lambda P(i, i)), its sum an integer fraction normalised once,
with no division without a self-loop.  `_solve_systems` solves larger
systems with the same unknowns and discount together, SCC by SCC,
successors first: a single node by the same formula, a larger SCC by
`solve_linear` on the `factor` of its integer matrix, built and
eliminated once per block and replayed by every stage that meets it; it
is their only caller.  The memo lives for one call.

Pool members also share the walk.  A member is an act table index, a
mixed-radix number with the first choice point most significant, and the
walk below a node reads only the choice points the node can reach, all at
or after the first of them.  So the index modulo the product of the
radices from that point on, the node's modulus, fixes the walk below the
node and the node's entry.  `strategies.pure_behaviours` numbers the act
tables and returns each node's modulus with the members; the radix is
known there alone.  A pool's memo keeps each finished node's entry under
(node, index modulo modulus), and a member takes the entry of every node
known under its key without expanding it.  So a pool costs, per distinct
(node, key), one step of the walk, and per distinct block its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Set

from .beliefs import universal_as_reach
from .errors import SingularSystem, UnknownState, UnsupportedKind
from .linalg import factor, solve_linear
from .model import Pomdp, iter_sccs, reachable_states, require_valid
from .payoffs import (BuchiIndicator, DiscountedSum, MultiPayoff,
                      ReachGatedDiscountedSum, ReachIndicator, ShortestPath,
                      TotalRewardNonNeg)
from .rationals import ExtReal, ExtRealVector, POS_INF
from .strategies import (FiniteMemoryStrategy, FiniteMixture, MemorySkeleton, POOL_CAP,
                         TransitionTable, pure_behaviours, transition_table)

__all__ = [
    "expected_payoff", "pure_payoff_set", "Pool", "mixed_expected_payoff",
    "classify_integrability", "IntegrabilityVerdict", "maximal_end_components",
]

_ZERO, _ONE = Fraction(0), Fraction(1)
_KINDS = (ReachIndicator, BuchiIndicator, DiscountedSum, ShortestPath, TotalRewardNonNeg,
          ReachGatedDiscountedSum)


def _affine(constant: Fraction, discount, pairs) -> Fraction:
    """constant + discount * sum(p * v for (p, v) in pairs), as one integer
    fraction normalised once: `constant` itself when every v is 0, the last
    nonzero v itself when the sum is that v unchanged."""
    num, den = 0, 1
    for p, v in pairs:
        vn, vd = v.as_integer_ratio()
        if vn:
            pn, pd = p.as_integer_ratio()
            num, den = num * pd * vd + pn * vn * den, den * pd * vd
            last, last_num, last_den = v, vn, vd
    if not num:
        return constant
    if discount is not _ONE or constant is not _ZERO:
        (ln, ld), (cn, cd) = discount.as_integer_ratio(), constant.as_integer_ratio()
        num, den = num * ln * cd + cn * ld * den, ld * cd * den
    return last if num == last_num and den == last_den else Fraction(num, den)


def _reward(weights, state: str, dist) -> Fraction:
    """The expected weight of one step of the action distribution `dist`."""
    if len(dist) == 1 and dist[0][1] == 1:
        return weights.table[(state, dist[0][0])]
    return _affine(_ZERO, 1, [(weights(state, a), alpha) for a, alpha in dist])


def _one_node(values: tuple, loop, discount) -> tuple:
    """The solution of x = values + discount * loop * x on one node whose
    self-loop has probability `loop` (None: no self-loop, so x = values,
    with no division).  Raises SingularSystem on a zero pivot."""
    if loop is None:
        return values
    pivot = 1 - (loop if discount == 1 else discount * loop)
    if pivot == 0:
        raise SingularSystem("the system matrix is singular")
    return tuple(v / pivot for v in values)


class _Evaluator:
    """The exact payoff vectors of strategies from one start state, sharing
    one block memo per skeleton (see the module docstring).

    A node's slots hold the hitting probability of each target of a reach,
    shortest-path or gated dimension, then per other dimension its value
    (a gated one: E[DS] and y), each a Fraction or POS_INF.  `stages` lists
    the (spec, slot, discount number) a block solves: the targets' hitting
    probabilities and the Buchi dimensions, then the dimensions that read
    them.  `memos` hold tables already built, each with (start, init) as
    node 0."""

    def __init__(self, model: Pomdp, start: str, dims: MultiPayoff,
                 memos: Sequence["_Memo"] = ()):
        if start not in model.states:
            raise UnknownState(start)
        for spec in dims:
            if not isinstance(spec, _KINDS):
                raise UnsupportedKind(type(spec).__name__)
        self.model, self.dims, self.start = model, tuple(dims), start
        targets = [spec.target for spec in dims
                   if isinstance(spec, (ReachIndicator, ShortestPath, ReachGatedDiscountedSum))]
        self.hit = {target: k for k, target in enumerate(dict.fromkeys(targets))}
        self.slots = []  # per dimension: its slot, or (E[DS], y) for a gated one
        width = len(self.hit)
        for spec in dims:
            if isinstance(spec, ReachIndicator):
                self.slots.append(self.hit[spec.target])
            elif isinstance(spec, ReachGatedDiscountedSum):
                self.slots.append((width, width + 1))
                width += 2
            else:
                self.slots.append(width)
                width += 1
        self.width = width
        # the distinct discounts, 1 first: a system is keyed by its number here
        self.discounts = list(dict.fromkeys([_ONE] + [getattr(spec, "discount", 1) for spec in dims]))
        paired = list(zip(self.dims, self.slots))
        self.stages = ([(target, slot, 0) for target, slot in self.hit.items()]
                       + [(spec, slot, 0) for spec, slot in paired if isinstance(spec, BuchiIndicator)],
                       [(spec, slot, self.discounts.index(getattr(spec, "discount", 1)))
                        for spec, slot in paired
                        if not isinstance(spec, (ReachIndicator, BuchiIndicator))])
        self.memos = list(memos)

    def _memo(self, skeleton: MemorySkeleton) -> "_Memo":
        for memo in self.memos:
            if memo.table.skeleton is skeleton or memo.table.skeleton == skeleton:
                return memo
        self.memos.append(_Memo(transition_table(self.model, skeleton, [self.start])))
        return self.memos[-1]

    def __call__(self, strategy: FiniteMemoryStrategy,
                 index: Optional[int] = None) -> ExtRealVector:
        """The payoff vector of `strategy`.  `index` is a pool member's act
        table index over the memo's `moduli`: a node whose entry is known by
        (node, index modulo its modulus) takes that entry unexpanded."""
        memo = self._memo(strategy.skeleton)
        unique, blocks, known, moduli = memo.unique, memo.blocks, memo.known, memo.moduli
        nodes, states, moves, obs = memo.table.nodes, memo.states, memo.table.moves, self.model.obs
        choice, rows, at, value = {}, {}, {}, {}  # node -> action distribution, row, entry, slots

        def successors(i):
            """Node i's action distribution and row, read once; with an
            index, the successors whose entries are not yet known."""
            s, mem = nodes[i]
            choice[i] = dist = strategy.choice(mem, obs[s])
            if len(dist) == 1 and dist[0][1] == 1:
                rows[i] = row = moves[i][dist[0][0]]
            else:
                merged = {}
                for a, alpha in dist:
                    for j, p in moves[i][a]:
                        merged[j] = merged[j] + alpha * p if j in merged else alpha * p
                rows[i] = row = tuple(merged.items())
            if index is None:
                return [j for j, _p in row]
            fresh = []
            for j, _p in row:
                if j not in at:
                    entry = known[j].get(index % moduli[j])
                    if entry is None:
                        fresh.append(j)
                    else:
                        at[j], value[j] = entry, blocks[entry]
            return fresh

        for comp in iter_sccs([0], successors):
            comp.sort()
            for k, i in enumerate(comp):
                at[i] = -1 - k  # until the block is done, a node inside it is keyed by its position
            key = ()  # per node: its state, action distribution and successors action by action
            for i in comp:
                key += states[i], choice[i], tuple([at[j] for a, _ in choice[i] for j, _ in moves[i][a]])
            entries = unique.get(key)
            if entries is None:
                start = len(blocks)
                below = [e for e in {at[j] for i in comp for j, _p in rows[i]} if e >= 0]
                self._solve_block(memo, comp, choice, rows, value, below)
                entries = range(start, len(blocks))
                if comp[0]:  # no other block reads the root block's entries: not interned
                    fresh, blocks[start:], entries = blocks[start:], [], []
                    for slots in fresh:
                        entries.append(memo.interned.setdefault(slots, len(blocks)))
                        if entries[-1] == len(blocks):
                            blocks.append(slots)
                unique[key] = entries
            for i, entry in zip(comp, entries):
                at[i], value[i] = entry, blocks[entry]
                if index is not None:
                    known[i][index % moduli[i]] = entry
        values, out = value[0], []
        for slot in self.slots:
            x = values[slot[0]] - values[slot[1]] if isinstance(slot, tuple) else values[slot]
            out.append(x if x is POS_INF else ExtReal(x))
        return ExtRealVector(out)

    def _solve_block(self, memo: "_Memo", comp: List[int], choice, rows, value, below) -> None:
        """Append to `memo.blocks` the slots of each node of one block,
        `comp` (sorted).  `choice`, `rows` and `value` give each node's
        action distribution, row and slots (working lists for the block's
        nodes while it is solved); `below`, the entries of the nodes outside
        it that they move to.  Stage by stage, a slot is fixed where known
        and its system queued as (slot, discount number, unknowns, constants
        or None for 0): one unknown is solved at once, more by
        `_solve_systems`."""
        states, discounts, vals = memo.states, self.discounts, [[None] * self.width for _ in comp]
        value.update(zip(comp, vals))
        factors = {}  # (discount number, *SCC) -> the factor its stages share
        for stage in self.stages:
            queue = []
            for spec, slot, d in stage:
                if isinstance(spec, frozenset):  # the hitting probability of a target
                    rest = []
                    for i, slots in zip(comp, vals):
                        if states[i] in spec:
                            slots[slot] = _ONE
                        else:
                            slots[slot] = _ZERO
                            rest.append(i)
                    if len(rest) < len(comp) or below:
                        queue.append((slot, 0, rest, None))
                elif isinstance(spec, BuchiIndicator):  # good bottom blocks: this one if bottom
                    good = _ONE if not below and any(states[i] in spec.target for i in comp) else _ZERO
                    for slots in vals:
                        slots[slot] = good
                    if below:
                        queue.append((slot, 0, comp, None))
                elif isinstance(spec, DiscountedSum):
                    queue.append((slot, d, comp, [_reward(spec.weights, states[i], choice[i])
                                                  for i in comp]))
                elif isinstance(spec, ReachGatedDiscountedSum):
                    plain, avoid = slot
                    queue.append((plain, d, comp, [_reward(spec.weights, states[i], choice[i])
                                                   for i in comp]))
                    h, weights, moves = self.hit[spec.target], spec.weights, memo.table.moves
                    for slots in vals:
                        slots[avoid] = _ZERO
                    # r': a move's weight times its miss chance, 1 - sum_j P h (rows sum to 1)
                    rest = [i for i in comp if states[i] not in spec.target]
                    queue.append((avoid, d, rest, [_affine(_ZERO, 1, [
                        (weights(states[i], a) if alpha == 1 else alpha * weights(states[i], a),
                         _affine(_ONE, -1, [(p, value[j][h]) for j, p in moves[i][a]]))
                        for a, alpha in choice[i]]) for i in rest]))
                elif isinstance(spec, ShortestPath):
                    h, sure = self.hit[spec.target], []
                    for i, slots in zip(comp, vals):
                        if states[i] in spec.target:
                            slots[slot] = _ZERO
                        else:
                            slots[slot] = POS_INF
                            if slots[h] == 1:
                                sure.append(i)
                    queue.append((slot, 0, sure, [_reward(spec.weights, states[i], choice[i])
                                                  for i in sure]))
                else:  # TotalRewardNonNeg
                    weight = [_reward(spec.weights, states[i], choice[i]) for i in comp]
                    if not below:
                        fixed = POS_INF if any(r > 0 for r in weight) else _ZERO
                    else:
                        fixed = POS_INF if any(memo.blocks[e][slot] is POS_INF for e in below) else None
                    for slots in vals:
                        slots[slot] = fixed
                    if fixed is None:
                        queue.append((slot, 0, comp, weight))
            systems = {}  # (discount number, unknowns) -> [(slot, constants)]
            for slot, d, unknowns, constants in queue:
                if len(unknowns) == 1:
                    i, row = unknowns[0], rows[unknowns[0]]
                    terms = [(p, value[j][slot]) for j, p in row if j != i]
                    loop = next(p for j, p in row if j == i) if len(terms) < len(row) else None
                    x = _affine(constants[0] if constants else _ZERO, discounts[d], terms)
                    value[i][slot] = x if loop is None else _one_node((x,), loop, discounts[d])[0]
                elif unknowns:
                    systems.setdefault((d, tuple(unknowns)), []).append(
                        (slot, constants and dict(zip(unknowns, constants))))
            if systems:
                _solve_systems(systems, discounts, rows, value, factors)
        memo.blocks += map(tuple, vals)


def _solve_systems(systems, discounts, rows, slots, factors):
    """Solve the queued systems into `slots`, those with the same matrix
    together.  x = constants + discount * P x on the unknowns is block
    triangular over the SCCs of their graph, successors first: values
    outside the SCC at hand are read from `slots`, a single node is solved
    by `_one_node` and a larger SCC by `solve_linear` on the `factor` of its
    integer I - discount * P, each row scaled by the discount's denominator
    times the lcm of the row's probability denominators.  `factors` keeps
    each factor by (discount number, the SCC's nodes in order) for the other
    stages of the block.  Raises SingularSystem on a singular SCC; empties
    the queue."""
    for (d, unknowns), group in systems.items():
        discount, inside = discounts[d], set(unknowns)
        for comp in iter_sccs(unknowns, lambda i: [j for j, _p in rows[i] if j in inside]):
            pos = {node: k for k, node in enumerate(comp)}
            rhs = [tuple(_affine(constants[i] if constants else _ZERO, discount,
                                 [(p, slots[j][slot]) for j, p in rows[i] if j not in pos])
                         for slot, constants in group) for i in comp]
            if len(comp) == 1:
                loop = next((p for j, p in rows[comp[0]] if j in pos), None)
                x = [_one_node(rhs[0], loop, discount)]
            else:
                key = (d, *comp)
                if key not in factors:
                    (ln, ld), ints, scales = discount.as_integer_ratio(), [], []
                    for k, node in enumerate(comp):
                        inner = [(pos[j], p.numerator, p.denominator) for j, p in rows[node] if j in pos]
                        scale = lcm(*(pd for _j, _pn, pd in inner))
                        row = [0] * len(comp)
                        row[k] = ld * scale
                        for j, pn, pd in inner:
                            row[j] -= ln * pn * (scale // pd)
                        ints.append(row)
                        scales.append(ld * scale)
                    factors[key] = factor(ints, scales)
                x = solve_linear(factors[key], rhs)
            for i, values in zip(comp, x):
                for (slot, _constants), v in zip(group, values):
                    slots[i][slot] = v
    systems.clear()


class _Memo:
    """One skeleton's transition table, its states by node, its unique table
    (block key -> its nodes' entries), `interned` (slots -> entry) and
    `blocks`, entry -> a node's slots, no two equal outside root blocks.

    A pool's memo also holds each node's modulus, from `pure_behaviours`,
    and `known`, node -> member index modulo the node's modulus -> the
    node's entry: the index fixes the member's actions at every choice
    point the node can reach, so it fixes the walk below the node."""

    def __init__(self, table: TransitionTable, moduli: Optional[Dict[int, int]] = None):
        self.table = table
        self.states = [s for s, _mem in table.nodes]
        self.unique: Dict[tuple, Sequence[int]] = {}
        self.interned: Dict[tuple, int] = {}
        self.blocks: List[tuple] = []
        self.moduli = moduli
        self.known: Dict[int, Dict[int, int]] = {i: {} for i in moduli or ()}


def expected_payoff(model: Pomdp, strategy: FiniteMemoryStrategy, start: str,
                    dims: MultiPayoff) -> ExtRealVector:
    """Exact expected payoff vector of a finite-memory strategy.  Raises
    SchemaError if `validate` rejects the model."""
    require_valid(model)
    return _Evaluator(model, start, dims)(strategy)


# -- pools ----------------------------------------------------------------------------


class Pool(list):
    """A pure pool: (pure strategy, exact expected payoff vector) pairs, one
    per behaviour of the pure strategies over a skeleton from a start state.

    Canonical order: behaviours sorted by their earliest act table (its
    index in the mixed-radix numbering of act tables over the choice points
    of `reachable_choice_points`, first point most significant; see
    `strategies.pure_behaviours`), with that table as the member's
    strategy.  `indices[i]` is the earliest table index of member i and
    `size` the number of act tables: `pool_size` and `winner_index` count
    act tables, while the cap and the cost of building the pool count
    behaviours.  So `approx` on earn_or_exit.json at counter:30 (2^31
    tables, 32 behaviours) succeeds.  Members are evaluated together (see
    the module docstring).  A plain list of pairs is the pool whose every
    member is its own table.
    """

    def __init__(self, members=(), size: Optional[int] = None,
                 indices: Optional[Sequence[int]] = None):
        super().__init__(members)
        self.size = len(self) if size is None else size
        self.indices = tuple(range(len(self)) if indices is None else indices)


def pure_payoff_set(model: Pomdp, start: str, dims: MultiPayoff, skeleton: MemorySkeleton,
                    cap: int = POOL_CAP) -> Pool:
    """The :class:`Pool` of the skeleton from `start`: one member per
    behaviour (`strategies.pure_behaviours`), ordered by earliest act table,
    which represents it.  `pool_size` and `winner_index` count act tables,
    the cap behaviours, so counter:30 on earn_or_exit.json (2^31 tables, 32
    behaviours) is a small pool.  One transition table serves the choice
    points, the behaviour walk and the evaluation, which all members share
    (see the module docstring).  PoolTooLarge comes from the walk, before
    any block is solved.  Raises SchemaError if `validate` rejects the
    model."""
    require_valid(model)
    table = transition_table(model, skeleton, [start, *model.states])
    size, members, moduli = pure_behaviours(model, table, cap)
    evaluate = _Evaluator(model, start, dims, [_Memo(table, moduli)])
    return Pool(((strategy, evaluate(strategy, index)) for index, strategy in members),
                size, [index for index, _strategy in members])


def mixed_expected_payoff(model: Pomdp, mixture: FiniteMixture, start: str,
                          dims: MultiPayoff) -> ExtRealVector:
    """Weighted sum of the pure expected payoffs, under 0 * inf = 0.

    Raises UndefinedExpectation if a dimension mixes +inf and -inf with
    positive weights, and SchemaError if `validate` rejects the model.
    """
    require_valid(model)
    evaluate = _Evaluator(model, start, dims)
    vectors = [evaluate(member) for member in mixture.support]
    return ExtRealVector.combine(mixture.weights, vectors)


# -- integrability classification --------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityVerdict:
    """One of "universally_integrable",
    "universally_unambiguously_integrable_only" or "unknown"; `witness`
    carries supporting data when the verdict is not plain integrability (an
    avoiding strategy, an end component, or a reason string)."""

    verdict: str
    witness: object = None

    UI = "universally_integrable"
    UUI_ONLY = "universally_unambiguously_integrable_only"
    UNKNOWN = "unknown"


def maximal_end_components(model: Pomdp):
    """Maximal end components of the model viewed as an MDP: maximal state
    sets closed under some non-empty action selection.  Returns a list of
    (states frozenset, kept (state, action) pairs)."""
    allowed: Dict[str, Set[str]] = {s: set(model.enabled(s)) for s in model.states}
    alive = set(model.states)

    while True:
        comps = list(iter_sccs(sorted(alive, key=model.states.index), lambda s: sorted(
            {t for a in allowed[s] for t, p in model.dist(s, a).items() if p > 0 and t in alive})))
        comp_of = {}
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in sorted(alive, key=model.states.index):
            keep = set()
            for a in allowed[s]:
                supp = {t for t, p in model.dist(s, a).items() if p > 0}
                if all(comp_of.get(t) == comp_of[s] for t in supp):
                    keep.add(a)
            if keep != allowed[s]:
                allowed[s] = keep
                changed = True
            if not keep and s in alive:
                alive.discard(s)
                changed = True
        if not changed:
            break
    mecs = []
    for comp in comps:  # the last round changed nothing, so these are final
        pairs = frozenset((s, a) for s in comp for a in allowed[s])
        has_cycle = len(comp) > 1 or any(
            s in {t for t, p in model.dist(s, a).items() if p > 0}
            for s in comp for a in allowed[s])
        if pairs and has_cycle:
            mecs.append((frozenset(comp), pairs))
    return mecs


def classify_integrability(model: Pomdp, dims: MultiPayoff, start: str) -> List[IntegrabilityVerdict]:
    """Per-dimension integrability classification.

    Bounded kinds are universally integrable outright.  Shortest-path
    payoffs are universally (square) integrable exactly when every strategy
    reaches the target almost surely, decided on belief supports.  For
    non-negative total reward the test is the existence of a reachable end
    component earning positive weight; for genuinely partially observable
    models the positive-cycle direction is not decided by this library and
    the verdict is "unknown".
    """
    if start not in model.states:
        raise UnknownState(start)
    verdicts = []
    for spec in dims:
        if isinstance(spec, (ReachIndicator, BuchiIndicator, DiscountedSum,
                             ReachGatedDiscountedSum)):
            verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UI))
        elif isinstance(spec, ShortestPath):
            result = universal_as_reach(model, start, spec.target)
            if result.holds:
                verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UI))
            else:
                verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UUI_ONLY,
                                                     witness=result.witness))
        elif isinstance(spec, TotalRewardNonNeg):
            verdicts.append(_classify_total_reward(model, spec, start))
        else:
            verdicts.append(IntegrabilityVerdict(IntegrabilityVerdict.UNKNOWN,
                                                 witness=f"unsupported kind {type(spec).__name__}"))
    return verdicts


def _classify_total_reward(model: Pomdp, spec: TotalRewardNonNeg, start: str) -> IntegrabilityVerdict:
    reachable = reachable_states(model, start)
    positive_mec = None
    for states, pairs in maximal_end_components(model):
        if not (states & reachable):
            continue
        earning = [(s, a) for (s, a) in sorted(pairs) if spec.weights(s, a) > 0]
        if earning:
            positive_mec = (states, earning[0])
            break
    if positive_mec is None:
        # No strategy, observation-based or not, can earn unbounded weight.
        return IntegrabilityVerdict(IntegrabilityVerdict.UI)
    if model.is_mdp:
        return IntegrabilityVerdict(IntegrabilityVerdict.UUI_ONLY, witness=positive_mec)
    # A fully-observing controller could earn +inf, but whether an
    # observation-based one can is not decided here.
    return IntegrabilityVerdict(IntegrabilityVerdict.UNKNOWN, witness=positive_mec)
