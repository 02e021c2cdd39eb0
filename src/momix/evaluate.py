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
successors first.  Each block is hash-consed by its nodes with their action
distributions and the keys of its successor blocks, as shared subgraphs are
in a BDD's unique table (Bryant, IEEE TC 35, 1986): blocks with equal keys
have equal values.  A block is solved only the first time its key appears,
for every payoff dimension in one pass: hitting probabilities first, then
the systems that read them.  A node that plays one action reads its row and
rewards straight from the table.  A system of one unknown, as in every
one-node block, is solved where it is queued by one formula per slot,
x = (c + lambda sum_j P(i, j) x_j) / (1 - lambda P(i, i)), with no division
without a self-loop.  Larger systems are queued, and `_solve_systems`
solves those with the same unknowns and discount together, SCC by SCC of
the graph on the unknowns, successors first: a single node by the same
formula, a larger SCC by one `solve_linear` for the group, its only
caller.  The memo lives for one call.

Pool members also share the walk.  A member is an act table index, a
mixed-radix number with the first choice point most significant, and the
walk below a node reads only the choice points the node can reach, all at
or after the first of them.  So the index modulo the product of the
radices from that point on, the node's modulus, fixes the walk below the
node and the node's block.  `strategies.pure_behaviours` numbers the act
tables and returns each node's modulus with the members; the radix is
known there alone.  A pool's memo keeps each finished node's block under
(node, index modulo modulus), and a member takes the block of every node
known under its key without expanding it.  So a pool costs,
per distinct (node, key), one step of the walk, and per distinct block its
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set

from .beliefs import universal_as_reach
from .errors import SingularSystem, UnknownState, UnsupportedKind
from .linalg import solve_linear
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
    """constant + discount * sum(p * v for (p, v) in pairs), with no
    arithmetic spent on zero terms, unit factors or a zero constant."""
    terms = [v if p == 1 else p if v is _ONE else p * v for p, v in pairs if v]
    if not terms:
        return constant
    total = terms[0]
    for term in terms[1:]:
        total += term
    if discount != 1:
        total *= discount
    return total + constant if constant else total


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

    A node's values are a list of slots: the hitting probability of each
    target of a reach, shortest-path or gated dimension, then per other
    dimension its value (a gated one: E[DS] and y).  A slot holds a
    Fraction or POS_INF.  `memos` are memos of transition tables already
    built for skeletons, each with (start, init) as node 0."""

    def __init__(self, model: Pomdp, start: str, dims: MultiPayoff,
                 memos: Sequence["_Memo"] = ()):
        if start not in model.states:
            raise UnknownState(start)
        for spec in dims:
            if not isinstance(spec, _KINDS):
                raise UnsupportedKind(type(spec).__name__)
        self.model, self.dims = model, tuple(dims)
        self.start = start
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
        paired = list(zip(self.dims, self.slots))
        self.buchi = [(spec, slot) for spec, slot in paired if isinstance(spec, BuchiIndicator)]
        # the distinct discounts, 1 first: a system is keyed by its number here
        self.discounts = list(dict.fromkeys([1] + [getattr(spec, "discount", 1) for spec in dims]))
        self.values = [(spec, slot, self.discounts.index(getattr(spec, "discount", 1)))
                       for spec, slot in paired
                       if not isinstance(spec, (ReachIndicator, BuchiIndicator))]
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
        table index over the memo's `moduli`: a node whose block is known by
        (node, index modulo its modulus) takes that block unexpanded."""
        memo = self._memo(strategy.skeleton)
        table, unique, blocks = memo.table, memo.unique, memo.blocks
        nodes, moves, obs = table.nodes, table.moves, self.model.obs
        known, moduli = memo.known, memo.moduli
        choice, graph, block_of = {}, {}, {}

        def successors(i):
            """Node i's action distribution and successors, read once; with
            an index, the successors whose blocks are not yet known."""
            s, mem = nodes[i]
            choice[i] = dist = strategy.choice(mem, obs[s])
            graph[i] = out = [j for a, _alpha in dist for j, _p in moves[i][a]]
            if index is None:
                return out
            fresh = []
            for j in out:
                if j not in block_of:
                    block = known[j].get(index % moduli[j])
                    if block is None:
                        fresh.append(j)
                    else:
                        block_of[j] = block
            return fresh

        for comp in iter_sccs([0], successors):
            comp.sort()
            below = frozenset([block_of[j] for i in comp for j in graph[i] if j in block_of])
            key = (tuple([(i, choice[i]) for i in comp]), below)
            block = unique.get(key)
            if block is None:
                outer = {j: blocks[block_of[j]][j] for i in comp for j in graph[i] if j in block_of}
                block = unique[key] = len(blocks)
                blocks.append(self._solve_block(table, comp, choice, outer))
            for i in comp:
                block_of[i] = block
            if index is not None:
                for i in comp:
                    known[i][index % moduli[i]] = block
        values = blocks[block_of[0]][0]
        out = []
        for slot in self.slots:
            if isinstance(slot, tuple):
                value = values[slot[0]] - values[slot[1]]
            else:
                value = values[slot]
            out.append(value if value is POS_INF else ExtReal(value))
        return ExtRealVector(out)

    def _solve_block(self, table, comp: List[int], choice, outer) -> Dict[int, list]:
        """The slots of every node of one block, given the slots of the nodes
        outside it that its nodes move to (`outer`, empty for a bottom block)."""
        nodes, moves = table.nodes, table.moves
        rows: Dict[int, tuple] = {}  # node -> its (successor, probability) pairs
        acts: Dict[int, str] = {}  # node -> its action, if it plays one at weight 1
        for i in comp:
            dist = choice[i]
            if len(dist) == 1 and dist[0][1] == 1:
                acts[i] = dist[0][0]
                rows[i] = moves[i][acts[i]]
                continue
            row = {}
            for a, alpha in dist:
                for j, p in moves[i][a]:
                    row[j] = row[j] + alpha * p if j in row else alpha * p
            rows[i] = tuple(row.items())
        state = {i: nodes[i][0] for i in comp}
        vals = {i: [None] * self.width for i in comp}
        slots = {**outer, **vals}  # every node a block node moves to -> its slots
        bottom = not outer
        systems: Dict[tuple, list] = {}  # (discount number, unknowns) -> [(slot, constants)]

        def system(slot, d, unknowns, constants=None):
            """x = constants + discounts[d] * P x for `slot` on `unknowns` (no
            constants: 0): one unknown is solved at once, more are queued."""
            if len(unknowns) > 1:
                systems.setdefault((d, tuple(unknowns)), []).append((slot, constants))
            elif unknowns:
                i, discount = unknowns[0], self.discounts[d]
                known = [(p, slots[j][slot]) for j, p in rows[i] if j != i]
                loop = dict(rows[i])[i] if len(known) < len(rows[i]) else None
                vals[i][slot], = _one_node((_affine(constants[i] if constants else _ZERO,
                                                    discount, known),), loop, discount)

        def reward(weights):
            return {i: weights.table[(state[i], acts[i])] if i in acts else _affine(
                _ZERO, 1, [(weights(state[i], a), alpha) for a, alpha in choice[i]]) for i in comp}

        # hitting probabilities: of each target, and of each Buchi target's
        # good bottom blocks, which are only ever this block if it is bottom
        for target, slot in self.hit.items():
            rest = [i for i in comp if state[i] not in target]
            for i in comp:
                vals[i][slot] = _ONE if state[i] in target else _ZERO
            if len(rest) < len(comp) or not bottom:
                system(slot, 0, rest)
        for spec, slot in self.buchi:
            good = bottom and any(state[i] in spec.target for i in comp)
            for i in comp:
                vals[i][slot] = _ONE if good else _ZERO
            if not bottom:
                system(slot, 0, comp)
        if systems:
            _solve_systems(systems, self.discounts, rows, slots)

        for spec, slot, d in self.values:
            if isinstance(spec, DiscountedSum):
                system(slot, d, comp, reward(spec.weights))
            elif isinstance(spec, ReachGatedDiscountedSum):
                plain, avoid = slot
                system(plain, d, comp, reward(spec.weights))
                h, target, weights = self.hit[spec.target], spec.target, spec.weights
                rest = [i for i in comp if state[i] not in target]
                for i in comp:
                    vals[i][avoid] = _ZERO
                system(avoid, d, rest, {i: _affine(_ZERO, 1, [
                    (weights(state[i], a) if alpha == 1 else alpha * weights(state[i], a),
                     _affine(_ZERO, 1, [(p, 1 - slots[j][h]) for j, p in moves[i][a]
                                        if nodes[j][0] not in target]))
                    for a, alpha in choice[i]]) for i in rest})
            elif isinstance(spec, ShortestPath):
                h = self.hit[spec.target]
                sure = [i for i in comp if vals[i][h] == 1 and state[i] not in spec.target]
                for i in comp:
                    vals[i][slot] = _ZERO if state[i] in spec.target else POS_INF
                system(slot, 0, sure, reward(spec.weights))
            else:  # TotalRewardNonNeg
                weight = reward(spec.weights)
                if bottom:
                    value = POS_INF if any(r > 0 for r in weight.values()) else _ZERO
                else:
                    value = POS_INF if any(v[slot] is POS_INF for v in outer.values()) else None
                for i in comp:
                    vals[i][slot] = value
                if value is None:
                    system(slot, 0, comp, weight)
        if systems:
            _solve_systems(systems, self.discounts, rows, slots)
        return vals


def _solve_systems(systems, discounts, rows, slots):
    """Solve the queued systems of two or more unknowns into `slots`; the
    systems with the same matrix share their work.  A system x = constants
    + discount * P x on its unknowns is block triangular over the SCCs of
    the graph on them, which come successors first: every value outside
    the SCC at hand, solved or fixed, is read from `slots`, a single node
    is solved by `_one_node` and a larger SCC by one `solve_linear` for the
    whole group.  Raises SingularSystem on a singular SCC; empties the
    queue."""
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
                matrix = [[_ZERO] * len(comp) for _ in comp]
                for node, k in pos.items():
                    row = matrix[k]
                    row[k] += 1
                    for j, p in rows[node]:
                        if j in pos:
                            row[pos[j]] -= discount * p
                x = solve_linear(matrix, rhs)
            for i, values in zip(comp, x):
                for (slot, _constants), v in zip(group, values):
                    slots[i][slot] = v
    systems.clear()


class _Memo:
    """One skeleton's transition table, its unique table of blocks (key ->
    block number) and the blocks' slots (block number -> node -> slots).

    A pool's memo also holds each node's modulus, as `pure_behaviours`
    returns it, and `known`, node -> member index modulo the node's modulus
    -> the node's block: the index fixes the member's actions at every
    choice point the node can reach, so it fixes the walk below the node
    and with it the node's block."""

    def __init__(self, table: TransitionTable, moduli: Optional[Dict[int, int]] = None):
        self.table = table
        self.unique: Dict[tuple, int] = {}
        self.blocks: List[Dict[int, list]] = []
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
    tables, 32 behaviours) succeeds.  Members are evaluated together:
    they share the walk below every node whose reachable choices they play
    alike, and each distinct SCC block of their products is solved once
    (see the module docstring), so a counter pool pays for its shared
    suffixes once.  A plain list of pairs is the pool whose every member
    is its own table.
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
    points, the behaviour walk and the evaluation.  All members share one
    evaluation, keyed by their table indices: a member expands only the
    nodes not finished before under its index modulo the node's modulus
    (from `pure_behaviours`), and only its SCC blocks not met before in
    this call are solved, so the exact work counts distinct blocks, not
    behaviours.
    PoolTooLarge comes from the walk, before any block is solved.  Raises
    SchemaError if `validate` rejects the model."""
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
    """One of "universally_integrable", "universally_unambiguously_integrable_only",
    "not_unambiguous", "unknown"; `witness` carries supporting data when the
    verdict is not plain integrability (an avoiding strategy, an end
    component, or a reason string)."""

    verdict: str
    witness: object = None

    UI = "universally_integrable"
    UUI_ONLY = "universally_unambiguously_integrable_only"
    NOT_UNAMBIGUOUS = "not_unambiguous"
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
