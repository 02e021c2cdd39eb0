"""Finite POMDP/MDP models with exact rational transition kernels.

The model file format is a single JSON document:

    {
      "states":       ["home", "ride", "work"],
      "actions":      ["bike", "train", "meeting"],
      "observations": ["home", "ride", "work"],        # optional, default = states
      "obs":          {"home": "home", ...},           # optional, default identity
      "transitions":  {state: {action: {state: "p/q"}}},
      "weights":      {name: {"state,action": ["p/q", ...]}},   # optional
      "payoffs":      [ ... ]                          # optional, see momix.payoffs
    }

All probabilities and weights are rationals written as strings ("p/q" or
"p"); they are parsed exactly, never through floats.  An action is disabled
in a state by simply not listing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Tuple

from .errors import ParseError, SchemaError, UnknownState
from .rationals import format_rational, parse_rational

DistMap = Mapping[str, Fraction]


@dataclass(frozen=True)
class WeightFunction:
    """A rational weight per enabled (state, action) pair."""

    table: Mapping[Tuple[str, str], Fraction]
    name: str = "w"

    def __call__(self, state: str, action: str) -> Fraction:
        return self.table[(state, action)]

    @property
    def max_abs(self) -> Fraction:
        return max((abs(v) for v in self.table.values()), default=Fraction(0))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[Tuple[str, str, str], ...]  # (rule-id, location, message)


@dataclass(frozen=True)
class Pomdp:
    """Immutable finite POMDP.  An MDP is the special case obs = identity."""

    states: Tuple[str, ...]
    actions: Tuple[str, ...]
    transitions: Mapping[Tuple[str, str], DistMap]
    observations: Tuple[str, ...]
    obs: Mapping[str, str]
    weights: Mapping[str, Mapping[Tuple[str, str], Tuple[Fraction, ...]]] = field(default_factory=dict)
    _enabled: Mapping[str, Tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _enabled_by_obs: Mapping[str, Tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _report: "ValidationReport" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        enabled = {s: tuple(a for a in self.actions if (s, a) in self.transitions)
                   for s in self.states}
        object.__setattr__(self, "_enabled", enabled)
        # the first state of each observation speaks for it
        object.__setattr__(self, "_enabled_by_obs",
                           {self.obs[s]: enabled[s] for s in reversed(self.states)})

    # -- basic accessors -------------------------------------------------------

    def enabled(self, state: str) -> Tuple[str, ...]:
        return self._enabled.get(state, ())

    def enabled_for_observation(self, observation: str) -> Tuple[str, ...]:
        """Enabled actions of the first state carrying this observation (well
        defined for valid models by obs-action consistency)."""
        return self._enabled_by_obs.get(observation, ())

    def dist(self, state: str, action: str) -> DistMap:
        return self.transitions[(state, action)]

    def enabled_pairs(self):
        return self.transitions.keys()

    @property
    def is_mdp(self) -> bool:
        return all(self.obs[s] == s for s in self.states)

    def weight_function(self, name: str, index: int = 0) -> WeightFunction:
        """Select one column of a named weight bundle as a WeightFunction."""
        if name not in self.weights:
            raise SchemaError(f"unknown weight function {name!r}")
        bundle = self.weights[name]
        table = {}
        for pair, row in bundle.items():
            if not 0 <= index < len(row):
                raise SchemaError(f"weight {name!r} has no column {index}")
            table[pair] = row[index]
        return WeightFunction(table, name=f"{name}[{index}]" if index else name)

    def successor_graph(self) -> Dict[str, Tuple[str, ...]]:
        """Directed graph edges s -> s' over all enabled actions."""
        out: Dict[str, set] = {s: set() for s in self.states}
        for (s, _a), dist in self.transitions.items():
            for t, p in dist.items():
                if p > 0:
                    out[s].add(t)
        return {s: tuple(sorted(ts, key=self.states.index)) for s, ts in out.items()}


# -- loading ------------------------------------------------------------------


def require_field(doc, key, kind, default=None):
    """doc[key], which must be a `kind`; `default` when the field is absent,
    and an error there if no default is given."""
    if key not in doc:
        if default is None:
            raise SchemaError(f"document is missing field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"field {key!r} must be {kind.__name__}")
    return value


def _identifiers(doc, key, default=None) -> Tuple[str, ...]:
    """A non-empty list field of distinct string identifiers."""
    names = tuple(require_field(doc, key, list, default))
    if not names:
        raise SchemaError(f"{key} list is empty")
    for name in names:
        if not isinstance(name, str):
            raise SchemaError(f"{key} must list string identifiers, got {name!r}")
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate {key} identifiers")
    return names


def read_json(text: str):
    """The JSON document `text`; a ParseError if it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_model(text: str) -> Pomdp:
    """Parse the JSON model format into a Pomdp with exact rationals."""
    return model_from_dict(read_json(text))


def model_from_dict(doc: Mapping) -> Pomdp:
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    states = _identifiers(doc, "states")
    actions = _identifiers(doc, "actions")
    observations = _identifiers(doc, "observations", states)
    obs_map = require_field(doc, "obs", dict, {s: s for s in states})
    if set(obs_map) != set(states):
        raise SchemaError("obs must map every state (and nothing else)")
    for s, z in obs_map.items():
        if z not in observations:
            raise SchemaError(f"obs({s}) = {z!r} is not a declared observation")

    raw_transitions = require_field(doc, "transitions", dict)
    transitions: Dict[Tuple[str, str], DistMap] = {}
    for s, per_action in raw_transitions.items():
        if s not in states:
            raise SchemaError(f"transitions reference unknown state {s!r}")
        if not isinstance(per_action, dict):
            raise SchemaError(f"transitions[{s!r}] must be an object")
        for a, dist in per_action.items():
            if a not in actions:
                raise SchemaError(f"transitions[{s!r}] references unknown action {a!r}")
            if not isinstance(dist, dict) or not dist:
                raise SchemaError(f"transitions[{s!r}][{a!r}] must be a non-empty object")
            parsed = {}
            for t, p in dist.items():
                if t not in states:
                    raise SchemaError(f"distribution of ({s},{a}) references unknown state {t!r}")
                parsed[t] = parse_rational(p)
            transitions[(s, a)] = parsed

    weights: Dict[str, Dict[Tuple[str, str], Tuple[Fraction, ...]]] = {}
    for name, table in require_field(doc, "weights", dict, {}).items():
        if not isinstance(table, dict):
            raise SchemaError(f"weights[{name!r}] must be an object")
        parsed_table = {}
        for key, row in table.items():
            try:
                s, a = key.split(",")
            except ValueError:
                raise SchemaError(f"weight key {key!r} is not 'state,action'") from None
            if (s, a) not in transitions:
                raise SchemaError(f"weight {name!r} keys disabled pair ({s},{a})")
            if not isinstance(row, list):
                row = [row]
            parsed_table[(s, a)] = tuple(parse_rational(x) for x in row)
        weights[name] = parsed_table

    return Pomdp(
        states=states,
        actions=actions,
        transitions=transitions,
        observations=observations,
        obs=dict(obs_map),
        weights=weights,
    )


def serialize(model: Pomdp) -> str:
    """Canonical JSON for a Pomdp; load_model(serialize(m)) == m."""
    doc = {
        "states": list(model.states),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "obs": {s: model.obs[s] for s in model.states},
        "transitions": {},
        "weights": {},
    }
    for s in model.states:
        per_action = {}
        for a in model.actions:
            if (s, a) in model.transitions:
                dist = model.transitions[(s, a)]
                per_action[a] = {t: format_rational(p) for t, p in sorted(dist.items())}
        if per_action:
            doc["transitions"][s] = per_action
    for name, table in model.weights.items():
        doc["weights"][name] = {
            f"{s},{a}": [format_rational(x) for x in row]
            for (s, a), row in sorted(table.items())
        }
    return json.dumps(doc, indent=2)


# -- validation -----------------------------------------------------------------


def validate(model: Pomdp) -> ValidationReport:
    """Check every model invariant; violations are data, not exceptions.
    The report is kept on the immutable model: a second check is a lookup."""
    if model._report is not None:
        return model._report
    violations = []

    for (s, a), dist in model.transitions.items():
        total = sum(dist.values(), Fraction(0))
        if total != 1:
            violations.append(
                ("distribution-sum", f"({s},{a})", f"probabilities sum to {format_rational(total)}")
            )
        for t, p in dist.items():
            if p < 0 or p > 1:
                violations.append(
                    ("probability-range", f"({s},{a})->{t}", f"{format_rational(p)} outside [0,1]")
                )

    for s in model.states:
        if not model.enabled(s):
            violations.append(("deadlock", s, "state has no enabled action"))

    by_obs: Dict[str, list] = {}
    for s in model.states:
        by_obs.setdefault(model.obs[s], []).append(s)
    for z, group in by_obs.items():
        reference = set(model.enabled(group[0]))
        for s in group[1:]:
            if set(model.enabled(s)) != reference:
                violations.append(
                    ("obs-action-consistency", z,
                     f"states {group[0]} and {s} share observation {z} but differ in enabled actions")
                )

    for name, table in model.weights.items():
        for (s, a) in table:
            if (s, a) not in model.transitions:
                violations.append(("weight-domain", f"{name}({s},{a})", "weight on disabled pair"))

    object.__setattr__(model, "_report", ValidationReport(not violations, tuple(violations)))
    return model._report


def require_valid(model: Pomdp) -> None:
    """Raise SchemaError naming the first violation `validate` finds."""
    violations = validate(model).violations
    if violations:
        rule, loc, msg = violations[0]
        raise SchemaError(f"invalid model, [{rule}] {loc}: {msg}")


def reachable_states(model: Pomdp, start: str) -> frozenset:
    """States reachable from `start` via positive-probability histories."""
    if start not in model.states:
        raise UnknownState(start)
    graph = model.successor_graph()
    return frozenset(closure([start], lambda s, number: [number(t) for t in graph[s]]))


def closure(roots, expand) -> list:
    """The nodes reachable from `roots`, numbered in discovery order: the
    roots first, in order and without repeats, then breadth-first; node i of
    the returned list is numbered i.  `expand(node, number)` is called once
    per node, in that order, and calls `number(nxt)` on each of the node's
    successors in turn, which returns the successor's number and numbers a
    new node next, so a caller records a node's moves by successor number
    in the same pass."""
    index: Dict[object, int] = {}
    nodes: list = []

    def number(node) -> int:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    for root in roots:
        number(root)
    for node in nodes:  # grows while it is read: breadth-first
        expand(node, number)
    return nodes


_DONE = float("inf")


def iter_sccs(roots, successors) -> Iterator[list]:
    """Tarjan's SCCs (iterative) of the graph reachable from `roots`, DFS
    roots in that order.  `successors(node)` lists a node's successors in
    the order to take them and is called once per node, when the search
    first reaches it, so the graph can be built while it is searched.  Each
    component is yielded as soon as it is complete, in reverse topological
    order: every component a node moves to comes before the node's own."""
    index: Dict[object, float] = {}  # DFS index; infinite once the node's component is out
    low: Dict[object, float] = {}
    stack: list = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                if index[nxt] < low[node]:  # nxt is on the stack
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    for done in comp:
                        index[done] = _DONE
                    yield comp


# -- bounded-cost unrolling -------------------------------------------------------


# Largest unrolled model `unroll_cost_counter` builds.
MAX_UNROLLED_STATES = 100_000


def unroll_cost_counter(model: Pomdp, weight: WeightFunction, budget: Fraction,
                        target: frozenset):
    """Track accumulated cost up to `budget` inside the state space.

    Returns (unrolled model, unrolled target states, unrolled entry state of
    each base state).  The new states are (s, cost-so-far) pairs named
    "s@c", plus saturation states "s@over" once the budget is exceeded.  Observations are inherited from the base state,
    so any strategy for the base model runs unchanged on the unrolled model.
    Target states are absorbing (cost accumulation stops at the first visit,
    matching the shortest-path payoff).  The unrolled target is
    {(t, c) : t in target, c <= budget}, so the probability of the
    reachability indicator on it equals P(spath <= budget).  The model's
    `transitions` come in the breadth-first order `closure` finds them.
    """
    budget = Fraction(budget)
    if any(v < 0 for v in weight.table.values()):
        raise ValueError("unroll_cost_counter requires non-negative weights")

    def name(state, cost):
        return f"{state}@{'over' if cost is None else format_rational(cost)}"

    transitions: Dict[Tuple[str, str], DistMap] = {}
    obs_map = {}
    target_nodes = []

    def expand(node, number):
        if number(node) >= MAX_UNROLLED_STATES:  # its own number: the nodes before it
            raise ValueError(f"unrolled model exceeds {MAX_UNROLLED_STATES} states")
        s, cost = node
        here = name(s, cost)
        obs_map[here] = model.obs[s]
        if s in target and cost is not None:
            target_nodes.append(here)
            for a in model.enabled(s):
                transitions[(here, a)] = {here: Fraction(1)}
            return
        for a in model.enabled(s):
            if cost is None:
                new_cost = None
            else:
                acc = cost + weight(s, a)
                new_cost = acc if acc <= budget else None
            dist = {}
            for t, p in model.dist(s, a).items():
                if p == 0:
                    continue
                number((t, new_cost))
                dist[name(t, new_cost)] = dist.get(name(t, new_cost), Fraction(0)) + p
            transitions[(here, a)] = dist

    nodes = closure([(s, Fraction(0)) for s in model.states], expand)
    ordered = sorted(nodes, key=lambda n: (model.states.index(n[0]), n[1] is None,
                                           n[1] if n[1] is not None else Fraction(0)))
    state_names = tuple(name(s, c) for s, c in ordered)
    unrolled = Pomdp(
        states=state_names,
        actions=model.actions,
        transitions=transitions,
        observations=model.observations,
        obs=obs_map,
        weights={},
    )
    entry = {s: name(s, Fraction(0)) for s in model.states}
    return unrolled, frozenset(target_nodes), entry
