"""Strategy synthesis over finite pure pools: exact target matching,
(eps, M)-approximation with infinite components, lexicographic optimization
and support reduction of mixtures.

A pool (:class:`Pool`) is a list of (pure strategy, exact expected payoff
vector) pairs as produced by :func:`momix.evaluate.pure_payoff_set`.
Certificates always carry the realized vector and are re-verified by exact
recombination before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (DimensionMismatch, InfeasibleApproximation, NotAchievable, NotDominated,
                     NotInHull, SelfCheckFailed)
from .evaluate import Pool
from .geometry import caratheodory, dominating_face_decomposition
from .lp import LinearProgram
from .rationals import ExtReal, ExtRealVector, format_rational
from .strategies import FiniteMixture, PureStrategy


@dataclass(frozen=True)
class MixtureCertificate:
    mixture: FiniteMixture
    realized: ExtRealVector
    relation: Tuple  # ("equals",), ("dominates",) or ("approximates", eps, M)
    target: ExtRealVector

    def verify(self) -> bool:
        if len(self.realized) != len(self.target):
            return False
        kind = self.relation[0]
        if kind == "equals":
            return self.realized == self.target
        if kind == "dominates":
            return self.realized.dominates(self.target)
        _, eps, big_m = self.relation
        for got, want in zip(self.realized, self.target):
            if want.inf > 0:
                if not (got >= ExtReal(big_m)):
                    return False
            elif want.inf < 0:
                if not (got <= ExtReal(-Fraction(big_m))):
                    return False
            else:
                lo, hi = want.finite - eps, want.finite + eps
                if not (got.is_finite and lo <= got.finite <= hi):
                    return False
        return True


@dataclass(frozen=True)
class LexResult:
    winner_index: int
    strategy: PureStrategy
    vector: ExtRealVector
    pool_size: int
    certified: bool  # every pool member compared lex-below the winner


def distinct_members(pool: Pool, finite: bool = False) -> List[int]:
    """Position of the first pool member with each distinct vector (each
    distinct finite vector if `finite`), in pool order.  Mixtures over
    duplicate vectors are interchangeable, and keeping first occurrences
    fixes the LP column order, and with it the pivots."""
    seen = set()
    out = []
    for i, (_s, v) in enumerate(pool):
        if v not in seen and (v.is_finite or not finite):
            seen.add(v)
            out.append(i)
    return out


def _certificate(pool: Pool, indices, coefficients, relation: Tuple,
                 target: ExtRealVector) -> MixtureCertificate:
    """The certificate of a mixture over pool members, re-checked by exact
    recombination before it is returned."""
    certificate = MixtureCertificate(
        mixture=FiniteMixture.of((pool[i][0], c) for i, c in zip(indices, coefficients)),
        realized=ExtRealVector.combine(list(coefficients), [pool[i][1] for i in indices]),
        relation=relation, target=target,
    )
    if not certificate.verify():
        raise SelfCheckFailed("exact recombination check failed")
    return certificate


def achieve(target: ExtRealVector, pool: Pool, mode: str = "equals") -> MixtureCertificate:
    """An exact mixture realizing (mode "equals", support <= d+1) or
    dominating (mode "dominates", support <= d) a finite target vector.

    Pool members with infinite components cannot carry weight in an exact
    finite recombination and are ignored; use :func:`approximate` for
    infinite targets.
    """
    target = target if isinstance(target, ExtRealVector) else ExtRealVector(target)
    if not target.is_finite:
        raise ValueError("achieve needs a finite target; use approximate")
    if mode not in ("equals", "dominates"):
        raise ValueError("mode must be 'equals' or 'dominates'")
    idx = distinct_members(pool, finite=True)
    points = [pool[i][1].to_fractions() for i in idx]
    if not points:
        raise NotAchievable("pool has no finite-vector members")
    goal = target.to_fractions()
    if mode == "equals":
        try:
            dec = caratheodory(goal, points)
        except NotInHull as exc:
            raise NotAchievable(str(exc)) from exc
    else:
        try:
            dec = dominating_face_decomposition(goal, points, mode="dominated")
        except NotDominated as exc:
            raise NotAchievable(f"{target} is not dominated by the pool hull") from exc
    indices = [idx[i] for i in dec.indices]
    return _certificate(pool, indices, dec.coefficients, (mode,), target)


# -- (eps, M)-approximation ----------------------------------------------------------


def approximate(target: ExtRealVector, eps: Fraction, big_m: Fraction,
                pool: Pool) -> MixtureCertificate:
    """A mixture meeting the three approximation requirements: dimensions
    with target +inf reach at least M, -inf at most -M, finite dimensions
    land within eps.

    Finite-vector mixtures are preferred; when they cannot reach M, one pure
    witness per infinite component is mixed in with a small dyadic weight
    eta chosen so the finite dimensions stay within eps.
    """
    target = target if isinstance(target, ExtRealVector) else ExtRealVector(target)
    eps = Fraction(eps)
    big_m = Fraction(big_m)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if big_m <= 0:
        raise ValueError("M must be positive")
    d = len(target)
    if pool and len(pool[0][1]) != d:
        raise DimensionMismatch("target dimension differs from the pool's")
    fin_dims = [j for j in range(d) if target[j].is_finite]
    inf_dims = [j for j in range(d) if not target[j].is_finite]

    weights = _band_mixture(pool, distinct_members(pool, finite=True), target, fin_dims, eps,
                            inf_dims, big_m)
    if weights is None:
        weights = _approx_with_witnesses(pool, target, fin_dims, inf_dims, eps)
    if weights is None:
        raise InfeasibleApproximation(
            f"no mixture over this pool approximates {target} at "
            f"eps={format_rational(eps)}, M={format_rational(big_m)}")
    return _certificate(pool, list(weights), list(weights.values()),
                        ("approximates", eps, big_m), target)


def _band_mixture(pool, members, target, fin_dims, eps, inf_dims=(), big_m=None):
    """Weights over the pool `members` summing to 1 whose mix lands within
    eps of the target on `fin_dims`, at least M on the +inf and at most -M
    on the -inf `inf_dims`: the positive weights by pool index, in member
    order, or None.  One column per member; the sum row first, then >= and
    <= per finite dimension, then the infinite dimensions."""
    lp = LinearProgram()
    names = [lp.var(f"n{i}") for i in members]
    lp.constrain({n: 1 for n in names}, "==", 1)
    for j in (*fin_dims, *inf_dims):
        coeffs = {n: pool[i][1][j].finite for n, i in zip(names, members)}
        if target[j].is_finite:
            lp.constrain(coeffs, ">=", target[j].finite - eps)
            lp.constrain(coeffs, "<=", target[j].finite + eps)
        elif target[j].inf > 0:
            lp.constrain(coeffs, ">=", big_m)
        else:
            lp.constrain(coeffs, "<=", -big_m)
    result = lp.solve({})
    if not result.ok:
        return None
    return {i: result[n] for n, i in zip(names, members) if result[n] > 0}


def _agrees(v: ExtRealVector, target: ExtRealVector) -> bool:
    """v is nowhere infinite against the sign of `target`, a finite
    dimension having sign 0: a member of positive weight in a mixture
    meeting `target` must be, or the mixture would be undefined (a -inf
    member under a +inf target) or infinite where the target is finite."""
    return all(x.is_finite or x.inf == t.inf for x, t in zip(v, target))


def _witnesses(vectors, candidates, target, inf_dims) -> Optional[List[int]]:
    """Per infinite dimension j of `target` that no earlier witness covers,
    the first of `candidates` infinite with the target's sign at j, or None
    if there is none.  The candidates agree with the target (`_agrees`)."""
    witnesses: List[int] = []
    for j in inf_dims:
        if any(vectors[i][j].inf == target[j].inf for i in witnesses):
            continue
        found = next((i for i in candidates if vectors[i][j].inf == target[j].inf), None)
        if found is None:
            return None
        witnesses.append(found)
    return witnesses


def _approx_with_witnesses(pool, target, fin_dims, inf_dims, eps):
    """The general construction: dedicated infinite-component witnesses with
    total weight eta, a finite sub-mixture at precision eps/3 for the rest,
    both over the distinct members that agree with the target.  Returns the
    mixture's weights by pool index, ascending, or None."""
    if not inf_dims:
        return None
    agreeing = [i for i in distinct_members(pool) if _agrees(pool[i][1], target)]
    witnesses = _witnesses([v for _s, v in pool], agreeing, target, inf_dims)
    if witnesses is None:
        return None
    nu = _band_mixture(pool, agreeing, target, fin_dims, eps / 3)
    if nu is None:
        return None

    share = Fraction(1, len(witnesses))
    eta = Fraction(1, 2)
    while True:
        ok = True
        for j in fin_dims:
            w_j = sum((share * pool[i][1][j].finite for i in witnesses), Fraction(0))
            nu_j = sum((c * pool[i][1][j].finite for i, c in nu.items()), Fraction(0))
            if eta * abs(w_j - nu_j) > 2 * eps / 3:
                ok = False
                break
        if ok:
            break
        eta /= 2

    weights: dict = {}
    for i in witnesses:
        weights[i] = weights.get(i, Fraction(0)) + eta * share
    for i, c in nu.items():
        weights[i] = weights.get(i, Fraction(0)) + (1 - eta) * c
    return {i: weights[i] for i in sorted(weights)}


# -- lexicographic optimization -----------------------------------------------------------


def lex_optimize(pool: Pool) -> LexResult:
    """Exact lexicographic maximum over the pool; ties break to the earliest
    member, whose earliest act table is the earliest enumeration index.
    `winner_index` and `pool_size` count act tables."""
    if not pool:
        raise ValueError("pool is empty")
    if not isinstance(pool, Pool):
        pool = Pool(pool)
    best = 0
    for i in range(1, len(pool)):
        if pool[best][1].lt_lex(pool[i][1]):
            best = i
    winner = pool[best]
    certified = all(v.le_lex(winner[1]) for _s, v in pool)
    return LexResult(pool.indices[best], winner[0], winner[1], pool.size, certified)


# -- support reduction ---------------------------------------------------------------------


def reduce_support(mixture: FiniteMixture, vectors: Sequence[ExtRealVector]) -> FiniteMixture:
    """An equivalent mixture with support at most d+1, extended-real
    components included: one witness per infinite component keeps its weight,
    the finite remainder is Caratheodory-reduced after renormalization.

    `vectors` are the exact pure payoffs of the mixture's support, in order.
    Every weight is positive, so every member agrees with the realized
    vector (`_agrees`) and may be a witness, and the rest, more than d+1
    members less at most d witnesses, has positive mass.  The reduced
    mixture is re-checked by `_certificate` against the realized vector.
    """
    vectors = [v if isinstance(v, ExtRealVector) else ExtRealVector(v) for v in vectors]
    if len(vectors) != len(mixture.support):
        raise ValueError("one vector per support member is required")
    realized = ExtRealVector.combine(mixture.weights, vectors)
    d = len(realized)
    if len(mixture.support) <= d + 1:
        return mixture

    inf_dims = [j for j in range(d) if not realized[j].is_finite]
    fin_dims = [j for j in range(d) if realized[j].is_finite]

    witnesses = _witnesses(vectors, range(len(vectors)), realized, inf_dims)
    indices = list(witnesses)
    weights = [mixture.weights[i] for i in witnesses]
    rest = [i for i in range(len(vectors)) if i not in witnesses]
    rest_mass = sum((mixture.weights[i] for i in rest), Fraction(0))
    if not fin_dims:
        # all dimensions are infinite: drop the rest, renormalize witnesses
        total = sum(weights, Fraction(0))
        weights = [w / total for w in weights]
    else:
        target = []
        for j in fin_dims:
            acc = realized[j].finite
            for i in witnesses:
                acc -= mixture.weights[i] * vectors[i][j].finite
            target.append(acc / rest_mass)
        points = [tuple(vectors[i][j].finite for j in fin_dims) for i in rest]
        dec = caratheodory(tuple(target), points)
        indices += [rest[t] for t in dec.indices]
        weights += [rest_mass * c for c in dec.coefficients]
    reduced = _certificate(list(zip(mixture.support, vectors)), indices, weights, ("equals",),
                           realized).mixture
    if len(reduced.support) > d + 1:
        raise SelfCheckFailed(f"support reduction kept {len(reduced.support)} > d + 1 members")
    return reduced
