"""Hitting a target vector exactly with a two-strategy mixture.

The model gates a discounted payoff behind reaching a target state.  The
point (2, 2) is achieved by no pure strategy, but it sits on a face of the
pure payoff hull; the supporting-map construction finds that face and a
Caratheodory decomposition inside it gives an exact two-point mixture.
"""

from fractions import Fraction

import momix as mx

model, dims = mx.load_problem(open("models/gated_reward.json").read())
pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 4))

print("pure payoffs (loop l times, then move to the target):")
distinct = []
for _s, v in pool:
    if v not in distinct:
        distinct.append(v)
        print("  ", v)

target = mx.vector(2, 2)
points = [v.to_fractions() for v in distinct if v.is_finite]
lmap = mx.supporting_map(target.to_fractions(), points)
print(f"\nsupporting map at (2,2): {len(lmap.rows)} row(s), first row {lmap.rows[0]}")
print("  (the face is the segment on x + y = 4)")

certificate = mx.achieve(target, pool, mode="equals")
print(f"\nexact certificate: support {len(certificate.mixture.support)}")
for member, w in zip(certificate.mixture.support, certificate.mixture.weights):
    value = mx.expected_payoff(model, member, "s", dims)
    print(f"  weight {w} on the strategy with payoff {value}")
print("realized:", certificate.realized, "| verified:", certificate.verify())

# Domination needs one strategy fewer than equality.
dominated = mx.achieve(mx.vector(Fraction(1, 2), Fraction(1, 2)), pool, mode="dominates")
print(f"\ndominating (1/2, 1/2): support {len(dominated.mixture.support)}, "
      f"realized {dominated.realized}")
