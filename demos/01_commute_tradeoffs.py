"""Two objectives in tension: arrive on time vs arrive fast on average.

A commuter picks between a slow-but-sure bicycle and a fast train that is
often delayed.  We evaluate pure strategies exactly, print the trade-off,
and then hit a target no pure strategy meets by mixing two of them.
"""

from fractions import Fraction

import momix as mx

model, dims = mx.load_problem(open("models/commute.json").read())
print("model ok:", mx.validate(model).ok)


def attempts(l):
    """Try the train l times, then take the bicycle."""
    sk = mx.counter(model, l)
    table = {}
    for q in range(l + 1):
        table[(q, "home")] = "train" if q < l else "bike"
        table[(q, "ride")] = "train"
        table[(q, "work")] = "meeting"
    return mx.PureStrategy(sk, table)


weight = model.weight_function("time")
unrolled, targets, entry = mx.unroll_cost_counter(model, weight, Fraction(40),
                                                  frozenset({"work"}))
on_time = (mx.ReachIndicator(targets),)

print("\nstrategy             P(time <= 40)            E(time)")
rows = []
for l in (0, 1, 2, 3, 4, 12):
    sigma = attempts(l)
    p = mx.expected_payoff(unrolled, sigma, entry["home"], on_time)[0].finite
    e = mx.expected_payoff(model, sigma, "home", dims)[0].finite
    label = {0: "bike right away", 1: "1 try then bike"}.get(l, f"{l} tries then bike")
    rows.append((label, p, e))
    print(f"{label:<20} {str(p):>15} ({float(p):.4f})   {e} ({float(e):.2f})")

# Negate time so that "better" means "bigger" on both axes, then ask for a
# point beating 90% punctuality with an expected commute below 27.
points = [(p, -e) for _label, p, e in rows]
target = (Fraction(9, 10), Fraction(-27))
print("\ntarget: P >= 9/10 and E <= 27")
try:
    decomposition = mx.dominating_face_decomposition(target, points, mode="dominated")
except mx.NotDominated:
    print("  not achievable over this pool")
else:
    print(f"  achievable by mixing {len(decomposition.indices)} pure strategies:")
    for i, c in zip(decomposition.indices, decomposition.coefficients):
        print(f"    weight {c} on '{rows[i][0]}'")
    got = decomposition.recombine(points)
    print(f"  realized: P = {got[0]} ({float(got[0]):.4f}), E = {-got[1]} ({float(-got[1]):.2f})")
