"""Where pure strategies stop and mixing keeps going.

With a reachability objective first and an unbounded total reward second,
every pure strategy trades one against the other: reaching the target caps
the reward, looping forever earns infinite reward but never reaches.  No
pure strategy attains (1, +inf) -- but mixtures get arbitrarily close, and
the library builds one meeting any (eps, M) requirement.
"""

from fractions import Fraction

import momix as mx

model, dims = mx.load_problem(open("models/earn_or_exit.json").read())

for n in (4, 8, 12):
    pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, n))
    best = mx.lex_optimize(pool)
    print(f"pool with horizon {n}: lexicographic optimum {best.vector} "
          f"over {best.pool_size} pure strategies")

pool = mx.pure_payoff_set(model, "s", dims, mx.counter(model, 12))
print("\nno pure strategy has payoff (1, +inf); the pool tops out at (1, 12).")

for big_m in (Fraction(5), Fraction(10)):
    cert = mx.approximate(mx.vector(1, "+inf"), Fraction(1, 10), big_m, pool)
    print(f"\napproximate (1, +inf) with eps=1/10, M={big_m}:")
    print(f"  support {len(cert.mixture.support)}, realized {cert.realized}")
    for member, w in zip(cert.mixture.support, cert.mixture.weights):
        print(f"    weight {w} on {mx.expected_payoff(model, member, 's', dims)}")

# Support reduction keeps realized vectors exact even with +inf components.
members = [mx.pure_payoff_set(model, "s", dims, mx.counter(model, r))[0][0]
           for r in range(5)]
weights = [Fraction(1, 5)] * 5
vectors = [mx.expected_payoff(model, s, "s", dims) for s in members]
mixture = mx.FiniteMixture.of(list(zip(members, weights)))
reduced = mx.reduce_support(mixture, vectors)
print(f"\na 5-point mixture reduced to support {len(reduced.support)} "
      f"with the same exact value")
