"""momix: exact analysis of expected-payoff sets in finite multi-objective
(PO)MDPs, and synthesis of small-support strategy mixtures.

The package evaluates multi-dimensional payoffs exactly (rational
arithmetic end to end), computes the geometry of pure-strategy payoff sets
(membership, extreme points, Pareto frontiers, achievability), and builds
finite mixtures of pure strategies that realize or approximate target
payoff vectors.  Monte-Carlo estimation lives in :mod:`momix.montecarlo`
and is the only floating-point component.
"""

from .errors import *  # noqa: F401,F403
from .model import (Pomdp, ValidationReport, WeightFunction, load_model,
                    reachable_states, serialize, unroll_cost_counter, validate)
from .payoffs import (BuchiIndicator, DiscountedSum, ReachGatedDiscountedSum, ReachIndicator,
                      ShortestPath, TotalRewardNonNeg, load_problem)
from .rationals import ExtReal, ExtRealVector, NEG_INF, POS_INF, parse_rational, vector
from .strategies import (FiniteMemoryStrategy, FiniteMixture, MemorySkeleton,
                         PureStrategy, counter, cylinder_prob, memoryless, mixed_to_behavioural,
                         strategy_premetric)
from .evaluate import (IntegrabilityVerdict, classify_integrability,
                       expected_payoff, mixed_expected_payoff, pure_payoff_set)
from .geometry import (Decomposition, LinearMap, caratheodory, dominating_face_decomposition,
                       extreme_points, pareto_frontier, supporting_map)
from .synthesis import (LexResult, MixtureCertificate, achieve, approximate, lex_optimize,
                        reduce_support)
from .beliefs import (BeliefGraph, belief_graph, classify_shortest_path,
                      reach_bound_check, universal_as_reach)
from .montecarlo import (Estimate, SampleConfig, convergence_probe,
                         estimate_expectation, sample_play)
