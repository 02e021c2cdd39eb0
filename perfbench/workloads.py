"""The three workloads: seeded question lists with their answer checks.

A question is one call of a public momix entry point: a README-style
command through `momix.cli.run(argv)` with `--json`, or a library function
where the CLI has no subcommand.  `Question.ask` is the timed call,
made `Question.reps` times in a row in every round (more than once for
the cheap questions, so that their best latency rests on as many samples
as the expensive ones'); `Question.check` runs afterwards, outside the
timed region, and raises `checks.CheckError` on a wrong answer.  An answer is a failure (counted,
not checked) when the call raises or the CLI ends with an error instead of
a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property
from fractions import Fraction
from typing import Callable, Dict, List

import checks
import gen
import oracle


@dataclass
class Question:
    name: str
    ask: Callable[[], object]
    check: Callable[[object], None]
    failed: Callable[[object], bool]
    key: Callable[[object], str]
    reps: int = 1


def repeated(questions, reps) -> List[Question]:
    return [replace(q, reps=reps) for q in questions]


def _cli(argv):
    from momix import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv) + ["--json"])
    return rc, out.getvalue(), err.getvalue()


def _cli_failed(raw) -> bool:
    """Exit 0 is an answer, exit 1 with a JSON body a negative answer;
    anything else (usage, input or internal error) a failure."""
    rc, out, _err = raw
    return not (rc == 0 or (rc == 1 and out.strip()))


def cli_question(name, argv, check) -> Question:
    return Question(name, lambda: _cli(argv), lambda raw: check(json.loads(raw[1])),
                    _cli_failed, lambda raw: raw[1])


def library_question(name, call, check, key) -> Question:
    return Question(name, call, check, lambda raw: False, key)


# -- pools of pure strategies the benchmark knows itself ------------------------------


class KnownPool:
    """The distinct behaviours of a bundled model's counter:H pool, each with
    the benchmark's own vector: exact closed forms on deterministic models,
    float64 solves otherwise.  Computed on first use, outside timed
    regions."""

    def __init__(self, doc, start, horizon):
        self.model = oracle.Model(doc)
        self.start, self.horizon = start, horizon
        self.deterministic = all(len(d) == 1 for d in self.model.dist.values())

    def vector_of(self, strategy) -> List:
        if self.deterministic:
            return oracle.lasso_vector(self.model, strategy, self.start)
        return oracle.evaluate(self.model, strategy, self.start)

    def doc_vector(self, doc) -> List:
        return self.vector_of(oracle.Strategy(doc))

    @cached_property
    def behaviours(self):
        return oracle.behaviours(self.model, self.start, self.horizon)

    @cached_property
    def vectors(self) -> List[tuple]:
        return [tuple(self.vector_of(b)) for b in self.behaviours]

    @cached_property
    def distinct(self) -> List[tuple]:
        out = []
        for v in self.vectors:
            if self.deterministic:
                if v not in out:
                    out.append(v)
            elif not any(checks.vector_close(v, w) for w in out):
                out.append(v)
        return out

    @cached_property
    def size(self) -> int:
        return oracle.pool_size(self.model, self.horizon)


def _certificate_check(mode, target, vector_of, d, eps=None, big_m=None, points=None):
    def check(answer):
        if answer.get("ok") is False:
            checks.require(points is not None, f"negative answer: {answer.get('reason')}")
            checks.check_not_achievable(answer, target, points)
            return
        checks.check_certificate(answer, mode, target, vector_of, d, eps, big_m)
    return check


def _mixture_key(mixture) -> str:
    return repr([(sorted(s.table.items(), key=str), str(w))
                 for s, w in zip(mixture.support, mixture.weights)])


def reduce_question(name, members, weights, vectors, d) -> Question:
    """reduce_support on a mixture whose members' exact vectors are known."""
    import momix

    ext = [momix.ExtRealVector(v) for v in vectors]
    mixture = momix.FiniteMixture.of(zip(members, weights))

    def check(reduced):
        idx = [members.index(m) for m in reduced.support]
        checks.require(len(set(idx)) == len(idx), "members repeat")
        checks.check_reduced(list(reduced.weights), [vectors[i] for i in idx],
                             weights, vectors, d)

    return library_question(name, lambda: momix.reduce_support(mixture, ext), check, _mixture_key)


def supporting_question(name, q, points) -> Question:
    import momix

    def check(linear_map):
        checks.check_supporting_map(linear_map.rows, q, points)

    return library_question(name, lambda: momix.supporting_map(q, points), check,
                            lambda m: repr(m.rows))


# -- workload inputs ----------------------------------------------------------------------


class Inputs:
    """Files written to the work directory and the models momix loads and
    validates during set-up."""

    def __init__(self, root, workdir):
        self.root, self.workdir = root, workdir
        self.docs: Dict[str, dict] = {}

    def bundled(self, name) -> str:
        path = os.path.join(self.root, "models", f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            self.docs[path] = json.load(fh)
        return path

    def write(self, name, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if "states" in doc:
            self.docs[path] = doc
        return path

    def load_and_validate(self):
        import momix

        for path in self.docs:
            with open(path, encoding="utf-8") as fh:
                model, _dims = momix.load_problem(fh.read())
            report = momix.validate(model)
            if not report.ok:
                raise RuntimeError(f"generated model {path} is invalid: {report.violations}")


COMMUTE_TRAIN = {
    "memory": ["0"], "init": "0",
    "update": {"0,home,bike": "0", "0,home,train": "0", "0,ride,train": "0",
               "0,work,meeting": "0"},
    "act": {"0,home": "train", "0,ride": "train", "0,work": "meeting"}}


def _simulate_question(name, model_path, start, strategy_path, samples, horizon, seed, exact):
    """`exact()` gives the benchmark's own values, computed once, on the
    first check."""
    argv = ["simulate", model_path, "--state", start, "--strategy", strategy_path,
            "--samples", str(samples), "--horizon", str(horizon), "--seed", str(seed)]
    exact = cache(exact)
    return cli_question(name, argv, lambda a: checks.check_simulation(
        a, exact(), samples, horizon))


def _pool_frontier(name, path, start, pool: KnownPool):
    argv = ["frontier", path, "--state", start, "--skeleton", f"counter:{pool.horizon}"]
    return cli_question(name, argv, lambda a: checks.check_frontier(
        a, pool.size, pool.distinct, pool.deterministic))


def _small_pool_questions(inputs, seed, tag, model_name, start, horizon) -> List[Question]:
    """achieve (equals, dominates), supporting_map and reduce_support over a
    small counter pool of a bundled deterministic model.  Which pool
    vectors a target combines is fixed per question; the seed draws the
    coefficients and offsets."""
    import momix

    shape, r = gen.rng(0, "pool-shape", tag), gen.rng(seed, "pool-values", tag)
    path = inputs.bundled(model_name)
    doc = inputs.docs[path]
    pool = KnownPool(doc, start, horizon)
    points = pool.distinct
    d = len(points[0])
    skel = f"counter:{horizon}"
    out = []
    equal = gen.convex_target(shape, points, min(3, len(points)), r)
    out.append(cli_question(
        f"{tag}.achieve_equals", ["achieve", path, "--state", start,
                                  "--target=" + gen.target_arg(equal), "--skeleton", skel,
                                  "--mode", "equals"],
        _certificate_check("equals", equal, pool.doc_vector, d)))
    below = tuple(x - Fraction(r.randint(1, 8), 16)
                  for x in gen.convex_target(shape, points, 2, r))
    out.append(cli_question(
        f"{tag}.achieve_dominates", ["achieve", path, "--state", start,
                                     "--target=" + gen.target_arg(below), "--skeleton", skel],
        _certificate_check("dominates", below, pool.doc_vector, d)))
    out.append(supporting_question(f"{tag}.supporting_map", shape.choice(points), points))
    # reduce_support over momix strategies built from the benchmark's own tables
    mdl = momix.load_problem(json.dumps(doc))[0]
    skeleton = momix.counter(mdl, horizon)
    tables = pool.behaviours
    picks = shape.sample(range(len(tables)), min(d + 4, len(tables)))
    members = [momix.PureStrategy(skeleton, {(int(m), z): next(iter(dist))
                                             for (m, z), dist in tables[i].act.items()})
               for i in picks]
    vectors = [pool.vectors[i] for i in picks]
    out.append(reduce_question(f"{tag}.reduce_support", members,
                               gen.convex_weights(r, len(picks)), vectors, d))
    return out


# -- pools ------------------------------------------------------------------------------------


def pools(seed, inputs) -> List[Question]:
    """README-style questions on the bundled models at long counter skeletons,
    where thousands of act tables collapse to a handful of behaviours."""
    r = gen.rng(seed, "pools")
    qs = []
    two = inputs.bundled("two_discounts")
    gated = inputs.bundled("gated_reward")
    earn = inputs.bundled("earn_or_exit")
    commute = inputs.bundled("commute")
    qs.append(_pool_frontier("frontier.two_discounts.c10", two, "s0",
                             KnownPool(inputs.docs[two], "s0", 10)))
    qs.append(_pool_frontier("frontier.gated_reward.c11", gated, "s",
                             KnownPool(inputs.docs[gated], "s", 11)))
    earn_pool = KnownPool(inputs.docs[earn], "s", 11)
    qs.append(cli_question("lexopt.earn_or_exit.c11",
                           ["lexopt", earn, "--state", "s", "--skeleton", "counter:11"],
                           lambda a: checks.check_lexopt(a, earn_pool.size, earn_pool.distinct)))
    reach = Fraction(r.randint(4, 8), 8)
    big_m = Fraction(r.randint(5, 9))
    eps = Fraction(1, 10)
    target = (reach, oracle.INF)
    qs.append(cli_question(
        "approx.earn_or_exit.c11",
        ["approx", earn, "--state", "s", f"--target={gen.fmt(reach)},+inf", "--eps", "1/10",
         "--bigM", gen.fmt(big_m), "--skeleton", "counter:11"],
        _certificate_check("approx", target, earn_pool.doc_vector, 2, eps, big_m)))
    # Fails at the parent commit: enumerate_pure caps the 2^31 act tables of
    # the pool, not the 32 behaviours reachable from s.  Fixed inputs, so it
    # fails identically for every seed.
    qs.append(cli_question(
        "approx.earn_or_exit.c30",
        ["approx", earn, "--state", "s", "--target=1,+inf", "--eps", "1/10", "--bigM", "10",
         "--skeleton", "counter:30"],
        _certificate_check("approx", (Fraction(1), oracle.INF), earn_pool.doc_vector, 2,
                           eps, Fraction(10))))
    qs += _small_pool_questions(inputs, seed, "two_discounts.c8", "two_discounts", "s0", 8)
    gated_pool = KnownPool(inputs.docs[gated], "s", 8)
    below = tuple(x - Fraction(r.randint(1, 8), 32)
                  for x in gen.convex_target(gen.rng(0, "pool-shape", "gated_reward.c8"),
                                             gated_pool.distinct, 2, r))
    qs.append(cli_question(
        "achieve_dominates.gated_reward.c8",
        ["achieve", gated, "--state", "s", "--target=" + gen.target_arg(below),
         "--skeleton", "counter:8"],
        _certificate_check("dominates", below, gated_pool.doc_vector, 2)))
    commute_model = oracle.Model(inputs.docs[commute])
    qs.append(cli_question("classify.commute", ["classify", commute, "--state", "home"],
                           lambda a: checks.check_verdicts(
                               a, oracle.expected_verdicts(commute_model, "home"))))
    train = inputs.write("train.json", COMMUTE_TRAIN)
    qs.append(_simulate_question(
        "simulate.commute", commute, "home", train, 20_000, 64, seed,
        lambda: oracle.evaluate(commute_model, oracle.Strategy(COMMUTE_TRAIN), "home")))
    return qs


# -- chains ------------------------------------------------------------------------------------

# (shape label, model index, memory states, pure?) per evaluated strategy
CHAIN_STRATEGIES = [(0, 0, 2, False), (2, 1, 3, False), (3, 1, 4, True)]
# the evaluated strategy that is also simulated
SIMULATED = 2
CHAIN_MODELS = 3
SIM_SAMPLES, SIM_HORIZON = 50_000, 256
# times a cheap question is asked per round, on `chains` and `mixing`
LIGHT_REPS = 3


def chains(seed, inputs) -> List[Question]:
    """Exact evaluation of seeded finite-memory strategies and mixtures on
    generated stochastic MDPs, classification, the coin_exit frontier where
    every act table is its own behaviour, and one large simulation."""
    r = gen.rng(seed, "chains")
    qs = []
    docs, paths, sims, known = [], [], [], []
    for i in range(CHAIN_MODELS):
        doc = gen.chain_model(seed, i)
        docs.append(doc)
        paths.append(inputs.write(f"chain{i}.json", doc))
        sims.append(inputs.write(f"chain{i}_sim.json", gen.without_buchi(doc)))
        known.append(oracle.Model(doc))
    strategy_files = []
    for k, i, memory, pure in CHAIN_STRATEGIES:
        sdoc = gen.chain_strategy(docs[i], seed, ("eval", k), memory, pure)
        path = inputs.write(f"strategy{k}.json", sdoc)
        strategy_files.append((i, path, sdoc))
        qs.append(cli_question(
            f"evaluate.chain{i}.s{k}", ["evaluate", paths[i], "--state", "r0", "--strategy", path],
            lambda a, i=i, sdoc=sdoc: checks.check_vector(
                a, oracle.evaluate(known[i], oracle.Strategy(sdoc), "r0"))))
    members = [gen.chain_strategy(docs[0], seed, ("mix", k), 2, True) for k in range(3)]
    weights = gen.convex_weights(r, 3)
    mix_path = inputs.write("mixture.json", {"support": members,
                                             "weights": [gen.fmt(w) for w in weights]})
    qs.append(cli_question(
        "evaluate.chain0.mixture", ["evaluate", paths[0], "--state", "r0", "--strategy", mix_path],
        lambda a: checks.check_vector(a, oracle.combine(
            weights, [oracle.evaluate(known[0], oracle.Strategy(m), "r0") for m in members]))))
    qs += repeated([cli_question(f"classify.chain{i}", ["classify", paths[i], "--state", "r0"],
                                 lambda a, i=i: checks.check_verdicts(
                                     a, oracle.expected_verdicts(known[i], "r0")))
                    for i in range(CHAIN_MODELS)], LIGHT_REPS)
    coin = inputs.bundled("coin_exit")
    qs.append(_pool_frontier("frontier.coin_exit.c8", coin, "s",
                             KnownPool(inputs.docs[coin], "s", 8)))
    i, spath, sdoc = strategy_files[SIMULATED]
    sim_known = oracle.Model(gen.without_buchi(docs[i]))
    qs.append(_simulate_question(
        f"simulate.chain{i}", sims[i], "r0", spath, SIM_SAMPLES, SIM_HORIZON, seed,
        lambda: oracle.evaluate(sim_known, oracle.Strategy(sdoc), "r0")))
    # Small synthesis questions, so every layer is measured on this workload.
    # Their inputs do not depend on the seed: the median question falls
    # among them, and seeded targets would move it from seed to seed.
    small = _small_pool_questions(inputs, 0, "gated_reward.c6", "gated_reward", "s", 6)
    gated = inputs.bundled("gated_reward")
    small.append(_pool_frontier("frontier.gated_reward.c6", gated, "s",
                                KnownPool(inputs.docs[gated], "s", 6)))
    earn = inputs.bundled("earn_or_exit")
    earn_pool = KnownPool(inputs.docs[earn], "s", 6)
    small.append(cli_question("lexopt.earn_or_exit.c6",
                              ["lexopt", earn, "--state", "s", "--skeleton", "counter:6"],
                              lambda a: checks.check_lexopt(a, earn_pool.size,
                                                            earn_pool.distinct)))
    small.append(cli_question(
        "approx.earn_or_exit.c6",
        ["approx", earn, "--state", "s", "--target=1,+inf", "--eps", "1/10", "--bigM", "4",
         "--skeleton", "counter:6"],
        _certificate_check("approx", (Fraction(1), oracle.INF), earn_pool.doc_vector, 2,
                           Fraction(1, 10), Fraction(4))))
    return qs + repeated(small, LIGHT_REPS)


# -- mixing -----------------------------------------------------------------------------------

# (dimension, sphere points, interior points, LP-cascade questions) per
# generated one-choice model
MIXING_MODELS = [(3, 10, 6, ("dominates", "supporting_map")), (3, 12, 20, ()),
                 (4, 10, 6, ()), (4, 10, 14, ())]
# the questions asked once per round; every other one is cheap
MIXING_HEAVY = ("achieve_dominates", "supporting_map", "frontier")


def mixing(seed, inputs) -> List[Question]:
    """Synthesis and geometry over one-choice models whose memoryless pools
    are seeded rational points in d = 3 and 4: hull vertices on a sphere,
    the rest strictly inside.  As for the points, which points a target
    or query combines is fixed per model and the seed draws the numbers,
    so the LP cascades' cost is comparable from seed to seed."""
    import momix

    qs = []
    first = None
    for k, (d, n_vertices, n_inner, cascades) in enumerate(MIXING_MODELS):
        r = gen.rng(seed, "mixing", k)
        shape = gen.rng(0, "mixing-shape", k)
        points, vertices = gen.point_pool(seed, k, d, n_vertices, n_inner)
        path = inputs.write(f"points{k}.json", gen.one_choice_model(points))
        first = first or (path, points)

        def vector_of(doc, points=points):
            return list(points[int(doc["act"]["0,s"][1:])])

        tag = f"d{d}n{len(points)}"
        equal = gen.convex_target(shape, points, d + 1, r)
        qs.append(cli_question(
            f"achieve_equals.{tag}", ["achieve", path, "--state", "s", "--mode", "equals",
                                      "--target=" + gen.target_arg(equal)],
            _certificate_check("equals", equal, vector_of, d)))
        if "dominates" in cascades:
            below = tuple(x - Fraction(shape.randint(1, 8), 8)
                          for x in gen.convex_target(shape, points, 3, r))
            qs.append(cli_question(
                f"achieve_dominates.{tag}",
                ["achieve", path, "--state", "s", "--target=" + gen.target_arg(below)],
                _certificate_check("dominates", below, vector_of, d)))
        top = [max(p[j] for p in points) for j in range(d)]
        above = tuple(t + Fraction(r.choice((1, 3, 5, 7)), 8) for t in top)
        qs.append(cli_question(
            f"achieve_above_max.{tag}",
            ["achieve", path, "--state", "s", "--target=" + gen.target_arg(above)],
            _certificate_check("dominates", above, vector_of, d, points=points)))
        near = gen.convex_target(shape, points, 2, r)
        eps = Fraction(1, shape.choice((8, 16, 32)))
        qs.append(cli_question(
            f"approx.{tag}", ["approx", path, "--state", "s", "--target=" + gen.target_arg(near),
                              "--eps", gen.fmt(eps), "--bigM", "1"],
            _certificate_check("approx", near, vector_of, d, eps, Fraction(1))))
        qs.append(cli_question(
            f"frontier.{tag}", ["frontier", path, "--state", "s"],
            lambda a, points=points, vertices=vertices: checks.check_frontier(
                a, len(points), points, True, vertices)))
        if k == len(MIXING_MODELS) - 1:
            qs.append(cli_question(f"lexopt.{tag}", ["lexopt", path, "--state", "s"],
                                   lambda a, points=points: checks.check_lexopt(
                                       a, len(points), points)))
        if "supporting_map" in cascades:
            qs.append(supporting_question(f"supporting_map.{tag}", shape.choice(vertices), points))
        mdl = momix.load_problem(json.dumps(gen.one_choice_model(points)))[0]
        skeleton = momix.memoryless(mdl)
        picks = r.sample(range(len(points)), d + 5)
        members = [momix.PureStrategy(skeleton, {(0, "s"): f"p{i}", (0, gen.SINK): "stay"})
                   for i in picks]
        qs.append(reduce_question(f"reduce_support.{tag}", members,
                                  gen.convex_weights(r, len(picks)), [points[i] for i in picks], d))
    # small belief and Monte-Carlo questions, so every layer is measured here
    coin = inputs.bundled("coin_exit")
    coin_model = oracle.Model(inputs.docs[coin])
    qs.append(cli_question("classify.coin_exit", ["classify", coin, "--state", "s"],
                           lambda a: checks.check_verdicts(
                               a, oracle.expected_verdicts(coin_model, "s"))))
    path, points = first
    r = gen.rng(seed, "mixing-sim")
    picks = r.sample(range(len(points)), 3)
    weights = gen.convex_weights(r, 3)
    mix_path = inputs.write("sim_mixture.json", {
        "support": [{"memory": ["0"], "init": "0",
                     "update": {**{f"0,s,p{j}": "0" for j in range(len(points))},
                                f"0,{gen.SINK},stay": "0"},
                     "act": {"0,s": f"p{i}", f"0,{gen.SINK}": "stay"}} for i in picks],
        "weights": [gen.fmt(w) for w in weights]})
    exact = [float(sum(w * points[i][j] for w, i in zip(weights, picks))) for j in range(3)]
    qs.append(_simulate_question("simulate.mixture", path, "s", mix_path, 20_000, 8, seed,
                                 lambda: exact))
    return [q if q.name.split(".")[0] in MIXING_HEAVY else replace(q, reps=LIGHT_REPS)
            for q in qs]


WORKLOADS = {"pools": pools, "chains": chains, "mixing": mixing}
