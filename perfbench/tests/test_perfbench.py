"""Tests of the benchmark itself: the oracles against hand-derived values,
each checker against a deliberately corrupted answer, and one round of
every workload at a seed other than the usual ones.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def bundled(name):
    with open(os.path.join(ROOT, "models", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def memoryless(model_doc, choices):
    model = oracle.Model(model_doc)
    return oracle.Strategy({
        "memory": ["0"], "init": "0",
        "update": {f"0,{s},{a}": "0" for s in model.states for a in model.enabled(s)},
        "act": {f"0,{s}": choices.get(s, model.enabled(s)[0]) for s in model.states}})


def cli_answer(argv):
    rc, out, _err = workloads._cli(argv)
    assert rc == 0
    return json.loads(out)


# -- oracles against values derived by hand --------------------------------------------


def test_commute_train_takes_25_minutes():
    # E = 5 + 3/4 E + 1/4 * 5  =>  E = 25
    model = oracle.Model(bundled("commute"))
    train = memoryless(bundled("commute"), {"home": "train"})
    assert oracle.evaluate(model, train, "home") == pytest.approx([25.0], rel=1e-12)


@pytest.mark.parametrize("choices, expected", [
    ({"s0": "c"}, (Fraction(0), Fraction(2))),              # (0, sum 1/2^t)
    ({"s0": "b"}, (Fraction(5), Fraction(0))),              # 2 + 3/4 * 1/(1 - 3/4)
    ({"s0": "a", "s2": "a"}, (Fraction(1), Fraction(2))),   # 1, 1 + 1/2 * 1/(1 - 1/2)
    ({"s0": "a", "s2": "b"}, (Fraction(4), Fraction(1))),   # 1 + 3/4 + (3/4)^2 * 4, 1
])
def test_two_discounts_lasso_closed_form(choices, expected):
    doc = bundled("two_discounts")
    strategy = memoryless(doc, choices)
    model = oracle.Model(doc)
    assert tuple(oracle.lasso_vector(model, strategy, "s0")) == expected
    assert oracle.evaluate(model, strategy, "s0") == pytest.approx([float(x) for x in expected])


def test_coin_exit_shortest_path():
    # a: expected 2 steps of weight 1; b: the target is never reached
    doc = bundled("coin_exit")
    model = oracle.Model(doc)
    assert oracle.evaluate(model, memoryless(doc, {"s": "a"}), "s") == [pytest.approx(2.0)]
    assert oracle.evaluate(model, memoryless(doc, {"s": "b"}), "s") == [oracle.INF]


def test_pool_size_and_behaviours():
    model = oracle.Model(bundled("two_discounts"))
    # counter:2 from every state at memory 0: choices at s0 (3 actions,
    # memory 0 only) and s2 (2 actions, memories 0, 1 and 2)
    assert oracle.pool_size(model, 2) == 3 * 2 * 2 * 2
    # from s0: c; b; a then leave at memory 1, or stay and choose at memory 2
    assert len(oracle.behaviours(model, "s0", 2)) == 2 + 3


# -- every checker rejects a corrupted answer ----------------------------------------------


def mixing_question(prefix, workdir):
    inputs = workloads.Inputs(ROOT, str(workdir))
    return next(q for q in workloads.mixing(5, inputs) if q.name.startswith(prefix))


def test_certificate_weight_perturbed(tmp_path):
    q = mixing_question("achieve_equals.", tmp_path)
    raw = q.ask()
    q.check(raw)
    answer = json.loads(raw[1])
    weights = answer["certificate"]["mixture"]["weights"]
    w0, w1 = Fraction(weights[0]), Fraction(weights[1])
    weights[0] = str(w0 + Fraction(1, 1000))
    with pytest.raises(CheckError):
        q.check((0, json.dumps(answer), ""))
    weights[1] = str(w1 - Fraction(1, 1000))  # still a distribution, wrong vector
    with pytest.raises(CheckError):
        q.check((0, json.dumps(answer), ""))


def test_not_achievable_only_above_the_maximum(tmp_path):
    q = mixing_question("achieve_dominates.", tmp_path)
    negative = {"ok": False, "reason": "claimed"}
    with pytest.raises(CheckError):
        q.check((1, json.dumps(negative), ""))


def test_pareto_flag_flipped():
    doc = bundled("two_discounts")
    pool = workloads.KnownPool(doc, "s0", 4)
    path = os.path.join(ROOT, "models", "two_discounts.json")
    answer = cli_answer(["frontier", path, "--state", "s0", "--skeleton", "counter:4"])
    checks.check_frontier(answer, pool.size, pool.distinct, True)
    answer["distinct"][0]["pareto"] = not answer["distinct"][0]["pareto"]
    with pytest.raises(CheckError):
        checks.check_frontier(answer, pool.size, pool.distinct, True)


def test_vertex_flag_flipped():
    doc = bundled("two_discounts")
    pool = workloads.KnownPool(doc, "s0", 4)
    path = os.path.join(ROOT, "models", "two_discounts.json")
    answer = cli_answer(["frontier", path, "--state", "s0", "--skeleton", "counter:4"])
    answer["distinct"][-1]["vertex"] = not answer["distinct"][-1]["vertex"]
    with pytest.raises(CheckError):
        checks.check_frontier(answer, pool.size, pool.distinct, True)


def test_vector_off_by_a_thousandth(tmp_path):
    doc = gen.chain_model(5, 0)
    sdoc = gen.chain_strategy(doc, 5, "test", 2, False)
    model_path, strategy_path = tmp_path / "m.json", tmp_path / "s.json"
    model_path.write_text(json.dumps(doc))
    strategy_path.write_text(json.dumps(sdoc))
    answer = cli_answer(["evaluate", str(model_path), "--state", "r0", "--strategy",
                         str(strategy_path)])
    expected = oracle.evaluate(oracle.Model(doc), oracle.Strategy(sdoc), "r0")
    checks.check_vector(answer, expected)
    j = next(j for j, x in enumerate(answer["vector"]) if x != "+inf")
    answer["vector"][j] = str(Fraction(answer["vector"][j]) + Fraction(1, 1000))
    with pytest.raises(CheckError):
        checks.check_vector(answer, expected)


def test_monte_carlo_mean_shifted(tmp_path):
    doc = bundled("commute")
    strategy = workloads.COMMUTE_TRAIN
    path = tmp_path / "train.json"
    path.write_text(json.dumps(strategy))
    answer = cli_answer(["simulate", os.path.join(ROOT, "models", "commute.json"), "--state",
                         "home", "--strategy", str(path), "--samples", "4000", "--horizon", "64",
                         "--seed", "3"])
    exact = oracle.evaluate(oracle.Model(doc), oracle.Strategy(strategy), "home")
    checks.check_simulation(answer, exact, 4000, 64)
    answer["mean"][0] += 10 * answer["stderr"][0]
    with pytest.raises(CheckError):
        checks.check_simulation(answer, exact, 4000, 64)


def test_supporting_map_and_reduction_checks():
    points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    checks.check_supporting_map([(Fraction(1), Fraction(1))], points[1], points)
    with pytest.raises(CheckError):
        checks.check_supporting_map([(Fraction(1), Fraction(0))], points[2], points)
    half = [Fraction(1, 2)] * 2
    checks.check_reduced(half, points[1:], half, points[1:], 2)
    with pytest.raises(CheckError):
        checks.check_reduced([Fraction(1, 3), Fraction(2, 3)], points[1:], half, points[1:], 2)


# -- one round of every workload at another seed --------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_second_seed_round_passes_every_check(workload, tmp_path):
    inputs = workloads.Inputs(ROOT, str(tmp_path))
    questions = workloads.WORKLOADS[workload](7919, inputs)
    inputs.load_and_validate()
    assert len(questions) < 40
    failed = []
    for q in questions:
        raw = q.ask()
        if q.failed(raw):
            failed.append(q.name)
            continue
        q.check(raw)
    assert failed == (["approx.earn_or_exit.c30"] if workload == "pools" else [])


# -- the run loop --------------------------------------------------------------------------


def test_every_round_asks_each_question_reps_times():
    # the failed share must be the same in every run, whatever its length
    import worker

    ok = workloads.Question("ok", lambda: 1, lambda raw: None, lambda raw: False, str, reps=3)
    bad = workloads.Question("bad", lambda: 0, lambda raw: None, lambda raw: True, str)
    result = worker.run_rounds([ok, bad], seconds=0)
    assert result["rounds"] == worker.MIN_ROUNDS
    assert result["attempted"] == 4 * result["rounds"]
    assert result["failed"] == result["rounds"]
    assert result["correct"] and result["wall_s"] > 0 and result["raw"]["reference_samples"] >= 1
