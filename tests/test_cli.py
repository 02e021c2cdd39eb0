"""CLI: every subcommand is a thin adapter; results equal direct library
calls, and exit codes follow the contract."""

import json
import os
from fractions import Fraction

import pytest

import momix as mx
from momix.cli import run

from conftest import MODELS, commute_train, load

COMMUTE = os.path.join(MODELS, "commute.json")
RUNNING = os.path.join(MODELS, "two_discounts.json")
EARN_OR_EXIT = os.path.join(MODELS, "earn_or_exit.json")
COIN_EXIT = os.path.join(MODELS, "coin_exit.json")
GATED_LINE = os.path.join(MODELS, "gated_reward.json")


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, payload = run_json(capsys, ["validate", COMMUTE])
    assert code == 0 and payload["ok"]


def test_validate_violations(tmp_path, capsys):
    doc = {"states": ["x", "y"], "actions": ["a"],
           "transitions": {"x": {"a": {"y": "3/4"}}, "y": {"a": {"y": "1"}}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["validate", str(path)])
    assert code == 1 and not payload["ok"]


def test_evaluate_matches_library(tmp_path, capsys):
    model, dims = load("commute.json")
    sigma = commute_train(model)
    spath = tmp_path / "train.json"
    spath.write_text(json.dumps(mx.strategies.strategy_to_dict(sigma)))
    code, payload = run_json(capsys, ["evaluate", COMMUTE, "--state", "home",
                                      "--strategy", str(spath)])
    assert code == 0
    direct = mx.expected_payoff(model, sigma, "home", dims)
    assert payload["vector"] == direct.serialize()


def test_frontier_matches_library(capsys, tmp_path):
    out = tmp_path / "frontier.csv"
    code, payload = run_json(capsys, ["frontier", RUNNING, "--state", "s0",
                                      "--skeleton", "counter:4", "--out", str(out)])
    assert code == 0
    model, dims = load("two_discounts.json")
    pool = mx.pure_payoff_set(model, "s0", dims, mx.counter(model, 4))
    distinct = []
    for _s, v in pool:
        if v not in distinct:
            distinct.append(v)
    assert payload["pool_size"] == pool.size
    assert len(payload["distinct"]) == len(distinct)
    assert out.read_text().startswith("pareto,vertex,")


def test_achieve_roundtrip(capsys, tmp_path):
    out = tmp_path / "mixture.json"
    code, payload = run_json(capsys, ["achieve", RUNNING, "--state", "s0",
                                      "--target", "3,1", "--skeleton", "counter:6",
                                      "--mode", "dominates", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    # the mixture file replays to the recorded realized vector
    model, dims = load("two_discounts.json")
    mixture = mx.strategies.mixture_from_dict(cert["mixture"], model)
    realized = mx.mixed_expected_payoff(model, mixture, "s0", dims)
    assert realized.serialize() == cert["realized"]
    assert all(mx.parse_rational(a) >= mx.parse_rational(b)
               for a, b in zip(cert["realized"], cert["target"]))


def test_achieve_not_achievable(capsys):
    code, payload = run_json(capsys, ["achieve", RUNNING, "--state", "s0",
                                      "--target", "6,3", "--skeleton", "counter:6"])
    assert code == 1 and not payload["ok"]


def test_approx_infinite_target(capsys):
    code, payload = run_json(capsys, ["approx", EARN_OR_EXIT, "--state", "s",
                                      "--target", "1,+inf", "--eps", "1/10",
                                      "--bigM", "10", "--skeleton", "counter:12"])
    assert code == 0
    realized = payload["certificate"]["realized"]
    assert realized[0] == "1"
    assert realized[1] == "+inf" or Fraction(realized[1]) >= 10


def test_approx_counter30_pool(capsys):
    """2^31 act tables but 32 behaviours from s: the pool is small."""
    code, payload = run_json(capsys, ["approx", EARN_OR_EXIT, "--state", "s",
                                      "--target", "1,+inf", "--eps", "1/10",
                                      "--bigM", "10", "--skeleton", "counter:30"])
    assert code == 0
    cert = payload["certificate"]
    assert cert["relation"] == ["approximates", "1/10", "10"]
    reach, reward = cert["realized"]
    assert abs(Fraction(reach) - 1) <= Fraction(1, 10)
    assert reward == "+inf" or Fraction(reward) >= 10
    model, dims = load("earn_or_exit.json")
    mixture = mx.strategies.mixture_from_dict(cert["mixture"], model)
    assert mx.mixed_expected_payoff(model, mixture, "s", dims).serialize() == cert["realized"]


def test_lexopt(capsys):
    code, payload = run_json(capsys, ["lexopt", EARN_OR_EXIT, "--state", "s",
                                      "--skeleton", "counter:8"])
    assert code == 0
    assert payload["vector"] == ["1", "8"]
    assert payload["certified"]


def test_classify(capsys):
    code, payload = run_json(capsys, ["classify", COIN_EXIT, "--state", "s"])
    assert code == 0
    assert payload["verdicts"] == ["universally_unambiguously_integrable_only"]


def test_classify_observation_class_too_large(capsys, tmp_path):
    ring = [f"r{i}" for i in range(21)]
    doc = {"states": ring + ["t"], "actions": ["a", "b"],
           "observations": ["o", "x"], "obs": {**{s: "o" for s in ring}, "t": "x"},
           "transitions": {**{s: {"a": {ring[(i + 1) % 21]: "1"}, "b": {"t": "1"}}
                              for i, s in enumerate(ring)},
                           "t": {"a": {"t": "1"}, "b": {"t": "1"}}},
           "weights": {"unit": {f"{s},{a}": ["1"] for s in ring + ["t"] for a in "ab"}},
           "payoffs": [{"kind": "shortest_path", "target": ["t"], "weights": "unit"}]}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", str(path), "--state", "r0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: observation class 'o' has 21 non-target states")


def test_belief_graph_dot(capsys, tmp_path):
    out = tmp_path / "beliefs.dot"
    code, _payload = run_json(capsys, ["belief-graph", COMMUTE, "--state", "home",
                                       "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("digraph")


def test_simulate_matches_library(capsys, tmp_path):
    model, dims = load("commute.json")
    sigma = commute_train(model)
    spath = tmp_path / "train.json"
    spath.write_text(json.dumps(mx.strategies.strategy_to_dict(sigma)))
    code, payload = run_json(capsys, ["simulate", COMMUTE, "--state", "home",
                                      "--strategy", str(spath), "--samples", "2000",
                                      "--horizon", "128", "--seed", "5"])
    assert code == 0
    direct = mx.estimate_expectation(model, sigma, "home", dims,
                                     mx.SampleConfig(samples=2000, horizon=128, seed=5))
    assert payload["mean"] == list(direct.mean)


def test_probe(capsys, tmp_path):
    model, _ = load("coin_exit.json")
    from conftest import coin_exit_always, coin_exit_switch
    fam = {
        "family": [{"index": n,
                    "strategy": mx.strategies.strategy_to_dict(coin_exit_switch(model, n))}
                   for n in (1, 2, 3)],
        "limit": mx.strategies.strategy_to_dict(coin_exit_always(model, "a")),
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    code, payload = run_json(capsys, ["probe", COIN_EXIT, "--state", "s",
                                      "--family", str(path), "--horizon", "2"])
    assert code == 0
    assert payload["limit"] == ["2"]
    assert all(row["vector"] == ["+inf"] for row in payload["rows"])


def test_usage_error():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_input_error():
    assert run(["validate", "does-not-exist.json"]) == 3


@pytest.mark.parametrize("argv", [
    ["frontier", os.path.join(MODELS, "split_reach.json"), "--state", "s",
     "--skeleton", "counter:6"],
    ["frontier", RUNNING, "--state", "s0", "--skeleton", "counter:x"],
    ["frontier", RUNNING, "--state", "s0", "--skeleton", "counter:-1"],
    ["approx", EARN_OR_EXIT, "--state", "s", "--target", "1,2,3", "--eps", "1/10",
     "--bigM", "10"],
    ["approx", EARN_OR_EXIT, "--state", "s", "--target", "1,+inf", "--eps", "0",
     "--bigM", "10"],
], ids=["unknown-state", "counter-not-int", "counter-negative", "target-dimension", "eps-zero"])
def test_bad_arguments_are_input_errors(argv, capsys):
    assert run(argv + ["--json"]) == 3
    err = capsys.readouterr().err
    assert "input error" in err
    if "split_reach.json" in argv[1]:
        assert "input error: unknown state 's'" in err


def test_jobs_is_a_usage_error():
    assert run(["frontier", RUNNING, "--state", "s0", "--jobs", "2"]) == 2


def test_malformed_model(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 3
