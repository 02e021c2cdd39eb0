"""CLI: every subcommand is a thin adapter; results equal direct library
calls, and exit codes follow the contract."""

import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import momix as mx
from momix.cli import run
from momix.rationals import MAX_DECIMAL_EXPONENT, format_rational

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


def test_parser_is_built_once_and_calls_do_not_leak(capsys, tmp_path, monkeypatch):
    """`run` reuses one parser; an option given to one call never reaches
    the next: a dropped --out writes no file, a usage error still exits 2,
    and the --skeleton and --mode defaults hold after other values."""
    monkeypatch.chdir(tmp_path)
    assert mx.cli._build_parser() is mx.cli._build_parser()
    out = tmp_path / "f"
    assert run_json(capsys, ["frontier", RUNNING, "--state", "s0", "--out", str(out)])[0] == 0
    out.unlink()
    assert run_json(capsys, ["frontier", RUNNING, "--state", "s0"])[0] == 0
    assert list(tmp_path.iterdir()) == []
    assert run(["frontier", RUNNING]) == 2
    capsys.readouterr()
    achieve = ["achieve", RUNNING, "--state", "s0", "--target", "2,1"]
    explicit = run_json(capsys, achieve + ["--skeleton", "memoryless", "--mode", "dominates"])
    assert run_json(capsys, achieve + ["--skeleton", "counter:2", "--mode", "equals"]) != explicit
    assert run_json(capsys, achieve) == explicit


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


def test_frontier_validates_its_model_once(capsys, monkeypatch):
    """The loader and the pool both require a valid model; the second check
    reads the report the first one kept on the model."""
    reports = []
    monkeypatch.setattr(mx.model, "ValidationReport",
                        lambda *args, real=mx.model.ValidationReport, **kwargs:
                        reports.append(1) or real(*args, **kwargs))
    assert run_json(capsys, ["frontier", RUNNING, "--state", "s0"])[0] == 0
    assert len(reports) == 1


def test_json_output_builds_no_human_lines(capsys, monkeypatch):
    """Under --json the human-readable lines are never built, so `_fmt` is
    not called; without it they are."""
    formatted = []
    monkeypatch.setattr(mx.cli, "_fmt", lambda value: formatted.append(value) or str(value))
    commands = [["frontier", RUNNING, "--state", "s0"],
                ["achieve", RUNNING, "--state", "s0", "--target", "2,1"],
                ["lexopt", EARN_OR_EXIT, "--state", "s"]]
    for argv in commands:
        assert run_json(capsys, argv)[0] == 0
    assert formatted == []
    for argv in commands:
        assert run(argv) == 0
    assert formatted


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


def test_an_internal_fault_exits_1_with_its_error(capsys, monkeypatch):
    """A library fault that is no input error nor a negative answer, such as
    a failed self-check, ends in exit 1 with `error: ...` on stderr."""
    def faulty(*args, **kwargs):
        raise mx.SelfCheckFailed("exact recombination check failed")

    monkeypatch.setattr(mx.synthesis, "achieve", faulty)
    assert run(["achieve", RUNNING, "--state", "s0", "--target", "3,1"]) == 1
    assert capsys.readouterr() == ("", "error: exact recombination check failed\n")


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


def test_classify_ring_in_one_observation_class(capsys, tmp_path):
    """21 states share observation o, so 2^21 supports are conceivable, but
    the game reaches only the singletons of the ring and {t}: an avoider
    loops on a forever."""
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
    code, payload = run_json(capsys, ["classify", str(path), "--state", "r0"])
    assert code == 0
    assert payload["verdicts"] == ["universally_unambiguously_integrable_only"]


def test_closed_stdout_exits_1_quietly():
    """A reader that stops early (`momix ... | head -c 10`) is not bad input:
    the command exits 1 and prints nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        done = subprocess.run([sys.executable, "-m", "momix", "frontier", COIN_EXIT,
                               "--state", "s", "--skeleton", "counter:8", "--json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_strategy_file_as_skeleton(capsys):
    """`--skeleton file:<strategy>` builds the pool over that strategy's
    memory; a mixture file there is an input error."""
    code, payload = run_json(capsys, ["frontier", COMMUTE, "--state", "home",
                                      "--skeleton", f"file:{TRAIN_FILE}"])
    assert code == 0
    model, dims = load("commute.json")
    skeleton = mx.strategies.load_strategy_file(TRAIN_FILE, model).skeleton
    assert payload["pool_size"] == mx.pure_payoff_set(model, "home", dims, skeleton).size
    assert run(["frontier", COIN_EXIT, "--state", "s", "--skeleton", f"file:{MIXTURE_FILE}"]) == 3
    assert capsys.readouterr().err == "input error: a mixture file cannot serve as a skeleton\n"


def test_evaluate_mixture_file(capsys):
    code, payload = run_json(capsys, ["evaluate", COIN_EXIT, "--state", "s",
                                      "--strategy", MIXTURE_FILE])
    assert code == 0
    model, dims = load("coin_exit.json")
    mixture = mx.strategies.load_strategy_file(MIXTURE_FILE, model)
    assert payload["vector"] == mx.mixed_expected_payoff(model, mixture, "s", dims).serialize()


def test_simulate_writes_csv(capsys, tmp_path):
    out = tmp_path / "estimate.csv"
    code, payload = run_json(capsys, ["simulate", COMMUTE, "--state", "home",
                                      "--strategy", TRAIN_FILE, "--samples", "200",
                                      "--horizon", "16", "--seed", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text() == (
        "dim,mean,stderr,bias_bound,censored,seed\n"
        f"0,{payload['mean'][0]},{payload['stderr'][0]},{payload['bias_bound'][0]},"
        f"{payload['censored'][0]},4\n")


def test_belief_graph_prints_dot_without_out(capsys, tmp_path):
    out = tmp_path / "beliefs.dot"
    assert run(["belief-graph", COMMUTE, "--state", "home", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["belief-graph", COMMUTE, "--state", "home"]) == 0
    assert capsys.readouterr().out == out.read_text()


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


TRAIN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                          "commute_train.json")
MIXTURE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "coin_exit_mixture.json")


def _document(path, **fields):
    """A JSON file's object with top-level fields replaced."""
    with open(path, encoding="utf-8") as fh:
        return {**json.load(fh), **fields}


TRAIN = _document(TRAIN_FILE)
HALF_TRAIN = {**TRAIN, "act": {**TRAIN["act"], "0,home": {"train": "1/2"}}}
HALF_HALF_TRAIN = {**TRAIN, "act": {**TRAIN["act"], "0,home": {"train": "1/2", "bike": "1/2"}}}
NO_LAMBDA = [{"kind": "discounted_sum", "weights": "w"}]
BAD_WINDEX = [{"kind": "discounted_sum", "lambda": "1/2", "weights": "w", "windex": "z"}]
# models that load but break a `validate` rule: a reachable state with no
# enabled action, one observation on states with different enabled actions,
# a distribution summing to 1/2
REACH_S1 = [{"kind": "reach", "target": ["s1"]}]
DEADLOCK = {"states": ["s0", "s1"], "actions": ["a"], "transitions": {"s0": {"a": {"s1": "1"}}},
            "payoffs": REACH_S1}
MIXED_OBSERVATION = {"states": ["s0", "s1", "s2"], "actions": ["a", "b"],
                     "observations": ["x", "y"], "obs": {"s0": "x", "s1": "y", "s2": "y"},
                     "transitions": {"s0": {"a": {"s1": "1/2", "s2": "1/2"}},
                                     "s1": {"a": {"s1": "1"}, "b": {"s0": "1"}},
                                     "s2": {"a": {"s2": "1"}}},
                     "payoffs": REACH_S1}
HALF_DISTRIBUTION = _document(RUNNING, transitions={**_document(RUNNING)["transitions"],
                                                    "s1": {"a": {"s1": "1/2"}}})
FRONTIER = ["frontier", "MODEL", "--state", "s0"]
EVALUATE = ["evaluate", COMMUTE, "--state", "home", "--strategy", "STRATEGY"]
SIMULATE = ["simulate", COMMUTE, "--state", "home", "--strategy", TRAIN_FILE]
PROBE = ["probe", COMMUTE, "--state", "home", "--family", "STRATEGY"]

HUGE_BIKE = _document(COMMUTE)
HUGE_BIKE["weights"]["time"]["home,bike"] = ["1e400"]

# id: (argv, model document, strategy document); the words MODEL and
# STRATEGY in argv stand for files holding the two documents (a probe's
# family document takes the place of the strategy).
BAD_INPUTS = {
    "unknown-state": (["frontier", os.path.join(MODELS, "split_reach.json"), "--state", "s",
                       "--skeleton", "counter:6"], None, None),
    "classify-unknown-state": (["classify", os.path.join(MODELS, "split_reach.json"),
                                "--state", "nosuch"], None, None),
    "counter-not-int": (["frontier", RUNNING, "--state", "s0", "--skeleton", "counter:x"],
                        None, None),
    "counter-negative": (["frontier", RUNNING, "--state", "s0", "--skeleton", "counter:-1"],
                         None, None),
    "target-dimension": (["approx", EARN_OR_EXIT, "--state", "s", "--target", "1,2,3",
                          "--eps", "1/10", "--bigM", "10"], None, None),
    "eps-zero": (["approx", EARN_OR_EXIT, "--state", "s", "--target", "1,+inf", "--eps", "0",
                  "--bigM", "10"], None, None),
    "model-not-object": (FRONTIER, 5, None),
    "obs-list": (FRONTIER, _document(RUNNING, obs=["s0", "s1", "s2", "s3"]), None),
    "payoffs-object": (FRONTIER, _document(RUNNING, payoffs={"kind": "reach"}), None),
    "state-not-string": (FRONTIER, _document(RUNNING, states=[["a"]]), None),
    "weights-list": (FRONTIER, _document(RUNNING, weights=[]), None),
    "no-lambda": (FRONTIER, _document(RUNNING, payoffs=NO_LAMBDA), None),
    "windex-not-int": (FRONTIER, _document(RUNNING, payoffs=BAD_WINDEX), None),
    "weight-table-list": (FRONTIER, _document(RUNNING, weights={"w": []}), None),
    "target-not-states": (FRONTIER, _document(RUNNING, payoffs=[
        {"kind": "reach", "target": [["s1"]]}]), None),
    "reach-no-target": (FRONTIER, _document(RUNNING, payoffs=[{"kind": "reach"}]), None),
    "shortest-path-no-target": (FRONTIER, _document(RUNNING, payoffs=[
        {"kind": "shortest_path", "weights": "w"}]), None),
    "weights-name-list": (FRONTIER, _document(RUNNING, payoffs=[
        {"kind": "discounted_sum", "lambda": "1/2", "weights": ["w"]}]), None),
    "no-payoffs": (FRONTIER, {k: v for k, v in _document(RUNNING).items() if k != "payoffs"},
                   None),
    "kind-object": (FRONTIER, _document(RUNNING, payoffs=[{"kind": {}}]), None),
    "kind-list": (FRONTIER, _document(RUNNING, payoffs=[{"kind": ["reach"], "target": ["s1"]}]),
                  None),
    "lambda-huge": (FRONTIER, _document(RUNNING, payoffs=[
        {"kind": "discounted_sum", "lambda": "1e5000", "weights": "w"}]), None),
    # exponents past rationals.MAX_DECIMAL_EXPONENT, refused before they are expanded
    "weight-exponent-huge": (FRONTIER, _document(RUNNING, weights={"w": {
        **_document(RUNNING)["weights"]["w"], "s0,a": ["1e3000000", "1"]}}), None),
    "target-exponent-huge": (["approx", EARN_OR_EXIT, "--state", "s", "--target", "1e3000000,1",
                              "--eps", "1/10", "--bigM", "10"], None, None),
    "strategy-not-object": (EVALUATE, None, [1]),
    "update-list": (EVALUATE, None, {**TRAIN, "update": []}),
    "mixture-member-not-object": (EVALUATE, None, {"support": [1], "weights": ["1"]}),
    "no-update": (EVALUATE, None, {k: v for k, v in TRAIN.items() if k != "update"}),
    "memory-not-strings": (EVALUATE, None, {**TRAIN, "memory": ["0", ["1"]]}),
    "update-unknown-memory": (EVALUATE, None,
                              {**TRAIN, "update": {**TRAIN["update"], "0,home,bike": ["0"]}}),
    "act-entry-list": (EVALUATE, None, {**TRAIN, "act": {**TRAIN["act"], "0,home": ["train"]}}),
    "act-disabled-action": (EVALUATE, None, {**TRAIN, "act": {**TRAIN["act"], "0,home": "fly"}}),
    # one action with a weight other than 1 is a distribution that does not sum to 1
    "act-single-weight-half": (EVALUATE, None, HALF_TRAIN),
    "act-single-weight-zero": (EVALUATE, None,
                               {**TRAIN, "act": {**TRAIN["act"], "0,home": {"bike": "0"}}}),
    "mixture-member-single-weight": (EVALUATE, None, {"support": [HALF_TRAIN], "weights": ["1"]}),
    "mixture-weights-zero": (EVALUATE, None, {"support": [TRAIN], "weights": ["0"]}),
    "family-not-list": (PROBE, None, {"family": 5, "limit": TRAIN}),
    "family-index-missing": (PROBE, None, {"family": [{"strategy": TRAIN}], "limit": TRAIN}),
    "family-not-object": (PROBE, None, [TRAIN]),
    "deadlock": (FRONTIER, DEADLOCK, None),
    "deadlock-lexopt": (["lexopt", "MODEL", "--state", "s0"], DEADLOCK, None),
    "obs-action-consistency": (FRONTIER, MIXED_OBSERVATION, None),
    "distribution-sum": (FRONTIER, HALF_DISTRIBUTION, None),
    "samples-zero": (SIMULATE + ["--samples", "0"], None, None),
    "horizon-negative": (SIMULATE + ["--horizon", "-3"], None, None),
    "seed-negative": (SIMULATE + ["--seed", "-1"], None, None),
    "seed-too-large": (SIMULATE + ["--seed", str(2 ** 128)], None, None),
    "samples-huge": (SIMULATE + ["--samples", str(10 ** 20)], None, None),
    "horizon-huge": (SIMULATE + ["--horizon", str(10 ** 20)], None, None),
    "weight-beyond-float": (["simulate", "MODEL", "--state", "home", "--strategy", "STRATEGY"],
                            HUGE_BIKE, {**TRAIN, "act": {**TRAIN["act"], "0,home": "bike"}}),
    "duplicate-states": (FRONTIER, _document(RUNNING, states=["s0", "s1", "s2", "s3", "s0"]),
                         None),
    "obs-missing-state": (FRONTIER, _document(RUNNING, obs={"s0": "s0"}), None),
    "obs-undeclared": (FRONTIER, _document(RUNNING, obs={"s0": "s0", "s1": "s1", "s2": "s2",
                                                         "s3": "s9"}), None),
    "mixture-member-behavioural": (EVALUATE, None, {"support": [HALF_HALF_TRAIN],
                                                    "weights": ["1"]}),
    "mixture-weights-longer": (EVALUATE, None, {"support": [TRAIN], "weights": ["1", "0"]}),
    "pool-over-cap": (["frontier", COIN_EXIT, "--state", "s", "--skeleton", "counter:16"], None,
                      None),
    "simulate-buchi": (["simulate", "MODEL", "--state", "home", "--strategy", TRAIN_FILE],
                       _document(COMMUTE, payoffs=[{"kind": "buchi", "target": ["work"]}]), None),
}


@pytest.mark.parametrize("argv, model_doc, strategy_doc", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_arguments_are_input_errors(argv, model_doc, strategy_doc, tmp_path, capsys):
    files = {"MODEL": model_doc, "STRATEGY": strategy_doc}
    for word, doc in files.items():
        if doc is not None:
            (tmp_path / f"{word}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{arg}.json") if arg in files else arg for arg in argv]
    assert run(argv + ["--json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    if "split_reach.json" in argv[1]:
        assert f"input error: unknown state {argv[argv.index('--state') + 1]!r}" in err


def test_simulation_out_of_memory_is_an_input_error(monkeypatch, capsys):
    """A simulation whose arrays cannot be allocated ends in exit 3 with one
    line on stderr, not in a traceback."""
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000, 1)")

    monkeypatch.setattr(mx.montecarlo, "estimate_expectation", no_memory)
    assert run(SIMULATE + ["--samples", str(10 ** 12)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: the simulation does not fit in memory") \
        and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["frontier"], ["achieve", "--target", "1,1"],
    ["approx", "--target", "1,+inf", "--eps", "1/10", "--bigM", "10"], ["lexopt"]],
    ids=lambda command: command[0])
def test_pool_out_of_memory_is_an_input_error(command, monkeypatch, capsys):
    """Each pool command whose pool cannot be built in memory ends in exit 3
    with one line on stderr, not in a traceback."""
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(mx.evaluate, "pure_payoff_set", no_memory)
    argv = [command[0], EARN_OR_EXIT, "--state", "s", "--skeleton", "counter:20000", *command[1:]]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: the pool does not fit in memory") and err.count("\n") == 1


@pytest.mark.parametrize("payoff, message", [
    ({"kind": "reach_gated_discounted_sum", "target": ["nope"], "weights": "w"},
     "target references unknown states ['nope']"),
    ({"kind": "discounted_sum", "lambda": "2", "weights": "nope"},
     "discount factor 2 outside [0, 1)"),
    ({"kind": "shortest_path", "target": ["nope"], "weights": "nope"},
     "target references unknown states ['nope']"),
], ids=["target-before-lambda", "lambda-before-weights", "target-before-weights"])
def test_payoff_fields_fail_in_reading_order(payoff, message, tmp_path, capsys):
    """A payoff entry with several faulty fields reports the first field the
    loader reads: target, then lambda, then weights."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_document(RUNNING, payoffs=[payoff])))
    assert run(["frontier", str(path), "--state", "s0"]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_classify_total_reward_on_a_pomdp_is_unknown(capsys, tmp_path):
    """u and v look alike, and u's a-loop earns 1: a controller that saw the
    state could earn +inf, but whether an observation-based one can is not
    decided, so the verdict is "unknown", in the library and in `classify`."""
    doc = {"states": ["s", "u", "v"], "actions": ["a", "b"],
           "observations": ["s", "o"], "obs": {"s": "s", "u": "o", "v": "o"},
           "transitions": {"s": {"a": {"u": "1/2", "v": "1/2"}},
                           "u": {"a": {"u": "1"}, "b": {"v": "1"}},
                           "v": {"a": {"v": "1"}, "b": {"v": "1"}}},
           "weights": {"w": {"s,a": ["0"], "u,a": ["1"], "u,b": ["0"], "v,a": ["0"],
                             "v,b": ["0"]}},
           "payoffs": [{"kind": "total_reward", "weights": "w"}]}
    model, dims = mx.load_problem(json.dumps(doc))
    [verdict] = mx.classify_integrability(model, dims, "s")
    assert verdict.verdict == "unknown"
    assert verdict.witness == (frozenset({"u"}), ("u", "a"))
    path = tmp_path / "aliased.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["classify", str(path), "--state", "s"])
    assert code == 0
    assert payload["verdicts"] == ["unknown"]


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_probe_horizon_below_one_is_an_input_error(horizon, tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": [{"index": 1, "strategy": TRAIN}], "limit": TRAIN}))
    assert run(PROBE[:-1] + [str(family), "--horizon", horizon]) == 3
    assert capsys.readouterr().err == f"input error: --horizon must be at least 1, not {horizon}\n"


TWO_DISCOUNTS_INF = ["--state", "s0", "--target=+inf,0"]


@pytest.mark.parametrize("argv, message", [
    (["achieve", RUNNING] + TWO_DISCOUNTS_INF, "achieve needs a finite target; use approx"),
    (["approx", RUNNING] + TWO_DISCOUNTS_INF + ["--eps", "1/2", "--bigM", "-3"],
     "--bigM must be positive, not -3"),
    (["approx", RUNNING] + TWO_DISCOUNTS_INF + ["--eps", "1/2", "--bigM", "0"],
     "--bigM must be positive, not 0"),
], ids=["achieve-infinite-target", "bigM-negative", "bigM-zero"])
def test_meaningless_targets_and_bounds_are_input_errors(argv, message, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_rational_too_large_for_a_float_prints_alone(tmp_path, capsys):
    """A valid weight past the float range prints as its rational alone,
    without a decimal rendering, and the commands that print it succeed."""
    huge = 10 ** 1000
    assert mx.cli._fmt(Fraction(huge)) == str(huge)
    assert mx.cli._fmt(Fraction(3, 2)) == "3/2 (1.5)"
    doc = _document(RUNNING)
    doc["weights"]["w"]["s0,a"] = ["1e1000", "1"]
    path = str(tmp_path / "huge.json")
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    for argv in (["frontier", path, "--state", "s0"], ["frontier", path, "--state", "s0", "--json"],
                 ["achieve", path, "--state", "s0", "--target", "1,1"],
                 ["lexopt", path, "--state", "s0"]):
        assert run(argv) == 0, argv
    first, second = capsys.readouterr().out.splitlines()[-1].split(": ")[1].split("  ")
    assert len(first) > 1000 and "(" not in first and second == "1 (1)"


def test_rationals_print_exactly_past_the_conversion_limit(tmp_path, capsys):
    """The bias bound 2 (3/4)^8000 / (1 - 3/4) of two_discounts' first
    payoff has more digits than int-to-str conversion allows by default: it
    prints exactly, and the limit stays."""
    bound = 2 * Fraction(3, 4) ** 8000 * 4
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{bound.numerator}/{bound.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 2 * limit
    assert format_rational(bound) == expected and format_rational(-bound) == "-" + expected
    doc = _document(RUNNING)
    always_a = {"memory": ["0"], "init": "0",
                "update": {f"0,{s},{a}": "0" for s, acts in doc["transitions"].items()
                           for a in acts},
                "act": {f"0,{s}": "a" for s in doc["states"]}}
    strategy = tmp_path / "always_a.json"
    strategy.write_text(json.dumps(always_a))
    argv = ["simulate", RUNNING, "--state", "s0", "--strategy", str(strategy),
            "--horizon", "8000", "--samples", "20"]
    assert run(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bias_bound"][0] == expected
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("bounds", [["--eps", "1/10", "--bigM", "10"],
                                    ["--eps", "1/10", "--bigM", "1e5000"],
                                    ["--eps", "1e-5000", "--bigM", "10"]],
                         ids=["plain", "bigM-huge", "eps-tiny"])
def test_infeasible_approximation_prints_huge_bounds_exactly(bounds, capsys):
    """No mixture reaches 5 on the first payoff, and the refusal names eps
    and M exactly, however many digits they have."""
    code, payload = run_json(capsys, ["approx", EARN_OR_EXIT, "--state", "s", "--target", "5,+inf",
                                      "--skeleton", "counter:2"] + bounds)
    assert code == 1 and not payload["ok"]
    eps, big_m = (format_rational(mx.parse_rational(v)) for v in bounds[1::2])
    assert payload["reason"].endswith(f"at eps={eps}, M={big_m}")


def test_certificate_prints_huge_bounds_exactly(capsys):
    """An eps past the int-to-str limit is met by any mixture, and the
    certificate's relation names it exactly."""
    code, payload = run_json(capsys, ["approx", EARN_OR_EXIT, "--state", "s",
                                      "--target", "1/2,1/2", "--eps", "1e5000", "--bigM", "10"])
    assert code == 0
    huge = format_rational(Fraction(10) ** 5000)
    assert payload["certificate"]["relation"] == ["approximates", huge, "10"]


def test_jobs_is_a_usage_error():
    assert run(["frontier", RUNNING, "--state", "s0", "--jobs", "2"]) == 2


def test_out_only_where_a_file_is_written(tmp_path):
    """--out is a usage error on the subcommands that write no result file."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": [{"index": 1, "strategy": TRAIN}], "limit": TRAIN}))
    for argv in (["validate", COMMUTE], EVALUATE[:-1] + [TRAIN_FILE],
                 ["lexopt", COMMUTE, "--state", "home"], ["classify", COMMUTE, "--state", "home"],
                 PROBE[:-1] + [str(family)]):
        assert run(argv + ["--json"]) == 0, argv
        assert run(argv + ["--out", str(tmp_path / "x")]) == 2, argv
    assert not (tmp_path / "x").exists()


def test_decimal_exponents_are_bounded():
    """`parse_rational` expands an exponent up to MAX_DECIMAL_EXPONENT in
    magnitude and refuses a larger one before expanding it, reading signs,
    leading zeros, digit underscores and spaces as Fraction does."""
    limit = MAX_DECIMAL_EXPONENT
    assert mx.parse_rational(f"1e{limit}") == 10 ** limit
    assert mx.parse_rational(f" -2.5E-000{limit} ") == Fraction(-25, 10 ** (limit + 1))
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", " 1.5e+0003000000", "1e1_000_000",
                 "1e" + "9" * 5000):
        with pytest.raises(mx.errors.SchemaError, match="limit of 100,000"):
            mx.parse_rational(text)


def test_malformed_model(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 3
    assert run(["evaluate", COMMUTE, "--state", "home", "--strategy", str(path)]) == 3
    assert run(PROBE[:-1] + [str(path)]) == 3
    assert capsys.readouterr().err.count("input error: invalid JSON: ") == 3
    with pytest.raises(mx.ParseError, match="^invalid JSON: "):
        mx.load_model(path.read_text())


# -- seeded mutations of the bundled files ------------------------------------------

# values a mutation puts in place of a field: wrong JSON types, floats, huge
# and tiny exponents, probabilities outside [0, 1] and an unknown id
MUTANT_VALUES = ({}, [], 5, 1.5, None, True, "x", "1e5000", "-1e5000", "1e-5000", "-1/2", "3/2",
                 "nosuch", "1e400", -1, 2 ** 70)
# values a mutation puts in place of an option's argument
MUTANT_ARGUMENTS = ("1e5000", "-1e5000", "1e-5000", "0.5", "x", "", "-1", "0", "+inf", "-inf",
                    "nosuch", "s,x", "1/0", "1/2,1/2,1/2", "counter:x", "memoryless",
                    "file:STRATEGY")
MUTATED_MODELS = {"commute.json": "home", "two_discounts.json": "s0", "earn_or_exit.json": "s",
                  "coin_exit.json": "s", "split_reach.json": "s0", "gated_reward.json": "s"}
SUBCOMMANDS = (["validate", "MODEL"],
               ["evaluate", "MODEL", "--strategy", "STRATEGY"],
               ["frontier", "MODEL", "--skeleton", "counter:2"],
               ["achieve", "MODEL", "--target", "TARGET", "--skeleton", "counter:1"],
               ["approx", "MODEL", "--target", "TARGET", "--eps", "1/10", "--bigM", "10"],
               ["lexopt", "MODEL"],
               ["classify", "MODEL"],
               ["belief-graph", "MODEL"],
               ["simulate", "MODEL", "--strategy", "STRATEGY", "--samples", "50",
                "--horizon", "16"],
               ["probe", "MODEL", "--family", "FAMILY", "--horizon", "2"])
MUTATION_CASES = 2000
CASE_SECONDS = 5


def _mutate(doc, rng):
    """A copy of the JSON value `doc` with one or two random edits: a field
    replaced by one of MUTANT_VALUES, deleted, or renamed to an unknown id."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice([1, 1, 2])):
        paths, todo = [], [()]
        while todo:
            path = todo.pop()
            paths.append(path)
            node = doc
            for key in path:
                node = node[key]
            keys = node if isinstance(node, dict) else range(len(node)) \
                if isinstance(node, list) else ()
            todo += [path + (key,) for key in keys]
        path = rng.choice(paths[1:])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = rng.random()
        if edit < 0.2:
            del parent[path[-1]]
        elif edit < 0.3 and isinstance(parent, dict):
            parent[rng.choice(["nosuch", f"{path[-1]},x"])] = parent.pop(path[-1])
        else:
            parent[path[-1]] = rng.choice(MUTANT_VALUES)
    return doc


def _mutation_case(seed):
    """Subcommand `seed % len(SUBCOMMANDS)` on a bundled model and one of its pure
    strategies, with the model, the strategy or one option's argument
    mutated: (argv, {file word: document})."""
    rng = random.Random(seed)
    name = rng.choice(sorted(MUTATED_MODELS))
    state = MUTATED_MODELS[name]
    model_doc = _document(os.path.join(MODELS, name))
    model, dims = load(name)
    strategy = mx.pure_payoff_set(model, state, dims, mx.memoryless(model))[0][0]
    strategy_doc = mx.strategies.strategy_to_dict(strategy)
    argv = list(SUBCOMMANDS[seed % len(SUBCOMMANDS)])
    argv[2:2] = ["--state", state] if argv[0] != "validate" else []
    argv = [",".join(["1/2"] * len(dims)) if arg == "TARGET" else arg for arg in argv]
    edit = rng.random()
    if edit < 0.5:
        model_doc = _mutate(model_doc, rng)
    elif edit < 0.7:
        strategy_doc = _mutate(strategy_doc, rng)
    else:
        options = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
        if options:
            argv[rng.choice(options)] = rng.choice(MUTANT_ARGUMENTS)
    family = {"family": [{"index": 1, "strategy": strategy_doc}], "limit": strategy_doc}
    files = {"MODEL": model_doc, "STRATEGY": strategy_doc, "FAMILY": family}
    return argv + ["--json"] * rng.randrange(2), files


def test_mutated_inputs_end_in_an_exit_code(tmp_path, capsys):
    """Seeded mutations of the bundled models, of a pure strategy of each and
    of the options, through every subcommand in process: each run returns
    0-3 within CASE_SECONDS and raises nothing."""
    failures = []
    for seed in range(MUTATION_CASES):
        argv, files = _mutation_case(seed)
        for word, doc in files.items():
            (tmp_path / f"{word}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{arg}.json") if arg in files
                else f"file:{tmp_path / 'STRATEGY.json'}" if arg == "file:STRATEGY" else arg
                for arg in argv]
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception as exc:  # a traceback is the failure this test looks for
            code = f"{type(exc).__name__}: {exc}"[:200]
        seconds = time.perf_counter() - start
        capsys.readouterr()
        if code not in (0, 1, 2, 3) or seconds > CASE_SECONDS:
            failures.append((seed, argv[0], code, round(seconds, 2)))
    assert failures == []
