"""Golden outputs of everything the exact simplex decides: the `--json`
output of `frontier`, `achieve`, `approx` and `lexopt` on the bundled
models, and `supporting_map` / `dominating_face_decomposition` on fixed
rational point sets in d = 3 and 4, must stay byte-identical; so must the
hull vertices (`extreme_points` over the distinct points) of those point
sets, of a planar d = 3 set with a repeated point and of a collinear d = 2
set; so must the exact `evaluate --json`
output of a randomized strategy on a generated six-payoff model; so must the
seeded `simulate --json` output of the README command and of a mixture, whose
strategy files sit beside the goldens; so must `frontier --json` and
`achieve --json` (dominates) on two one-choice point models in d = 3 and 4,
whose memoryless pools are hull vertices on a sphere plus interior points;
and so must the stdout of the seven scripts under demos/.  Every `.txt`
file under tests/golden/ is the golden of one of these cases.

The `.txt` files under tests/golden/ were written by running this module as
a script (`PYTHONPATH=src python tests/test_golden.py`), which rewrites them
from whatever momix is on the path, and writes the point models beside them.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import momix as mx
from momix.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ROOT = os.path.dirname(HERE)
MODELS = os.path.join(ROOT, "models")
DEMOS = os.path.join(ROOT, "demos")

MODEL_STARTS = {
    "coin_exit": "s", "commute": "home", "delayed_exit": "s", "earn_or_exit": "s",
    "gated_reward": "s", "split_reach": "s0", "two_discounts": "s0",
}


def _model(name):
    return os.path.join(MODELS, f"{name}.json")


# -- one-choice point models ------------------------------------------------------


def _sphere_points(rng, d, count):
    """`count` distinct rational points on the unit sphere, by inverse
    stereographic projection of small rational parameters: each is a vertex
    of the hull of any set holding it and otherwise only points of the ball."""
    out = []
    while len(out) < count:
        u = [Fraction(rng.randint(-3, 3), 2) for _ in range(d - 1)]
        norm = sum(x * x for x in u)
        p = tuple([2 * x / (1 + norm) for x in u] + [(norm - 1) / (1 + norm)])
        if p not in out:
            out.append(p)
    return out


def _interior_points(rng, vertices, count):
    """`count` distinct strict convex combinations of 2 or 3 sphere points,
    none of them a vertex."""
    out = []
    while len(out) < count:
        chosen = rng.sample(range(len(vertices)), rng.randint(2, 3))
        raw = [rng.randint(1, 3) for _ in chosen]
        p = tuple(sum(Fraction(w, sum(raw)) * vertices[i][j] for w, i in zip(raw, chosen))
                  for j in range(len(vertices[0])))
        if p not in out and p not in vertices:
            out.append(p)
    return out


def _point_pool(seed, d, n_vertices, n_inner):
    """Sphere and interior points, shuffled, scaled and shifted per coordinate."""
    rng = random.Random(seed)
    unit = _sphere_points(rng, d, n_vertices)
    points = unit + _interior_points(rng, unit, n_inner)
    rng.shuffle(points)
    scale = [Fraction(rng.randint(4, 12), 4) for _ in range(d)]
    shift = [Fraction(rng.randrange(9, 25, 2), 4) for _ in range(d)]
    return [tuple(a * x + b for a, x, b in zip(scale, p, shift)) for p in points]


def _one_choice_model(points) -> dict:
    """Start state `s` with one action per point, each moving to an absorbing
    sink `z`; d discounted-sum payoffs read the point off the first step, so
    the memoryless pool is exactly `points`, in order."""
    d = len(points[0])
    names = [f"p{i}" for i in range(len(points))]
    weights = {f"s,{a}": [str(c) for c in p] for a, p in zip(names, points)}
    weights["z,stay"] = ["0"] * d
    return {"states": ["s", "z"], "actions": names + ["stay"],
            "transitions": {"s": {a: {"z": "1"} for a in names}, "z": {"stay": {"z": "1"}}},
            "weights": {"w": weights},
            "payoffs": [{"kind": "discounted_sum", "lambda": "1/2", "weights": "w", "windex": j}
                        for j in range(d)]}


POINT_MODELS = {  # name: (seed, d, sphere points, interior points)
    "points_d3": (5, 3, 10, 6),
    "points_d4": (6, 4, 10, 6),
}


def _point_model_path(name):
    return os.path.join(GOLDEN, f"{name}.json")


def _below_target(seed, points):
    """A convex combination of three of the points with each coordinate
    lowered by its own k/8, k in 1..8: strictly dominated by a hull point."""
    rng = random.Random(seed)
    chosen = rng.sample(points, 3)
    raw = [rng.randint(1, 5) for _ in chosen]
    return [sum(Fraction(w, sum(raw)) * p[j] for w, p in zip(raw, chosen))
            - Fraction(rng.randint(1, 8), 8) for j in range(len(points[0]))]


def _cli_cases():
    cases = {
        # README commands
        "readme_frontier": ["frontier", _model("two_discounts"), "--state", "s0",
                            "--skeleton", "counter:6"],
        "readme_achieve": ["achieve", _model("two_discounts"), "--state", "s0",
                           "--target", "3,1", "--skeleton", "counter:6", "--mode", "dominates"],
        "readme_approx": ["approx", _model("earn_or_exit"), "--state", "s", "--target", "1,+inf",
                          "--eps", "1/10", "--bigM", "10", "--skeleton", "counter:12"],
        "readme_lexopt": ["lexopt", _model("earn_or_exit"), "--state", "s",
                          "--skeleton", "counter:8"],
        # achieve, both modes, achievable and not
        "achieve_equals_two_discounts": ["achieve", _model("two_discounts"), "--state", "s0",
                                         "--target", "2,15/8", "--skeleton", "counter:6",
                                         "--mode", "equals"],
        "achieve_equals_split_reach": ["achieve", _model("split_reach"), "--state", "s0",
                                       "--target", "1/2,1/2", "--skeleton", "counter:2",
                                       "--mode", "equals"],
        "achieve_equals_split_reach_outside": ["achieve", _model("split_reach"), "--state", "s0",
                                               "--target", "4/5,4/5", "--skeleton", "counter:2",
                                               "--mode", "equals"],
        "achieve_dominates_split_reach": ["achieve", _model("split_reach"), "--state", "s0",
                                          "--target", "1/2,2/3", "--skeleton", "counter:2"],
        "achieve_dominates_gated_reward": ["achieve", _model("gated_reward"), "--state", "s",
                                           "--target", "1/4,1/4", "--skeleton", "counter:4"],
        "approx_earn_or_exit_counter6": ["approx", _model("earn_or_exit"), "--state", "s",
                                         "--target", "1/2,+inf", "--eps", "1/20", "--bigM", "5",
                                         "--skeleton", "counter:6"],
        # long counter skeletons, whose product chains are layered DAGs
        "frontier_coin_exit_counter8": ["frontier", _model("coin_exit"), "--state", "s",
                                        "--skeleton", "counter:8"],
        "approx_earn_or_exit_counter30": ["approx", _model("earn_or_exit"), "--state", "s",
                                          "--target=1,+inf", "--eps", "1/10", "--bigM", "10",
                                          "--skeleton", "counter:30"],
        # a generated stochastic MDP with all six payoff kinds and a
        # randomized 3-memory strategy; both files sit beside the goldens
        "evaluate_chain_six_kinds": ["evaluate", os.path.join(GOLDEN, "chain_six_kinds.json"),
                                     "--state", "r0", "--strategy",
                                     os.path.join(GOLDEN, "chain_six_kinds_strategy.json")],
        # seeded Monte-Carlo: the README command and a mixture with censored samples
        "readme_simulate": ["simulate", _model("commute"), "--state", "home",
                            "--strategy", os.path.join(GOLDEN, "commute_train.json"),
                            "--samples", "100000", "--seed", "7", "--horizon", "256"],
        "simulate_coin_exit_mixture": ["simulate", _model("coin_exit"), "--state", "s",
                                       "--strategy", os.path.join(GOLDEN, "coin_exit_mixture.json"),
                                       "--samples", "20000", "--seed", "5", "--horizon", "32"],
    }
    for name, (seed, *shape) in POINT_MODELS.items():
        path = _point_model_path(name)
        target = _below_target(seed, _point_pool(seed, *shape))
        cases[f"frontier_{name}"] = ["frontier", path, "--state", "s"]
        cases[f"achieve_dominates_{name}"] = ["achieve", path, "--state", "s", "--target="
                                              + ",".join(str(x) for x in target)]
    for name, start in MODEL_STARTS.items():
        for cmd in ("frontier", "lexopt"):
            cases[f"{cmd}_{name}"] = [cmd, _model(name), "--state", start,
                                      "--skeleton", "counter:2"]
    return cases


CLI_CASES = _cli_cases()


def _point_set(seed, d, n):
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 5, 7])) for _ in range(d))
            for _ in range(n)]


GEOMETRY_CASES = {  # name: (seed, d, n)
    "geometry_d3_n10": (1, 3, 10),
    "geometry_d3_n12": (2, 3, 12),
    "geometry_d4_n9": (3, 4, 9),
}


def _planar_repeat():
    """Points on the plane z = x/2 + 2y/3 - 1 in d = 3, one corner repeated."""
    flat = _point_set(4, 2, 8)
    points = [(x, y, x / 2 + 2 * y / 3 - 1) for x, y in flat]
    return points + [points[2]]


def _collinear():
    """Points on a line in d = 2, out of order and with mixed denominators."""
    base, step = (Fraction(1, 3), Fraction(2)), (Fraction(3, 2), Fraction(-5, 7))
    return [tuple(b + t * s for b, s in zip(base, step))
            for t in (Fraction(1, 2), 0, 3, Fraction(-2, 5), Fraction(7, 3), 1)]


HULL_CASES = {  # name: point set
    **{f"hull_{name[len('geometry_'):]}": _point_set(*case)
       for name, case in GEOMETRY_CASES.items()},
    "hull_d3_planar_repeat": _planar_repeat(),
    "hull_d2_collinear": _collinear(),
}


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv + ["--json"])
    return f"exit {code}\n{out.getvalue()}"


def geometry_output(seed, d, n) -> str:
    points = _point_set(seed, d, n)
    vertices = mx.extreme_points(points)
    a, b = points[vertices[0]], points[vertices[-1]]
    edge_mid = tuple((x + y) / 2 for x, y in zip(a, b))
    centroid = tuple(sum(p[j] for p in points) / n for j in range(d))
    below = tuple(x - 1 for x in points[vertices[1]])

    def dec(q, mode):
        found = mx.dominating_face_decomposition(q, points, mode=mode)
        return {"indices": list(found.indices), "coefficients": [str(c) for c in found.coefficients]}

    payload = {
        "points": [[str(x) for x in p] for p in points],
        "supporting_map": {
            name: [[str(x) for x in row] for row in mx.supporting_map(q, points).rows]
            for name, q in (("vertex", a), ("edge_mid", edge_mid))
        },
        "dominating_face_decomposition": {
            "centroid": dec(centroid, "in_hull"),
            "below_vertex": dec(below, "dominated"),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def hull_output(points) -> str:
    """The points and every index whose point is a vertex of the hull of the
    distinct points, a repeated vertex under each of its indices."""
    unique = list(dict.fromkeys(points))
    corners = {unique[i] for i in mx.extreme_points(unique)}
    payload = {
        "points": [[str(x) for x in p] for p in points],
        "vertices": [i for i, p in enumerate(points) if p in corners],
    }
    return json.dumps(payload, indent=2) + "\n"


DEMO_CASES = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))


def demo_output(name) -> str:
    """Stdout of a demo script, run from the repository root as the README
    runs it."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout


def _golden(name):
    return os.path.join(GOLDEN, f"{name}.txt")


def _read(name):
    with open(_golden(name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    assert cli_output(CLI_CASES[name]) == _read(name)


@pytest.mark.parametrize("name", sorted(GEOMETRY_CASES))
def test_geometry_golden(name):
    assert geometry_output(*GEOMETRY_CASES[name]) == _read(name)


@pytest.mark.parametrize("name", sorted(HULL_CASES))
def test_hull_golden(name):
    assert hull_output(HULL_CASES[name]) == _read(name)


@pytest.mark.parametrize("name", DEMO_CASES)
def test_demo_golden(name):
    assert demo_output(name) == _read(f"demo_{name}")


def test_every_golden_has_a_case():
    cases = {*CLI_CASES, *GEOMETRY_CASES, *HULL_CASES, *(f"demo_{name}" for name in DEMO_CASES)}
    orphans = [name for name in sorted(os.listdir(GOLDEN))
               if name.endswith(".txt") and name[:-len(".txt")] not in cases]
    assert orphans == []


def _write_all():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (seed, *shape) in POINT_MODELS.items():
        with open(_point_model_path(name), "w", encoding="utf-8") as fh:
            json.dump(_one_choice_model(_point_pool(seed, *shape)), fh, indent=1)
            fh.write("\n")
    outputs = {name: cli_output(argv) for name, argv in CLI_CASES.items()}
    outputs.update({name: geometry_output(*case) for name, case in GEOMETRY_CASES.items()})
    outputs.update({name: hull_output(points) for name, points in HULL_CASES.items()})
    outputs.update({f"demo_{name}": demo_output(name) for name in DEMO_CASES})
    for name, text in outputs.items():
        with open(_golden(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name, text.splitlines()[0])


if __name__ == "__main__":
    _write_all()
