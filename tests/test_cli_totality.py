"""Exit-code totality: every schema-valid config makes the CLI exit 0, 2, 3 or 4, never raise.

Configs are drawn on 2-4 nodes, with the graph or the model sometimes in a
file of its own ({"path": ...}), W sometimes ragged (one row of another
length), a ``rates`` config sometimes pointing to a
trajectory CSV that is valid, malformed or has the wrong column count, and
magnitudes of beta, V, W, edge weights, fields and t_end log-uniform over
1e-300 .. 1e300, so they reach overflow,
underflow and stiffness far outside the usual range. The work per example
is kept small: few iterations in the config (count <= 50, K <= 4, max_iter
<= 50), and the budgets the config cannot set are cut for the test (Gibbs
solves to 200 iterations, integration to 100 attempted steps). A spent
budget still raises the NoConvergence or StepSizeUnderflow it raises at full
size. Overflow to +-inf is the float answer at these magnitudes, and the
CLI writes it as "inf", so numpy overflow warnings are silenced; an invalid
operation (NaN) or a division by zero still fails the test. An ``lsi`` config
whose model has no convexity certificate exits 2 or 4, before any Gibbs solve.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphfpe import EnergyModel, cli, convexity_certificate, fpe_dynamics, free_energy, rate_analysis
from graphfpe.cli import main

positive = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
signed = st.one_of(st.just(0.0), positive, positive.map(lambda x: -x))
# about 2% of the masses underflow to exactly 0
masses = st.floats(-330.0, 0.0).map(lambda e: 10.0**e)


def run_capped(argv) -> int:
    real = free_energy.gibbs_fixed_point

    def gibbs(model, init, tol=1e-12, max_iter=10_000, damping=0.5):
        return real(model, init, tol=tol, max_iter=min(max_iter, 200), damping=damping)

    with (
        mock.patch.object(cli, "gibbs_fixed_point", gibbs),
        mock.patch.object(free_energy, "gibbs_fixed_point", gibbs),
        mock.patch.object(rate_analysis, "gibbs_fixed_point", gibbs),
        mock.patch.object(fpe_dynamics, "_STEP_BUDGET", 100),
        np.errstate(over="ignore"),
    ):
        return main(argv)


@st.composite
def densities(draw, n):
    x = draw(st.lists(masses, min_size=n, max_size=n).filter(lambda v: sum(v) > 0.0))
    total = sum(x)
    return [v / total for v in x]


@st.composite
def trajectory_csv(draw, n):
    """(kind, text) of a trajectory file: rows as simulate writes them, unparsable cells, or rows of a wrong width."""
    kind = draw(st.sampled_from(["valid", "malformed", "columns"]))
    width = n + 3 if kind != "columns" else draw(st.sampled_from([1, n + 2, n + 4]))
    rows = draw(st.lists(st.lists(signed, min_size=width, max_size=width), min_size=1, max_size=4))
    if kind == "valid":  # times from 0 up, as simulate records them
        t = 0.0
        for row in rows:
            row[0] = t
            t += draw(positive)
    lines = [",".join(repr(x) for x in row) for row in rows]
    if kind == "malformed":
        cells = st.text(alphabet=st.sampled_from(list("0123456789.,-+eE naif#x")), max_size=12)
        lines[draw(st.integers(0, len(lines) - 1))] = draw(cells)
    return kind, "\n".join(["t," + ",".join(f"rho_{i + 1}" for i in range(n)) + ",energy,dissipation", *lines]) + "\n"


@st.composite
def configs(draw, command):
    """(config, files): a schema-valid config and the files it refers to, by name."""
    n = draw(st.integers(2, 4))
    pairs = [(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)]
    for i, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2)):
        if i != j and (min(i, j), max(i, j)) not in pairs:
            pairs.append((min(i, j), max(i, j)))
    edges = [[i, j, draw(positive)] for i, j in pairs]
    model = {"beta": draw(positive)}
    if draw(st.booleans()):
        model["V"] = draw(st.lists(signed, min_size=n, max_size=n))
    if draw(st.booleans()):
        W = [draw(st.lists(signed, min_size=n, max_size=n)) for _ in range(n)]
        if draw(st.booleans()):  # the symmetric W that rates and lsi require
            W = [[W[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if draw(st.integers(0, 3)) == 0:  # a ragged W, which the schema accepts: one row of another length
            k = draw(st.integers(0, n - 1))
            W[k] = W[k][: draw(st.integers(1, n - 1))] if draw(st.booleans()) else W[k] + [draw(signed)]
        model["W"] = W
    config = {"graph": {"n": n, "edges": edges}, "model": model, "seed": draw(st.integers(0, 2**31))}
    files = {}
    for key in ("graph", "model"):
        if draw(st.booleans()):
            files[f"{key}.json"] = json.dumps(config[key])
            config[key] = {"path": f"{key}.json"}
    rho = densities(n)
    if command == "gibbs":
        opts = {"max_iter": draw(st.integers(1, 50))}
        if draw(st.booleans()):
            opts["starts"] = draw(st.lists(rho, min_size=1, max_size=3))
        else:
            opts["init"] = draw(rho)
    elif command == "simulate":
        opts = {"rho0": draw(rho), "t_end": draw(positive), "record_every": draw(st.integers(0, 5))}
    elif command == "rates":
        opts = {"rho0": draw(rho), "gibbs_max_iter": draw(st.integers(1, 50))}
        if draw(st.booleans()):
            opts["starts"] = draw(st.lists(rho, min_size=1, max_size=3))
        if draw(st.booleans()):
            files["trajectory.csv"] = draw(trajectory_csv(n))[1]
            opts["trajectory"] = "trajectory.csv"
    elif command == "lsi":
        opts = {"count": draw(st.integers(1, 50)), "min_mass": draw(st.floats(0.0, 0.3))}
        if draw(st.booleans()):
            opts["rho0"] = draw(rho)
    elif command == "w2":
        opts = {
            "rho0": draw(rho),
            "rho1": draw(rho),
            "K": draw(st.integers(1, 4)),
            "max_iters": draw(st.integers(1, 5)),
            "grad_tol": draw(positive),
        }
    else:
        opts = {"rho": draw(rho), "field": [[*draw(st.permutations([i, j])), draw(signed)] for i, j, _ in edges]}
    config[command] = opts
    return config, files


def check_exit_code(tmp_path_factory, command, case, *flags):
    config, files = case
    work = tmp_path_factory.mktemp(command)
    for name, text in files.items():
        (work / name).write_text(text)
    path = work / "cfg.json"
    path.write_text(json.dumps(config))
    code = run_capped([command, "--config", str(path), "--out", str(work / "out"), *flags])
    assert code in (0, 2, 3, 4)
    return code


def certified(case) -> bool:
    """Whether the drawn model is well formed and certified convex: a symmetric W with lambda_min(W) + beta > 0."""
    config, files = case
    graph = json.loads(files["graph.json"]) if "graph.json" in files else config["graph"]
    model = json.loads(files["model.json"]) if "model.json" in files else config["model"]
    n = graph["n"]
    W = model.get("W", [[0.0] * n] * n)
    if any(len(row) != n for row in W):  # a ragged W, refused as an invalid model
        return False
    energy_model = EnergyModel(np.array(W), np.zeros(n), model["beta"])
    return energy_model.is_symmetric and convexity_certificate(energy_model).certified_convex


@settings(max_examples=25)
@given(configs("gibbs"))
def test_gibbs_exit_code_is_total(tmp_path_factory, case):
    check_exit_code(tmp_path_factory, "gibbs", case)


@settings(max_examples=25)
@given(configs("simulate"))
def test_simulate_exit_code_is_total(tmp_path_factory, case):
    check_exit_code(tmp_path_factory, "simulate", case)


@settings(max_examples=25)
@given(configs("rates"), st.booleans())
def test_rates_exit_code_is_total(tmp_path_factory, case, equilibrium):
    check_exit_code(tmp_path_factory, "rates", case, *(["--equilibrium"] if equilibrium else []))


def bistable(W) -> tuple[dict, dict]:
    """An lsi case on one edge whose model fails the certificate and whose Gibbs iteration does not settle."""
    graph = {"n": 2, "edges": [[1, 2, 1.0]]}
    return {"graph": graph, "model": {"beta": 1.0, "W": W, "V": [0.01, 0.0]}, "lsi": {"count": 100}, "seed": 0}, {}


@settings(max_examples=25)
@given(configs("lsi"))
@example(case=bistable([[-20.0, 0.0], [0.0, -20.0]]))
@example(case=bistable([[0.0, 30.0], [30.0, 0.0]]))
def test_lsi_exit_code_is_total(tmp_path_factory, case):
    code = check_exit_code(tmp_path_factory, "lsi", case)
    if not certified(case):  # refused before its Gibbs solve: an invalid config or no convexity certificate
        assert code in (2, 4)


@settings(max_examples=25)
@given(configs("w2"))
def test_w2_exit_code_is_total(tmp_path_factory, case):
    check_exit_code(tmp_path_factory, "w2", case)


@settings(max_examples=25)
@given(configs("decompose"))
def test_decompose_exit_code_is_total(tmp_path_factory, case):
    check_exit_code(tmp_path_factory, "decompose", case)


@settings(max_examples=25)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), trajectory_csv(n))), st.sampled_from([0.5, 0.9]))
def test_rates_trajectory_file_exit_code_is_total(tmp_path_factory, case, corner):
    # a certified-convex model on a path, so that every example reaches the trajectory reader;
    # rho0 is the Gibbs state (delta_F = 0) when n = 2 and corner = 0.5
    n, (kind, text) = case
    graph = {"n": n, "edges": [[i, i + 1, 1.0] for i in range(1, n)]}
    rho0 = [corner] + [(1.0 - corner) / (n - 1)] * (n - 1)
    config = {"graph": graph, "model": {"beta": 1.0}, "rates": {"rho0": rho0, "trajectory": "trajectory.csv"}}
    work = tmp_path_factory.mktemp("rates")
    (work / "trajectory.csv").write_text(text)
    (work / "cfg.json").write_text(json.dumps(config))
    code = run_capped(["rates", "--config", str(work / "cfg.json"), "--out", str(work / "out")])
    assert code == {"valid": 0, "columns": 2}.get(kind, code) and code in (0, 2)
