import contextlib
import copy
import hashlib
import io
import inspect
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfpe import Density, EnergyModel, find_all_equilibria
from graphfpe import cli, errors, fpe_dynamics, free_energy, graph_core, rate_analysis, simplex_calculus
from graphfpe import wasserstein_metric
from graphfpe.cli import ConfigError, _parser, _validate_config, _validator, main

CANONICAL = {
    "graph": {"n": 2, "edges": [[1, 2, 1.0]]},
    "model": {"beta": 1.0},
    "gibbs": {"tol": 1e-12},
    "simulate": {"rho0": [0.9, 0.1], "t_end": 5.0, "record_every": 5},
    "rates": {"rho0": [0.9, 0.1]},
    "lsi": {"count": 400},
    "w2": {"rho0": [0.5, 0.5], "rho1": [0.9, 0.1], "K": 16, "path_csv": True},
    "decompose": {"rho": [0.9, 0.1], "field": [[1, 2, 1.0]]},
    "seed": 11,
}

ALL_COMMANDS = ("gibbs", "simulate", "rates", "lsi", "w2", "decompose")


def write_config(tmp_path: Path, config: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def run(cmd: str, cfg: Path, out: Path, *extra: str) -> int:
    return main([cmd, "--config", str(cfg), "--out", str(out), *extra])


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_gibbs_trivial_model(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    assert run("gibbs", cfg, tmp_path / "out") == 0
    payload = read_json(tmp_path / "out" / "gibbs.json")
    assert payload["converged"] is True
    assert payload["density"] == [0.5, 0.5]
    assert payload["K"] == 2
    assert payload["residual"] <= 1e-12
    assert len(payload["config_digest"]) == 64


def test_gibbs_softmin_example(tmp_path):
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "V": [0.0, math.log(2.0)]}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 0
    payload = read_json(tmp_path / "out" / "gibbs.json")
    assert payload["density"][0] == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_gibbs_multistart_nonconvex(tmp_path):
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    config["gibbs"] = {"starts": [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 0
    payload = read_json(tmp_path / "out" / "gibbs.json")
    assert len(payload["equilibria"]) == 3


def test_gibbs_json_reports_the_damping_of_the_last_update(tmp_path):
    # W = 0 contracts: undamped; -3 I is attractive beyond 2 beta: damped from 0.5, halved as the residual grows
    assert run("gibbs", write_config(tmp_path, CANONICAL), tmp_path / "free") == 0
    assert read_json(tmp_path / "free" / "gibbs.json")["damping"] == 1.0
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    config["gibbs"] = {"starts": [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]], "damping": 0.75}
    assert run("gibbs", write_config(tmp_path, config, "wells.json"), tmp_path / "wells") == 0
    payload = read_json(tmp_path / "wells" / "gibbs.json")
    for entry in [payload, *payload["equilibria"]]:
        halvings = math.log2(0.75 / entry["damping"])
        assert halvings == int(halvings) and 0 <= halvings <= 20


def test_gibbs_and_rates_json_report_the_newton_steps_of_each_solve(tmp_path):
    starts = [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    config["gibbs"] = {"starts": starts}
    config["rates"] = {"rho0": [0.9, 0.1], "starts": starts}
    cfg = write_config(tmp_path, config)
    want = find_all_equilibria(EnergyModel(-3.0 * np.eye(2), np.zeros(2), 1.0), [Density(s) for s in starts])
    assert run("gibbs", cfg, tmp_path / "gibbs") == 0
    gibbs = read_json(tmp_path / "gibbs" / "gibbs.json")
    assert run("rates", cfg, tmp_path / "rates", "--equilibrium") == 0
    rates = read_json(tmp_path / "rates" / "rates.json")["equilibria"]
    assert gibbs["newton_steps"] == gibbs["equilibria"][0]["newton_steps"]
    for result, entry, rate in zip(want, gibbs["equilibria"], rates, strict=True):
        assert entry["density"] == rate["density"] == result.density.values.tolist()
        for key in ("iterations", "newton_steps", "damping"):
            assert entry[key] == rate[key] == getattr(result, key)
    assert any(entry["newton_steps"] > 0 for entry in rates)


def test_malformed_config_exits_2_and_names_key(tmp_path, capsys):
    config = dict(CANONICAL)
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 5.0, "bogus_option": 1}
    cfg = write_config(tmp_path, config)
    assert run("simulate", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bogus_option" in err


def plain_jsonschema_error(config) -> str | None:
    """The CLI's message for config, from an unmodified Draft 2020-12 validator and best_match."""
    schema = json.loads(resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = jsonschema.exceptions.best_match(errors)
    where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path)
    return f"config error at {where}: {err.message}"


def validator_error(config) -> str | None:
    try:
        _validate_config(config)
    except ConfigError as exc:
        return str(exc)
    return None


def with_change(path, value):
    """CANONICAL with a W, V and gibbs starts, and the entry at path set to value."""
    config = copy.deepcopy(CANONICAL)
    config["model"] = {"beta": 1.0, "V": [0.0, 0.5], "W": [[0.0, 0.1], [0.1, 0.0]]}
    config["gibbs"] = {"starts": [[0.9, 0.1], [0.5, 0.5]]}
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


INVALID = [
    (("model", "W", 1, 0), "0.1"),
    (("model", "W", 0, 1), True),
    (("model", "W", 1, 1), None),
    (("model", "V", 1), "0.5"),
    (("model", "V", 0), False),
    (("model", "V", 1), None),
    (("simulate", "rho0", 0), "0.9"),
    (("simulate", "rho0", 1), True),
    (("simulate", "rho0", 1), None),
    (("gibbs", "starts", 1, 0), "0.5"),
    (("gibbs", "starts", 0, 1), False),
    (("gibbs", "starts", 1, 1), None),
    (("simulate", "rho0", 1), -0.1),
    (("w2", "rho1", 0), -1e-300),
    (("graph", "edges", 0, 2), 0.0),
    (("graph", "edges", 0, 2), 0),
    (("simulate", "bogus_option"), 1),
    (("model", "extra"), [1.0]),
    # edge and decompose.field rows: length, row type, slot types, node id 0, weight 0
    (("graph", "edges", 0), [1, 2]),
    (("graph", "edges", 0), [1, 2, 1.0, 4]),
    (("graph", "edges", 0), "1 2 1.0"),
    (("graph", "edges"), []),
    (("graph", "edges", 0, 0), True),
    (("graph", "edges", 0, 1), "2"),
    (("graph", "edges", 0, 2), False),
    (("graph", "edges", 0, 2), "1.0"),
    (("graph", "edges", 0, 0), 0),
    (("graph", "edges", 0, 1), 1.5),
    (("graph", "edges", 0, 2), -1.0),
    (("decompose", "field", 0), [1, 2]),
    (("decompose", "field", 0), [1, 2, 1.0, 0.0]),
    (("decompose", "field", 0), 3),
    (("decompose", "field", 0, 0), False),
    (("decompose", "field", 0, 1), "2"),
    (("decompose", "field", 0, 2), True),
    (("decompose", "field", 0, 2), None),
    (("decompose", "field", 0, 1), 0),
    (("decompose", "field", 0, 0), 1.5),
    # W rows: empty, not a list; rates.starts entries
    (("model", "W", 1), []),
    (("model", "W", 0), 0.1),
    (("model", "W"), []),
    (("rates", "starts"), [[0.9, 0.1], [0.5, -0.5]]),
    (("rates", "starts"), [[0.9, 0.1], [0.5]]),
    (("rates", "starts"), [[0.9, True]]),
    (("rates", "starts"), [0.9, 0.1]),
    # the removed second spelling of --equilibrium is an unknown key
    (("rates", "equilibria_only"), True),
    # graph and model are oneOf an inline section and a file reference: neither branch matches
    (("graph",), {"path": "g.json", "n": 2}),
    (("graph",), {"path": "g.json", "n": 2, "edges": [[1, 2, 1.0]]}),
    (("graph",), {"n": 2}),
    (("graph",), {}),
    (("model",), {"path": "m.json", "beta": 1.0}),
    (("model",), {"path": 3}),
    (("model",), []),
]


@pytest.mark.parametrize("path, value", INVALID)
def test_validator_messages_match_plain_jsonschema(path, value):
    config = with_change(path, value)
    expected = plain_jsonschema_error(config)
    assert expected is not None
    assert validator_error(config) == expected


@pytest.mark.parametrize(
    "path, value",
    [
        (("model", "W", 0, 1), float("nan")),
        (("model", "W", 1, 0), 10**400),
        (("model", "V", 0), -(10**400)),
        (("simulate", "rho0", 0), float("nan")),
        (("simulate", "rho0", 1), float("inf")),
        (("simulate", "rho0", 1), 10**400),
        (("w2", "rho0", 0), -float("inf")),
        # accepted by jsonschema: an integral float is an integer, NaN passes exclusiveMinimum,
        # and the schema does not ask W to be square
        (("graph", "edges", 0, 0), 1.0),
        (("decompose", "field", 0, 1), 2.0),
        (("graph", "edges", 0, 2), float("nan")),
        (("simulate", "t_end"), float("nan")),
        (("model", "W", 1), [0.1]),
        (("model", "W", 0), [0.0, 0.1, 0.2]),
        # the file-reference branch of oneOf
        (("graph",), {"path": "g.json"}),
        (("model",), {"path": "m.json"}),
    ],
)
def test_validator_accepts_exactly_what_plain_jsonschema_accepts(path, value):
    config = with_change(path, value)
    assert validator_error(config) == plain_jsonschema_error(config)


def bench_shaped_config() -> dict:
    """A config like the benchmark's: a weighted ring, dense W, multi-start sections and a decompose field."""
    rng = np.random.default_rng(401)
    n = 5
    A = rng.normal(0.0, 0.35, (n, n)) / np.sqrt(n)
    rho = (0.5 / n + 0.5 * rng.dirichlet(np.ones(n))).tolist()
    corners = [[0.9 if i == k else 0.1 / (n - 1) for i in range(n)] for k in range(n)]
    config = {
        "graph": {"n": n, "edges": [[i + 1, (i + 1) % n + 1, float(w)] for i, w in enumerate(rng.uniform(0.75, 1.25, n))]},
        "model": {"beta": 1.0, "V": rng.uniform(-0.5, 0.5, n).tolist(), "W": (0.5 * (A + A.T)).tolist()},
        "gibbs": {"tol": 1e-12, "starts": corners},
        "simulate": {"rho0": rho, "t_end": 2.0, "rel_tol": 1e-8, "record_every": 10},
        "rates": {"rho0": rho, "starts": corners[:2], "gibbs_tol": 1e-13},
        "lsi": {"count": 100, "min_mass": 1e-4},
        "w2": {"rho0": rho, "rho1": corners[0], "K": 4, "grad_tol": 1e-8},
        "decompose": {"rho": rho, "field": [[1, 2, 0.5], [3, 2, -0.25], [5, 1, 1.0]]},
        "seed": 401,
    }
    return json.loads(json.dumps(config))  # no list shared between entries, as when read from a file


def entry_paths(node, prefix=()):
    """The path of every dict value and list entry below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from entry_paths(value, prefix + (key,))


BENCH_SHAPED_PATHS = list(entry_paths(bench_shaped_config()))
MUTANTS = st.one_of(
    st.sampled_from([None, True, False, "1", 0, 1, -1, 0.0, -0.0, 1.0, 1.5, 2.0, float("nan"), float("inf")]),
    st.sampled_from([[], [1], [1, 2], [1, 2, 1.0], [1, 2, 1.0, 4], [[0.5, 0.5]], [0.5, True], {}, {"path": "g.json"}]),
    st.floats(allow_nan=True),
    st.integers(-3, 3),
)


def mutate(config, path, value) -> None:
    """Set the entry at path to value, or delete it where value is "delete"."""
    node = config
    for key in path[:-1]:
        node = node[key]
    if value == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = value


@given(st.sampled_from(BENCH_SHAPED_PATHS), st.one_of(st.just("delete"), MUTANTS))
def test_validator_matches_plain_jsonschema_on_single_entry_mutations(path, value):
    config = bench_shaped_config()
    mutate(config, path, value)
    assert validator_error(config) == plain_jsonschema_error(config)


@given(st.lists(st.tuples(st.sampled_from(BENCH_SHAPED_PATHS), st.one_of(st.just("delete"), MUTANTS)), min_size=2,
                max_size=2))
def test_validator_matches_plain_jsonschema_on_two_entry_mutations(mutations):
    config = bench_shaped_config()
    for path, value in mutations:
        try:
            mutate(config, path, value)
        except (KeyError, IndexError, TypeError):  # the first mutation removed or replaced this one's parent
            pass
    assert validator_error(config) == plain_jsonschema_error(config)


ONE_OF_PAIR = {"oneOf": [{"type": "object", "required": ["a"]}, {"type": "object", "required": ["b"]}]}


@pytest.mark.parametrize(
    "schema, value, walk_accepts",
    [
        # both branches match, so jsonschema refuses
        ({"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 0}]}, 1, False),
        ({"oneOf": [{"type": "object", "required": ["a"]}, {"type": "object"}]}, {"a": 1}, False),
        # neither matches
        (ONE_OF_PAIR, {"c": 1}, False),
        # exactly one matches, but the walk cannot show that the other does not: jsonschema decides
        ({"oneOf": [{"type": "number"}, {"type": "string"}]}, 1, False),
        # exactly one matches, and the other misses a required key
        (ONE_OF_PAIR, {"a": 1}, True),
    ],
    ids=["both-numbers", "both-objects", "neither", "one-unshown", "one-shown"],
)
def test_walk_accepts_a_one_of_only_where_jsonschema_does(schema, value, walk_accepts):
    assert cli._accepts(schema, [value]) is walk_accepts
    assert not walk_accepts or jsonschema.Draft202012Validator(schema).is_valid(value)


def test_large_valid_config_takes_the_fast_path_only(monkeypatch):
    # a schema edit that the accept-only walk does not cover, or a walk that refuses this config, fails here
    n = 100
    edges = [[i + 1, (i + d) % n + 1, 1.0 + d / 16] for i in range(n) for d in range(1, 11)]
    uniform = [1.0 / n] * n
    config = {
        "graph": {"n": n, "edges": edges},
        "model": {"beta": 1.0, "V": [0.0] * n, "W": (0.01 * np.cos(np.add.outer(np.arange(n), np.arange(n)))).tolist()},
        "gibbs": {"starts": [[0.5 if i == k else 0.5 / (n - 1) for i in range(n)] for k in range(40)]},
        "decompose": {"rho": uniform, "field": [[i, j, 0.5] for i, j, _ in edges[:50]]},
    }
    assert len(edges) >= 1000
    stock_iter_errors = jsonschema.Draft202012Validator.iter_errors
    calls = []

    def counting_iter_errors(validator, instance, *args, **kwargs):
        calls.append(instance)
        return stock_iter_errors(validator, instance, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "iter_errors", counting_iter_errors)
    _validate_config(config)
    assert calls == []
    monkeypatch.undo()
    assert plain_jsonschema_error(config) is None


def test_valid_config_with_referenced_files_takes_the_fast_path_only(tmp_path, monkeypatch):
    # a config and its graph and model files: one C parse and one walk each, no hooked parse and no jsonschema
    n = 100
    graph = {"n": n, "edges": [[i + 1, (i + d) % n + 1, 1.0 + d / 16] for i in range(n) for d in range(1, 11)]}
    model = {"beta": 1.0, "V": [0.0] * n, "W": (0.01 * np.cos(np.add.outer(np.arange(n), np.arange(n)))).tolist()}
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    (tmp_path / "model.json").write_text(json.dumps(model))
    uniform = [1.0 / n] * n
    config = {"graph": {"path": "graph.json"}, "model": {"path": "model.json"}, "gibbs": {"starts": [uniform]},
              "decompose": {"rho": uniform, "field": [[i, j, 0.5] for i, j, _ in graph["edges"][:50]]}}
    cfg = write_config(tmp_path, config)
    hooked, checked = [], []

    def counting(hook):
        return lambda text: hooked.append(text) or hook(text)

    stock_iter_errors = jsonschema.Draft202012Validator.iter_errors

    def counting_iter_errors(validator, instance, *args, **kwargs):
        checked.append(instance)
        return stock_iter_errors(validator, instance, *args, **kwargs)

    def refuse(data):
        raise AssertionError("a valid file reached jsonschema")

    monkeypatch.setattr(cli, "_finite_float", counting(cli._finite_float))
    monkeypatch.setattr(cli, "_finite_int", counting(cli._finite_int))
    monkeypatch.setattr(jsonschema.Draft202012Validator, "iter_errors", counting_iter_errors)
    for path, schema in [(cfg, cli._schema()), (tmp_path / "graph.json", cli._schema()["$defs"]["graph_inline"]),
                         (tmp_path / "model.json", cli._schema()["$defs"]["model_inline"])]:
        assert cli._load_json(path, schema, refuse) == json.loads(path.read_text())
    run_ = cli._Run(_parser().parse_args(["gibbs", "--config", str(cfg), "--out", str(tmp_path / "out")]))
    assert run_.graph.node_count == n and run_.model.n == n
    assert hooked == [] and checked == []


def test_validator_is_built_once():
    assert _validator() is _validator()


def test_model_file_reference_error_matches_plain_jsonschema(tmp_path, capsys):
    model = {"beta": 1.0, "W": [[0.0, "x"], [0.0, 0.0]]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    config = dict(CANONICAL)
    config["model"] = {"path": "model.json"}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 2
    schema = json.loads(resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8"))
    with pytest.raises(jsonschema.exceptions.ValidationError) as info:
        jsonschema.validate(model, {"$ref": "#/$defs/model_inline", "$defs": schema["$defs"]})
    assert capsys.readouterr().err == f"graphfpe: model.json: {info.value.message}\n"


def test_graph_file_reference_error_matches_plain_jsonschema(tmp_path, capsys):
    graph = {"n": 2, "edges": [[1, 2, 0]]}
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    config = dict(CANONICAL)
    config["graph"] = {"path": "graph.json"}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 2
    schema = json.loads(resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8"))
    with pytest.raises(jsonschema.exceptions.ValidationError) as info:
        jsonschema.validate(graph, {"$ref": "#/$defs/graph_inline", "$defs": schema["$defs"]})
    assert capsys.readouterr().err == f"graphfpe: graph.json: {info.value.message}\n"


SECTION_FILES = {"graph": "graph_inline", "model": "model_inline"}
SECTION_PATHS = [(key, path) for key in SECTION_FILES for path in entry_paths(bench_shaped_config()[key])]


@given(st.sampled_from(SECTION_PATHS), st.one_of(st.just("delete"), MUTANTS))
def test_referenced_file_errors_match_plain_jsonschema_on_single_entry_mutations(tmp_path_factory, entry, value):
    # a non-finite literal is named by the hooked parse, and a ragged W is refused as an invalid model
    key, path = entry
    config = bench_shaped_config()
    section = config[key]
    mutate(section, path, value)
    work = tmp_path_factory.mktemp("referenced")
    for name in SECTION_FILES:
        (work / f"{name}.json").write_text(json.dumps(config[name]))
        config[name] = {"path": f"{name}.json"}
    cfg = write_config(work, config)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run("gibbs", cfg, work / "out")
    schema = json.loads(resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8"))
    validator = jsonschema.Draft202012Validator({"$ref": f"#/$defs/{SECTION_FILES[key]}", "$defs": schema["$defs"]})
    err = jsonschema.exceptions.best_match(validator.iter_errors(section))
    W = section.get("W") if key == "model" else None
    if isinstance(value, float) and not math.isfinite(value):
        literal = json.dumps(value)  # NaN, Infinity or -Infinity
        assert (code, stderr.getvalue()) == (2, f"graphfpe: {work / key}.json: number {literal} is not finite\n")
    elif err is not None:
        assert (code, stderr.getvalue()) == (2, f"graphfpe: {key}.json: {err.message}\n")
    elif isinstance(W, list) and len({len(row) for row in W}) > 1:
        assert code == 2 and stderr.getvalue().startswith("graphfpe: invalid model: ")
    else:
        assert code in (0, 2, 3, 4) and not stderr.getvalue().startswith(f"graphfpe: {key}.json: ")


def test_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("gibbs", cfg, tmp_path / "out") == 2


FLOAT_OVERFLOW = "is not finite as a float"
BIG = "1" + "0" * 400  # a 401-digit int, beyond the float range


@pytest.mark.parametrize(
    "path, literal, message",
    [
        (("simulate", "t_end"), "NaN", "number NaN is not finite"),
        (("simulate", "max_step"), "NaN", "number NaN is not finite"),
        (("simulate", "t_end"), "1e400", f"number 1e400 {FLOAT_OVERFLOW}"),
        (("model", "V", 0), "1" + "0" * 400, f"number 1{'0' * 20}... {FLOAT_OVERFLOW}"),
        (("model", "W", 1, 0), "-1e400", f"number -1e400 {FLOAT_OVERFLOW}"),
        (("gibbs", "starts", 1, 0), "Infinity", "number Infinity is not finite"),
        (("decompose", "field", 0, 2), "NaN", "number NaN is not finite"),
        # two ints beyond the float range that cancel as exact ints: each is still refused
        (("model", "V"), f"[{BIG}, -{BIG}]", f"number 1{'0' * 20}... {FLOAT_OVERFLOW}"),
        (("model", "W", 1), f"[{BIG}, -{BIG}]", f"number 1{'0' * 20}... {FLOAT_OVERFLOW}"),
        (("decompose", "field", 0), f"[1, {BIG}, -{BIG}]", f"number 1{'0' * 20}... {FLOAT_OVERFLOW}"),
    ],
    ids=["t_end-nan", "max_step-nan", "t_end-1e400", "V-401-digit-int", "W-row-minus-1e400", "starts-infinity",
         "field-nan", "V-cancelling-401-digit-ints", "W-row-cancelling-401-digit-ints",
         "field-row-cancelling-401-digit-ints"],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, path, literal, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(with_change(path, "@")).replace('"@"', literal))
    assert run("simulate", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"graphfpe: {cfg}: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # an overflowing literal ahead of a NaN literal, and ahead of a syntax error: the first one is named
        ('{"model": {"beta": 1e400, "V": [NaN]}}', f"number 1e400 {FLOAT_OVERFLOW}"),
        ('{"model": {"beta": 1, "V": [-1e999, 0.5}}', f"number -1e999 {FLOAT_OVERFLOW}"),
        ('{"model": {"V": [0.5, NaN], "beta": 1e400}}', "number NaN is not finite"),
    ],
    ids=["overflow-then-nan", "overflow-then-syntax-error", "nan-then-overflow"],
)
def test_the_first_non_finite_literal_is_the_one_reported(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("gibbs", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"graphfpe: {cfg}: {message}\n"


def test_non_finite_number_in_referenced_file_exits_2(tmp_path, capsys):
    (tmp_path / "model.json").write_text('{"beta": 1.0, "V": [Infinity, 0.0]}')
    config = dict(CANONICAL)
    config["model"] = {"path": "model.json"}
    cfg = write_config(tmp_path, config)
    assert run("simulate", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"graphfpe: {tmp_path / 'model.json'}: number Infinity is not finite\n"


def test_overflowing_integer_weight_in_referenced_graph_exits_2(tmp_path, capsys):
    (tmp_path / "graph.json").write_text('{"n": 2, "edges": [[1, 2, 1' + "0" * 400 + "]]}")
    config = dict(CANONICAL)
    config["graph"] = {"path": "graph.json"}
    cfg = write_config(tmp_path, config)
    assert run("simulate", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"graphfpe: {tmp_path / 'graph.json'}: number 1{'0' * 20}... {FLOAT_OVERFLOW}\n"


RAGGED_W = [[0.0, 0.1], [0.1]]  # valid under the schema, which does not ask W to be square


@pytest.mark.parametrize("referenced", [False, True], ids=["inline", "model-file"])
def test_ragged_w_exits_2_as_an_invalid_model(tmp_path, capsys, referenced):
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": RAGGED_W}
    if referenced:
        (tmp_path / "model.json").write_text(json.dumps(config["model"]))
        config["model"] = {"path": "model.json"}
    assert run("gibbs", write_config(tmp_path, config), tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("graphfpe: invalid model: ")
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert run("gibbs", cfg, tmp_path / "out") == 2
    assert "can't decode" in capsys.readouterr().err


def test_graph_from_file_reference(tmp_path):
    (tmp_path / "graph.json").write_text(json.dumps({"n": 2, "edges": [[1, 2, 1.0]]}))
    config = dict(CANONICAL)
    config["graph"] = {"path": "graph.json"}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 0


def old_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("referenced", [(), ("graph",), ("model",), ("graph", "model")])
def test_stamp_digests_equal_one_serialization_of_each_whole(tmp_path, referenced):
    config = copy.deepcopy(CANONICAL)
    config["model"] = {"beta": 0.5, "V": [0.25, -1e-300], "W": [[1.0, 0.5], [0.5, 2.0]]}
    resolved = {key: config[key] for key in ("graph", "model")}
    for key in referenced:
        (tmp_path / f"{key}.json").write_text(json.dumps(config[key]))
        config[key] = {"path": f"{key}.json"}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 0
    stamp = read_json(tmp_path / "out" / "gibbs.json")
    assert stamp["config_digest"] == old_digest(read_json(cfg))
    assert stamp["graph_digest"] == old_digest(resolved["graph"])
    assert stamp["model_digest"] == old_digest(resolved["model"])


def test_stamp_config_digest_keeps_json_key_order_and_escapes():
    config = {"zeta": "caf\u00e9 \"q\"", "graph": {"n": 2, "b": [1e-300, 0.1]}, "model": {}, "Alpha": None}
    assert cli._stamp_digests(config, config["graph"], {"beta": 1.0}) == {
        "config_digest": old_digest(config),
        "graph_digest": old_digest(config["graph"]),
        "model_digest": old_digest({"beta": 1.0}),
    }


def reference_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def reference_dump(obj, indent: int = 0) -> str:
    """The stable JSON form written value by value: the reference for the array-at-once writer."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [reference_dump(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]" if items else "[]"
    parts = [inner + json.dumps(str(k)) + ": " + reference_dump(obj[k], indent + 1) for k in sorted(obj)]
    return "{\n" + ",\n".join(parts) + "\n" + pad + "}" if parts else "{}"


EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308]))
OUTPUT_VALUES = st.recursive(
    st.one_of(
        EDGE_FLOATS,
        st.integers(-(2**70), 2**70),
        st.booleans().map(np.bool_),
        st.none(),
        st.text(max_size=3),
        st.lists(EDGE_FLOATS).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.integers(-(2**62), 2**62)).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), EDGE_FLOATS).map(list)),
        st.lists(st.just([]), max_size=2),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300)
@given(OUTPUT_VALUES)
def test_array_at_once_json_has_the_bytes_of_the_value_by_value_form(value):
    assert cli._dump_stable({"value": value}) == reference_dump({"value": value})


CSV_TABLES = st.integers(1, 5).flatmap(
    lambda m: st.lists(st.lists(EDGE_FLOATS, min_size=m, max_size=m), min_size=1, max_size=6)
)


@given(CSV_TABLES)
def test_array_at_once_csv_has_the_bytes_of_the_value_by_value_form(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{k}" for k in range(len(rows[0]))]
    cli._write_csv(path, header, np.array(rows, dtype=float))
    lines = [",".join(header), *(",".join(format(float(x), ".17g") for x in row) for row in rows)]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_jsonschema_is_imported_only_to_word_an_error(tmp_path):
    # the CLI's cold start leaves jsonschema out: importing it costs about a quarter of `import graphfpe.cli`
    cfg = write_config(tmp_path, CANONICAL)
    bad = write_config(tmp_path, {**CANONICAL, "seed": -1}, "bad.json")
    commands = [[name, "--config", str(cfg), "--out", str(tmp_path / name)] for name in ALL_COMMANDS]
    code = f"""
import sys
import graphfpe.cli as cli
assert "jsonschema" not in sys.modules, "imported with graphfpe.cli"
for argv in {commands!r}:
    assert cli.main(argv) == 0, argv
assert "jsonschema" not in sys.modules, "imported by a valid run"
assert cli.main(["gibbs", "--config", {str(bad)!r}, "--out", {str(tmp_path / "bad")!r}]) == 2
assert "jsonschema" in sys.modules, "an invalid config is worded by jsonschema"
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_config_is_valid_and_runs_every_command(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) == 1
    config = json.loads(blocks[0].split("```")[0])
    _validate_config(config)
    cfg = write_config(tmp_path, config)
    for command in ALL_COMMANDS:
        assert run(command, cfg, tmp_path / command) == 0, command


def test_disconnected_graph_exits_2(tmp_path):
    config = dict(CANONICAL)
    config["graph"] = {"n": 3, "edges": [[1, 2, 1.0]]}
    config["model"] = {"beta": 1.0}
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "out") == 2


def test_simulate_outputs(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,rho_1,rho_2,energy,dissipation"
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.diff(data[:, 3]) <= 1e-9)  # monotone energy
    summary = read_json(out / "summary.json")
    assert summary["completed"] is True
    assert summary["final_time"] == 5.0
    assert summary["records"] == data.shape[0]
    assert summary["relative_entropy"] >= -1e-12
    by_guard = summary["rejected_by"]
    assert sorted(by_guard) == ["energy", "error", "mass", "stage_floor", "step_floor"]
    assert sum(by_guard.values()) == summary["rejected_steps"]


def test_simulate_record_every_zero(tmp_path):
    config = dict(CANONICAL)
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 1.0, "record_every": 0}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 0
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 2


def test_simulate_step_underflow_exits_3_with_dump(tmp_path):
    config = dict(CANONICAL)
    config["simulate"] = {
        "rho0": [0.9, 0.1],
        "t_end": 10.0,
        "positivity_floor": 0.55,
        "record_every": 1,
    }
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 3
    assert (out / "trajectory.csv").exists()
    summary = read_json(out / "summary.json")
    assert summary["completed"] is False
    assert sum(summary["rejected_by"].values()) == summary["rejected_steps"] > 0


def test_simulate_huge_t_end_spends_the_step_budget_and_exits_3(tmp_path, monkeypatch, caplog):
    # a non-symmetric W keeps the run on DOP853, whose step stays near the
    # stability limit at equilibrium, so t_end 1e300 would never end; the
    # budget (shrunk here to keep the test short) stops it
    monkeypatch.setattr(fpe_dynamics, "_STEP_BUDGET", 500)
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[0.0, 0.1], [0.0, 0.0]]}
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 1e300}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert run("simulate", cfg, out) == 3
    assert "step budget of 500" in caplog.text
    assert (out / "trajectory.csv").exists()
    summary = read_json(out / "summary.json")
    assert summary["completed"] is False
    assert summary["accepted_steps"] + summary["rejected_steps"] == 500
    assert sum(summary["rejected_by"].values()) == summary["rejected_steps"]
    assert summary["exponential_steps"] == 0 and summary["switch_time"] is None


def test_simulate_stopped_run_reports_its_last_accepted_state(tmp_path, monkeypatch, caplog):
    # 498 of the 503 attempted steps are accepted, and the default record_every of 10
    # leaves the last 8 of them unrecorded until the stop
    monkeypatch.setattr(fpe_dynamics, "_STEP_BUDGET", 503)
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[0.0, 0.1], [0.0, 0.0]]}
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 1e300}
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, config), out) == 3
    summary = read_json(out / "summary.json")
    assert summary["accepted_steps"] % 10 != 0
    stopped_at = float(caplog.text.split("step budget of 503 attempted steps spent at t=")[1].split()[0])
    assert summary["final_time"] == stopped_at
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert summary["records"] == rows.shape[0] == summary["accepted_steps"] // 10 + 2
    assert rows[-1, 0] == stopped_at and list(rows[-1, 1:3]) == summary["final_density"]
    assert rows[-1, -1] == -summary["relative_fisher"]


def test_simulate_reports_the_right_hand_side_rows_it_evaluated(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, CANONICAL), out) == 0
    summary = read_json(out / "summary.json")
    # an accepted step evaluated 11 DOP853 stages or 10 exponential rows, then its new state; one more at the start
    assert summary["rhs_evaluations"] >= 1 + 11 * summary["accepted_steps"]


def test_simulate_reports_the_switch_to_exponential_steps(tmp_path):
    config = dict(CANONICAL)
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 50.0}
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, config), out) == 0
    summary = read_json(out / "summary.json")
    assert 0 < summary["switch_time"] < 50.0
    assert 0 < summary["exponential_steps"] < summary["accepted_steps"]
    assert max(abs(x - 0.5) for x in summary["final_density"]) <= 1e-12


def test_simulate_extreme_potential_exits_cleanly(tmp_path):
    # exp(2 * 400) overflows the invariant-region bound; the run falls back
    # to the absolute positivity floor instead of raising
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "V": [400.0, 0.0]}
    config["simulate"] = {"rho0": [0.5, 0.5], "t_end": 1.0}
    cfg = write_config(tmp_path, config)
    assert run("simulate", cfg, tmp_path / "out") in (0, 3, 4)


def test_rates_vacuous_certificate_exits_4(tmp_path, capsys):
    # 40-node ring with a random convex model: the invariant-region floor is
    # about 5e-51, so C = C2 / (r + 1)^2 is not representable
    rng = np.random.default_rng(40)
    n = 40
    A = rng.normal(0.0, 0.35, size=(n, n)) / np.sqrt(n)
    x = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
    config = {
        "graph": {"n": n, "edges": [[i + 1, (i + 1) % n + 1, 1.0] for i in range(n)]},
        "model": {
            "beta": 1.0,
            "V": rng.uniform(-1.0, 1.0, n).tolist(),
            "W": (0.5 * (A + A.T)).tolist(),
        },
        "rates": {"rho0": (x / x.sum()).tolist()},
    }
    cfg = write_config(tmp_path, config)
    assert run("rates", cfg, tmp_path / "out") == 4
    assert "vacuous" in capsys.readouterr().err


def test_rates_canonical(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    out = tmp_path / "out"
    assert run("rates", cfg, out) == 0
    payload = read_json(out / "rates.json")
    assert payload["C"] == pytest.approx(1.8803679901416788e-08, rel=1e-9)
    assert payload["lambda_asymptotic"] == pytest.approx(2.0, abs=1e-10)
    assert payload["lambda_fisher"] == pytest.approx(4.0, abs=1e-10)
    assert payload["m"] == 0.05
    assert "graph_digest" in payload and "model_digest" in payload


def test_rates_comparison_mode(tmp_path):
    out = tmp_path / "out"
    config = dict(CANONICAL)
    config["simulate"] = {"rho0": [0.9, 0.1], "t_end": 5.0, "record_every": 1}
    cfg = write_config(tmp_path, config)
    assert run("simulate", cfg, out) == 0
    config["rates"] = {"rho0": [0.9, 0.1], "trajectory": str(out / "trajectory.csv")}
    cfg2 = write_config(tmp_path, config, "cfg2.json")
    assert run("rates", cfg2, out) == 0
    payload = read_json(out / "rates.json")
    assert payload["bound_holds"] is True
    assert payload["observed_tail_slope"] == pytest.approx(-4.0, rel=0.05)


@pytest.mark.parametrize(
    "text",
    [
        "t\n0.0\n1.0\n",  # one column
        "t,rho_1,rho_2,energy,dissipation\n",  # simulate's header, no rows
        "t,e\n0.0,0.5\n1.0,0.25\n",  # two columns: t would be read as the energy
        "t,rho_1,rho_2,energy,dissipation\n-1e4,0.5,0.5,0.1,0\n0,0.5,0.5,0.1,0\n",  # e^{-Ct} overflows
        "t,rho_1,rho_2,energy,dissipation\n0,0.5,0.5,0.1,0\n2,0.5,0.5,0.1,0\n1,0.5,0.5,0.1,0\n",
        "t,rho_1,rho_2,energy,dissipation\n0,0.5,0.5,nan,0\n1,0.5,0.5,0.1,0\n",
    ],
    ids=["one-column", "header-only", "two-columns", "negative-time", "falling-time", "nan-energy"],
)
def test_rates_refuses_a_trajectory_file_not_laid_out_as_simulate_writes_it(tmp_path, capsys, text):
    (tmp_path / "traj.csv").write_text(text)
    config = dict(CANONICAL)
    config["rates"] = {"rho0": [0.9, 0.1], "trajectory": "traj.csv"}
    cfg = write_config(tmp_path, config)
    assert run("rates", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "traj.csv" in err and "Traceback" not in err


def test_rates_nonconvex_exits_4_without_flag(tmp_path):
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    cfg = write_config(tmp_path, config)
    assert run("rates", cfg, tmp_path / "out") == 4


def test_rates_nonconvex_equilibrium_flag(tmp_path):
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert run("rates", cfg, out, "--equilibrium") == 0
    payload = read_json(out / "rates.json")
    assert payload["certified_convex"] is False
    assert "C" not in payload
    entries = payload["equilibria"]
    assert len(entries) == 3
    wells = [e for e in entries if not np.allclose(e["density"], [0.5, 0.5])]
    saddle = [e for e in entries if np.allclose(e["density"], [0.5, 0.5])]
    assert all(e["hessian_positive"] is False for e in entries)
    assert all(e["lambda_asymptotic"] > 0 for e in wells)
    assert saddle[0]["lambda_asymptotic"] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize(
    "budget, keywords",
    [({}, {}), ({"gibbs_tol": 1e-11, "gibbs_max_iter": 5000}, {"tol": 1e-11, "max_iter": 5000})],
    ids=["none-set", "all-set"],
)
def test_rates_equilibrium_passes_its_gibbs_budget_to_the_solve(tmp_path, monkeypatch, budget, keywords):
    real = cli.find_all_equilibria
    seen = []

    def recorder(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "find_all_equilibria", recorder)
    config = {**CANONICAL, "rates": {"rho0": [0.9, 0.1], **budget}}
    assert run("rates", write_config(tmp_path, config), tmp_path / "out", "--equilibrium") == 0
    assert seen == [keywords]


@pytest.mark.parametrize("command, flags", [("gibbs", []), ("rates", ["--equilibrium"])])
def test_a_start_of_another_size_exits_2_and_names_its_section(tmp_path, capsys, command, flags):
    config = {**CANONICAL, command: {**CANONICAL[command], "starts": [[0.5, 0.5], [0.2, 0.3, 0.5]]}}
    assert run(command, write_config(tmp_path, config), tmp_path / "out", *flags) == 2
    assert f"graphfpe: {command}.starts entry has 3 entries" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rates_equilibrium_with_a_spent_gibbs_budget_exits_3(tmp_path, capsys):
    rates = {"rho0": [0.9, 0.1], "starts": [[0.9, 0.1], [0.1, 0.9]], "gibbs_max_iter": 1}
    config = {**CANONICAL, "model": {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}, "rates": rates}
    assert run("rates", write_config(tmp_path, config), tmp_path / "out", "--equilibrium") == 3
    assert "graphfpe: no equilibrium start converged" in capsys.readouterr().err


def test_rates_runs_one_gth_elimination_per_density(tmp_path, monkeypatch):
    """One elimination and one tangent eigenproblem per density: lambda_fisher is read off as 2 lambda."""
    gth_solve = simplex_calculus._gth_solve
    tangent_rate = rate_analysis._tangent_rate
    calls, rates = [], []

    def counting_gth_solve(L, b):
        calls.append(L.shape)
        return gth_solve(L, b)

    def counting_tangent_rate(graph, rho, S):
        rates.append(rho)
        return tangent_rate(graph, rho, S)

    monkeypatch.setattr(simplex_calculus, "_gth_solve", counting_gth_solve)
    monkeypatch.setattr(rate_analysis, "_gth_solve", counting_gth_solve)
    monkeypatch.setattr(rate_analysis, "_tangent_rate", counting_tangent_rate)
    cfg = write_config(tmp_path, CANONICAL)
    assert run("rates", cfg, tmp_path / "global") == 0
    assert len(calls) == len(rates) == 1
    payload = read_json(tmp_path / "global" / "rates.json")
    assert payload["lambda_fisher"] == 2.0 * payload["lambda_asymptotic"]
    config = dict(CANONICAL)
    config["model"] = {"beta": 1.0, "W": [[-3.0, 0.0], [0.0, -3.0]]}
    cfg = write_config(tmp_path, config, "nonconvex.json")
    calls.clear()
    rates.clear()
    assert run("rates", cfg, tmp_path / "equilibria", "--equilibrium") == 0
    entries = read_json(tmp_path / "equilibria" / "rates.json")["equilibria"]
    assert len(calls) == len(rates) == len(entries) == 3
    assert all(e["lambda_fisher"] is None for e in entries)  # -3 I + diag(1/rho) is indefinite at all three


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert _parser() is _parser()
    cfg = write_config(tmp_path, CANONICAL)
    assert run("rates", cfg, tmp_path / "equilibria", "--equilibrium") == 0
    assert "equilibria" in read_json(tmp_path / "equilibria" / "rates.json")
    assert run("rates", cfg, tmp_path / "global") == 0
    payload = read_json(tmp_path / "global" / "rates.json")
    assert "equilibria" not in payload and payload["m"] == 0.05
    with pytest.raises(SystemExit) as info:
        main(["rates", "--out", str(tmp_path / "missing")])
    assert info.value.code == 2
    assert run("gibbs", cfg, tmp_path / "after") == 0


def test_lsi_fixed_seed_reproducible(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("lsi", cfg, out_a) == 0
    assert run("lsi", cfg, out_b) == 0
    a = read_json(out_a / "lsi.json")
    b = read_json(out_b / "lsi.json")
    assert a["lambda_hat"] == b["lambda_hat"]
    assert a["lambda_hat"] == pytest.approx(2.0, rel=0.01)


def test_lsi_min_mass_not_below_one_over_n_exits_2(tmp_path, capsys):
    config = dict(CANONICAL)
    config["lsi"] = {"count": 10, "min_mass": 0.6}
    cfg = write_config(tmp_path, config)
    assert run("lsi", cfg, tmp_path / "out") == 2
    assert "lsi.min_mass" in capsys.readouterr().err


@pytest.mark.parametrize("W", [[[-20.0, 0.0], [0.0, -20.0]], [[0.0, 30.0], [30.0, 0.0]]], ids=["-20I", "offdiag-30"])
def test_lsi_on_an_uncertified_model_exits_4_before_any_gibbs_iteration(tmp_path, monkeypatch, capsys, W):
    def no_solve(*args):
        raise AssertionError("a Gibbs iteration ran")

    monkeypatch.setattr(free_energy, "_gibbs_rows", no_solve)
    config = {**CANONICAL, "model": {"beta": 1.0, "W": W, "V": [0.01, 0.0]}, "lsi": {"count": 100}}
    assert run("lsi", write_config(tmp_path, config), tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert err.startswith("graphfpe: convexity certificate failed") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_the_cli_passes_no_gibbs_budget_of_its_own(tmp_path, monkeypatch):
    calls = []

    def recorder(real):
        def solve(model, init, **kwargs):
            calls.append(kwargs)
            return real(model, init, **kwargs)

        return solve

    monkeypatch.setattr(cli, "gibbs_fixed_point", recorder(cli.gibbs_fixed_point))
    monkeypatch.setattr(rate_analysis, "gibbs_fixed_point", recorder(rate_analysis.gibbs_fixed_point))
    cfg = write_config(tmp_path, CANONICAL)
    assert run("simulate", cfg, tmp_path / "simulate") == 0
    assert run("lsi", cfg, tmp_path / "lsi") == 0
    library = {"tol": rate_analysis.GIBBS_TOL, "max_iter": rate_analysis.GIBBS_MAX_ITER}
    assert calls == [{}, library]  # simulate's final state at the library default, lsi at the certified budget


@pytest.mark.parametrize("size", [10**18, 10**19], ids=["1e18", "1e19"])
@pytest.mark.parametrize("command, key", [("lsi", "count"), ("w2", "K")])
def test_a_config_asking_for_an_array_numpy_cannot_make_exits_2_with_one_line(tmp_path, capsys, command, key, size):
    # arrays of 10**18 or more doubles are refused before any allocation; a size numpy can make is never asked for
    config = {**CANONICAL, command: {**CANONICAL[command], key: size}}
    assert run(command, write_config(tmp_path, config), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("graphfpe: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_lsi_seed_override_changes_result(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("lsi", cfg, out_a) == 0
    assert run("lsi", cfg, out_b, "--seed", "99") == 0
    a = read_json(out_a / "lsi.json")
    b = read_json(out_b / "lsi.json")
    assert a["seed"] != b["seed"]
    assert a["lambda_hat"] != b["lambda_hat"]


def test_w2_closed_form_and_path_csv(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    out = tmp_path / "out"
    assert run("w2", cfg, out) == 0
    payload = read_json(out / "w2.json")
    assert payload["converged"] is True
    assert payload["distance"] == pytest.approx(0.565685424949238, abs=1e-4)
    path_lines = (out / "w2_path.csv").read_text().splitlines()
    assert path_lines[0] == "k,t,rho_1,rho_2"
    assert len(path_lines) == 1 + 16 + 1  # header + K+1 rows


def test_w2_json_reports_newton_steps_and_backtracks(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    assert run("w2", cfg, tmp_path / "out") == 0
    payload = read_json(tmp_path / "out" / "w2.json")
    assert isinstance(payload["iterations"], int) and 1 <= payload["iterations"] <= 10
    assert isinstance(payload["backtracks"], int) and payload["backtracks"] >= 0


def test_w2_step_init_exits_2_and_names_key(tmp_path, capsys):
    config = dict(CANONICAL)
    config["w2"] = {"rho0": [0.5, 0.5], "rho1": [0.9, 0.1], "K": 16, "step_init": 1.0}
    cfg = write_config(tmp_path, config)
    assert run("w2", cfg, tmp_path / "out") == 2
    assert "step_init" in capsys.readouterr().err


def test_decompose_pure_gradient(tmp_path):
    # the single-edge field [1] is the gradient of (0.5, -0.5)
    cfg = write_config(tmp_path, CANONICAL)
    out = tmp_path / "out"
    assert run("decompose", cfg, out) == 0
    payload = read_json(out / "hodge.json")
    assert payload["u_inf_norm"] <= 1e-10
    assert payload["div_residual_max"] <= 1e-10
    assert payload["potential"] == pytest.approx([0.5, -0.5], abs=1e-12)
    ip = payload["inner_products"]
    assert ip["total"] == pytest.approx(ip["gradient"] + ip["rotational"], rel=1e-10)


def test_decompose_rejects_non_edge(tmp_path):
    config = dict(CANONICAL)
    config["decompose"] = {"rho": [0.9, 0.1], "field": [[2, 1, 1.0], [1, 2, 1.0]]}
    cfg = write_config(tmp_path, config)
    assert run("decompose", cfg, tmp_path / "out") == 2  # duplicate edge listed twice


def test_every_command_runs_without_the_dense_incidence_matrix(tmp_path, monkeypatch):
    # the library builds every operator from the edge list; D is only for callers
    def refuse(graph):
        raise AssertionError("the dense incidence matrix was built")

    dense = graph_core.incidence_matrix
    for name, module in list(sys.modules.items()):
        if name == "graphfpe" or name.startswith("graphfpe."):
            for attr, value in list(vars(module).items()):
                if value is dense:
                    monkeypatch.setattr(module, attr, refuse)
    assert graph_core.incidence_matrix is refuse
    config = {
        "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 2.0], [1, 3, 0.5]]},
        "model": {"beta": 1.0},
        "gibbs": {"tol": 1e-12},
        "simulate": {"rho0": [0.6, 0.3, 0.1], "t_end": 2.0, "record_every": 5},
        "rates": {"rho0": [0.6, 0.3, 0.1]},
        "lsi": {"count": 50},
        "w2": {"rho0": [0.5, 0.3, 0.2], "rho1": [0.2, 0.3, 0.5], "K": 8},
        "decompose": {"rho": [0.5, 0.3, 0.2], "field": [[1, 2, 1.0], [2, 3, -0.5], [1, 3, 0.25]]},
        "seed": 11,
    }
    cfg = write_config(tmp_path, config)
    for cmd in ALL_COMMANDS:
        assert run(cmd, cfg, tmp_path / cmd) == 0, cmd


def test_log_env_var_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHFPE_LOG", "debug")
    cfg = write_config(tmp_path, CANONICAL)
    assert run("gibbs", cfg, tmp_path / "out") == 0
    monkeypatch.setenv("GRAPHFPE_LOG", "not-a-level")
    assert run("gibbs", cfg, tmp_path / "out") == 0


def digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_all_commands_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, CANONICAL)
    digests = []
    for label in ("first", "second"):
        out = tmp_path / label
        for cmd in ALL_COMMANDS:
            assert run(cmd, cfg, out) == 0, cmd
        digests.append(digest_tree(out))
    assert digests[0] == digests[1]


def test_tiny_beta_gibbs_map_keeps_every_command_off_exit_1(tmp_path):
    config = {
        "graph": {"n": 2, "edges": [[1, 2, 1.0]]},
        "model": {"beta": 1e-300, "V": [1e10, 2e10]},
        "simulate": {"rho0": [0.5, 0.5], "t_end": 1.0},
        "rates": {"rho0": [0.5, 0.5]},
        "lsi": {"count": 20},
    }
    cfg = write_config(tmp_path, config)
    assert run("gibbs", cfg, tmp_path / "gibbs") == 0
    assert read_json(tmp_path / "gibbs" / "gibbs.json")["density"][1] <= 1e-12
    assert run("simulate", cfg, tmp_path / "simulate") == 3  # the flow is too stiff: step size underflow
    assert run("lsi", cfg, tmp_path / "lsi") == 0
    assert run("rates", cfg, tmp_path / "rates") == 4  # the floor m underflows: vacuous certificate
    assert run("rates", cfg, tmp_path / "equilibria", "--equilibrium") == 0


@pytest.mark.parametrize("weight", [1e300, 1e-300])
def test_rates_with_extreme_edge_weights_scale_the_constants(tmp_path, weight):
    config = dict(CANONICAL)
    config["graph"] = {"n": 2, "edges": [[1, 2, weight]]}
    cfg = write_config(tmp_path, config)
    assert run("rates", cfg, tmp_path / "extreme") == 0
    assert run("rates", write_config(tmp_path, CANONICAL, "unit.json"), tmp_path / "unit") == 0
    got, unit = read_json(tmp_path / "extreme" / "rates.json"), read_json(tmp_path / "unit" / "rates.json")
    # r is invariant under scaling every weight; C2, C3 and C scale with it
    assert got["r"] == pytest.approx(unit["r"], rel=1e-14)
    for key in ("C2", "C3", "C", "lambda_asymptotic"):
        assert got[key] == pytest.approx(weight * unit[key], rel=1e-12), key


@pytest.mark.parametrize(
    "graph",
    [
        {"n": 2, "edges": [[1, 2, 1.7e308]]},  # the Laplacian and lambda_sec overflow
        {"n": 3, "edges": [[1, 2, 1e300], [2, 3, 1e-300]]},  # eigvalsh gives lambda_sec = 0.0
    ],
)
def test_rates_with_weights_beyond_the_float_range_exit_4(tmp_path, capsys, graph):
    config = dict(CANONICAL)
    config["graph"] = graph
    config["rates"] = {"rho0": [0.9, 0.1] if graph["n"] == 2 else [0.5, 0.3, 0.2]}
    assert run("rates", write_config(tmp_path, config), tmp_path / "out") == 4
    assert "vacuous" in capsys.readouterr().err


def test_rates_with_an_unresolved_lambda_sec_exits_3_and_names_it(tmp_path, capsys):
    # eigvalsh puts lambda_sec of this path near 4e-17, about 1e283 times the true value
    config = dict(CANONICAL)
    config["graph"] = {"n": 4, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1e-300]]}
    config["rates"] = {"rho0": [0.4, 0.3, 0.2, 0.1]}
    assert run("rates", write_config(tmp_path, config), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "lambda_sec of the graph Laplacian evaluates to" in err and "eigvalsh resolves" in err
    assert not (tmp_path / "out" / "rates.json").exists()


def test_decompose_field_whose_norm_overflows_exits_2(tmp_path, capsys):
    config = dict(CANONICAL)
    config["graph"] = {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]]}
    config["decompose"] = {"rho": [0.3, 0.3, 0.4], "field": [[1, 2, 1.7e308], [2, 3, -1.7e308], [1, 3, 1.7e308]]}
    assert run("decompose", write_config(tmp_path, config), tmp_path / "out") == 2
    assert "decompose.field" in capsys.readouterr().err


def test_huge_node_count_with_too_few_edges_exits_2_at_once(tmp_path, capsys):
    config = dict(CANONICAL)
    config["graph"] = {"n": 10**6, "edges": [[1, 2, 1.0]]}
    assert run("gibbs", write_config(tmp_path, config), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "cannot join 1000000 nodes" in err and len(err) < 200


@pytest.mark.parametrize("command", ["simulate", "rates", "lsi", "w2", "decompose"])
def test_command_without_its_section_exits_2_and_names_it(tmp_path, capsys, command):
    config = {"graph": CANONICAL["graph"], "model": CANONICAL["model"]}
    assert run(command, write_config(tmp_path, config), tmp_path / "out") == 2
    assert f"'{command}' section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rho0", [[0.5, 0.6], [0.2, 0.3, 0.5]])
def test_simulate_with_an_invalid_rho0_exits_2_and_leaves_no_output_directory(tmp_path, capsys, rho0):
    config = {**CANONICAL, "simulate": {**CANONICAL["simulate"], "rho0": rho0}}
    assert run("simulate", write_config(tmp_path, config), tmp_path / "out") == 2
    assert "simulate.rho0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gibbs_without_its_section_starts_from_uniform(tmp_path):
    model = {"beta": 1.0, "V": [0.0, math.log(2.0)]}
    bare = write_config(tmp_path, {"graph": CANONICAL["graph"], "model": model}, "bare.json")
    uniform = write_config(tmp_path, {"graph": CANONICAL["graph"], "model": model, "gibbs": {"init": [0.5, 0.5]}})
    assert run("gibbs", bare, tmp_path / "bare") == 0
    assert run("gibbs", uniform, tmp_path / "uniform") == 0
    got, want = read_json(tmp_path / "bare" / "gibbs.json"), read_json(tmp_path / "uniform" / "gibbs.json")
    assert got["converged"] is True
    assert {k: v for k, v in got.items() if not k.endswith("digest")} == {
        k: v for k, v in want.items() if not k.endswith("digest")
    }


GIBBS_OPTIONS = {"tol": 1e-11, "max_iter": 5000, "damping": 0.6}
# (command, the section's other keys, the library function the CLI calls, its optional keys at non-default values)
LIBRARY_OPTIONS = [
    ("gibbs", {}, "gibbs_fixed_point", GIBBS_OPTIONS),
    ("gibbs", {"starts": [[0.9, 0.1], [0.2, 0.8]]}, "find_all_equilibria", GIBBS_OPTIONS),
    (
        "simulate",
        {"rho0": [0.9, 0.1], "t_end": 2.0},
        "integrate",
        {"rel_tol": 1e-7, "abs_tol": 1e-10, "max_step": 0.25, "record_every": 3, "positivity_floor": 1e-9},
    ),
    ("rates", {"rho0": [0.9, 0.1]}, "rate_constants", {"gibbs_tol": 1e-12, "gibbs_max_iter": 400_000}),
    ("w2", {"rho0": [0.5, 0.5], "rho1": [0.9, 0.1]}, "w2_distance", {"K": 6, "max_iters": 40, "grad_tol": 1e-7}),
]


@pytest.mark.parametrize("set_options", [True, False], ids=["all-set", "none-set"])
@pytest.mark.parametrize(
    "command, section, function, options", LIBRARY_OPTIONS, ids=[f"{c}-{f}" for c, _, f, _ in LIBRARY_OPTIONS]
)
def test_each_optional_key_reaches_the_library_by_name(
    tmp_path, monkeypatch, command, section, function, options, set_options
):
    real = getattr(cli, function)
    keywords = []

    def recorder(*args, **kwargs):
        keywords.append(kwargs)
        return real(*args, **kwargs)  # a keyword the library does not take raises TypeError here

    monkeypatch.setattr(cli, function, recorder)
    given = options if set_options else {}
    config = {**CANONICAL, command: {**section, **given}}
    assert run(command, write_config(tmp_path, config), tmp_path / "out") == 0
    assert keywords == [given]


def test_w2_json_reports_the_segment_count_the_library_used(tmp_path):
    config = {**CANONICAL, "w2": {"rho0": [0.5, 0.5], "rho1": [0.9, 0.1], "path_csv": True}}
    assert run("w2", write_config(tmp_path, config), tmp_path / "out") == 0
    K = inspect.signature(wasserstein_metric.w2_distance).parameters["K"].default
    assert read_json(tmp_path / "out" / "w2.json")["K"] == K
    assert len((tmp_path / "out" / "w2_path.csv").read_text().splitlines()) == 1 + K + 1


# (the command line's extra arguments, the config's output_dir) given a path to an existing file
COMMAND_LINE_FAULTS = {
    "negative-seed": lambda file: (["--out", str(file.parent / "out"), "--seed", "-1"], None),
    "out-is-a-file": lambda file: (["--out", str(file)], None),
    "out-below-a-file": lambda file: (["--out", str(file / "out")], None),
    "output-dir-is-a-file": lambda file: ([], str(file)),
}


@pytest.mark.parametrize("fault", COMMAND_LINE_FAULTS)
@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_a_refused_command_line_value_exits_2_with_one_line(tmp_path, capsys, command, fault):
    file = tmp_path / "taken"
    file.write_text("")
    argv, output_dir = COMMAND_LINE_FAULTS[fault](file)
    config = CANONICAL if output_dir is None else {**CANONICAL, "output_dir": output_dir}
    assert main([command, "--config", str(write_config(tmp_path, config)), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("graphfpe: ") and err.count("\n") == 1, err
    assert file.read_text() == ""


EXIT_CODES = [
    *[(name, 2) for name in ("ConfigError", "DimensionMismatch", "NotAnEdge")],
    *[
        (name, 4)
        for name in (
            "NotCertifiedConvex",
            "BoundaryDensity",
            "NonPositiveHessian",
            "NonSymmetricW",
            "NonPositiveSymmetrizedJacobian",
            "NotZeroSum",
            "NoValidSamples",
            "VacuousCertificate",
        )
    ],
    *[(name, 3) for name in ("NoConvergence", "StepSizeUnderflow", "InconsistentRateConstants")],
]


@pytest.mark.parametrize("name, code", EXIT_CODES)
def test_each_reported_error_class_has_its_exit_code(tmp_path, monkeypatch, capsys, name, code):
    def failing(run):
        raise getattr(errors, name)("made to fail")

    monkeypatch.setattr(cli, "cmd_decompose", failing)
    assert run("decompose", write_config(tmp_path, CANONICAL), tmp_path / "out") == code
    assert "graphfpe: made to fail" in capsys.readouterr().err


@pytest.mark.parametrize("error", [errors.GraphMismatch("unmapped"), OverflowError("unmapped")])
def test_an_error_without_an_exit_code_propagates(tmp_path, monkeypatch, error):
    def failing(run):
        raise error

    monkeypatch.setattr(cli, "cmd_decompose", failing)
    with pytest.raises(type(error), match="unmapped"):
        run("decompose", write_config(tmp_path, CANONICAL), tmp_path / "out")
