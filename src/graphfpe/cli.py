"""Command-line harness: config validation, orchestration, bit-stable outputs.

Usage:
    graphfpe <gibbs|simulate|rates|lsi|w2|decompose> --config cfg.json
             [--out DIR] [--seed S]

``--jobs N`` is accepted and ignored, kept for existing command lines.
A missing command section exits 2; an omitted key takes the library default.
Every command is deterministic given (config, seed); floats in JSON and CSV
outputs are written with 17 significant digits so repeated runs are
byte-identical. Each output embeds SHA-256 digests of the config and of its
graph and model, with every list of floats hashed as little-endian doubles
(:func:`_packed`), plus the library version. Exit codes: 0 success, 2 config or
validation problem, 3 numerical non-convergence, 4 precondition violation.
Set GRAPHFPE_LOG to error/warn/info/debug to control logging.

A config and each file it references are read by one loader
(:func:`_load_json`): the C JSON parser, then an accept-only walk of the
shipped schema (:func:`_accepts`) that also refuses numbers that are not
finite as floats. Only a file the walk refuses is parsed again, with hooks
that name its first non-finite literal, and jsonschema is imported only to
word the error for it. Numeric arrays and rows
are formatted a whole array or row at a time, with the bytes of formatting
each value on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import struct
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BoundaryDensity,
    ConfigError,
    DimensionMismatch,
    GraphFpeError,
    InconsistentRateConstants,
    NoConvergence,
    NonPositiveHessian,
    NonPositiveSymmetrizedJacobian,
    NonSymmetricW,
    NotAnEdge,
    NotCertifiedConvex,
    NotZeroSum,
    NoValidSamples,
    StepSizeUnderflow,
    VacuousCertificate,
)
from .fpe_dynamics import integrate
from .free_energy import (
    EnergyModel,
    convexity_certificate,
    energy,
    find_all_equilibria,
    gibbs_fixed_point,
)
from .graph_core import Graph, build_graph
from .rate_analysis import (
    LSI_MIN_MASS,
    _certified_gibbs,
    equilibrium_rates,
    estimate_lsi_constant,
    rate_constants,
    relative_entropy,
    tail_slope,
    verify_decay_bound,
)
from .simplex_calculus import Density, VectorField, divergence, hodge_decompose, inner_product
from .wasserstein_metric import w2_distance

logger = logging.getLogger("graphfpe")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4

# the exit code of each error class main() reports; an error of a class not listed propagates
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    DimensionMismatch: EXIT_CONFIG,
    NotAnEdge: EXIT_CONFIG,
    NotCertifiedConvex: EXIT_PRECONDITION,
    BoundaryDensity: EXIT_PRECONDITION,
    NonPositiveHessian: EXIT_PRECONDITION,
    NonSymmetricW: EXIT_PRECONDITION,
    NonPositiveSymmetrizedJacobian: EXIT_PRECONDITION,
    NotZeroSum: EXIT_PRECONDITION,
    NoValidSamples: EXIT_PRECONDITION,
    VacuousCertificate: EXIT_PRECONDITION,
    NoConvergence: EXIT_NUMERIC,
    StepSizeUnderflow: EXIT_NUMERIC,
    InconsistentRateConstants: EXIT_NUMERIC,
    MemoryError: EXIT_CONFIG,  # the config asks for an array numpy cannot size or the machine cannot allocate
}


# -- stable serialization ----------------------------------------------------

# floats are written as "%.17g" % x, the text of format(x, ".17g"); JSON outputs quote the three non-finite texts
_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _number_texts(seq) -> list[str] | None:
    """The stable text of each entry of a flat run of Python ints and floats, or of a 1-D int or float array.

    None for any other sequence, which :func:`_dump_stable` then writes entry by entry.
    """
    if isinstance(seq, np.ndarray) and seq.ndim == 1 and seq.dtype.kind in "iuf":
        seq = seq.tolist()
    if not set(map(type, seq)) <= {int, float}:
        return None
    texts = ["%.17g" % x if type(x) is float else "%d" % x for x in seq]
    if "nan" in texts or "inf" in texts or "-inf" in texts:
        return [_QUOTED.get(text, text) for text in texts]
    return texts


def _dump_stable(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = "%.17g" % obj
        return _QUOTED.get(text, text)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = _number_texts(obj)
        if items is None:
            items = [_dump_stable(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            inner + json.dumps(str(k)) + ": " + _dump_stable(obj[k], indent + 1)
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(path: Path, text: str) -> None:
    """Write one output file, creating its directory first; a command that fails before writing leaves none."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    logger.info("wrote %s", path)


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write the header and one line per row of the 2-D float array table, each entry as format(x, ".17g")."""
    line = ",".join(["%.17g"] * len(header))
    _write(path, "\n".join([",".join(header), *[line % tuple(row) for row in table.tolist()]]) + "\n")


_FLOATS = {float}
_CONTAINERS = {list, dict}


def _packed(obj):
    """obj with every non-empty list of floats replaced by ``{"": SHA-256 hex of its entries as "<f8"}``, recursively.

    Ints and bools are never packed: a list holding any (an edge row
    ``[i, j, w]``) stays JSON, and only lists and dicts are descended into.
    """
    if isinstance(obj, dict):
        return {key: _packed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        types = set(map(type, obj))
        if types == _FLOATS:
            return {"": hashlib.sha256(struct.pack(f"<{len(obj)}d", *obj)).hexdigest()}
        return [_packed(item) for item in obj] if types & _CONTAINERS else obj
    return obj


# json.dumps with these keywords, without building an encoder per call
_compact_sorted_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical(obj) -> str:
    """The text a digest hashes: :func:`_packed` obj as compact JSON with sorted keys."""
    return _compact_sorted_json(_packed(obj))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(obj) -> str:
    return _sha256(_canonical(obj))


def _stamp_digests(config: dict, graph_dict: dict, model_dict: dict) -> dict:
    """The config, graph and model digests (:func:`_digest`), with each top-level config value serialized once.

    The config's canonical string is joined from its parts, and an inline
    graph or model section is hashed from its part; a section read from a
    file is serialized on its own.
    """
    parts = {key: _canonical(value) for key, value in config.items()}
    whole = "{" + ",".join(json.dumps(key) + ":" + parts[key] for key in sorted(parts)) + "}"

    def section(key: str, resolved: dict) -> str:
        return _sha256(parts[key]) if resolved is config[key] else _digest(resolved)

    return {
        "config_digest": _sha256(whole),
        "graph_digest": section("graph", graph_dict),
        "model_digest": section("model", model_dict),
    }


# -- config loading ----------------------------------------------------------

@functools.cache
def _schema() -> dict:
    """The shipped config schema, parsed once per process, with its ``$ref``s inlined."""
    text = resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8")
    defs = json.loads(text)["$defs"]
    return json.loads(text, object_hook=lambda d: defs[d["$ref"].removeprefix("#/$defs/")] if "$ref" in d else d)


@functools.cache
def _validator():
    """Stock Draft 2020-12 over :func:`_schema`, built once per process.

    Only a config that :func:`_accepts` refuses reaches it, so jsonschema is
    imported here, to word the error, and not with the module.
    """
    import jsonschema

    return jsonschema.Draft202012Validator(_schema())


# the keywords the walk checks on a node of each type, besides these on any node;
# a node with any other keyword is left to jsonschema
_ANY_TYPE = frozenset({"type", "oneOf", "$schema", "$defs", "title"})
_BOUNDS = frozenset({"minimum", "exclusiveMinimum", "maximum"})
_KEYWORDS = {
    None: frozenset(),
    "string": frozenset(),
    "boolean": frozenset(),
    "object": frozenset({"properties", "required", "additionalProperties"}),
    "array": frozenset({"items", "prefixItems", "minItems", "maxItems"}),
    "number": _BOUNDS,
    "integer": _BOUNDS,
}
_CLASSES = {"string": str, "boolean": bool, "object": dict, "array": list}


def _accepts(schema, values: list) -> bool:
    """True only if stock Draft 2020-12 finds no error in any of values under schema.

    One pass per schema node over every value it applies to, not one
    jsonschema descent per value: a run of numbers costs one type-set test,
    one float sum and a min (and max) for its bounds. Types and bounds follow
    jsonschema's rules: a bool is no number and an integral float is an
    integer. A number that is not finite as a float is refused, though
    jsonschema accepts it, so that an accepted config needs no other check.
    ``oneOf`` is accepted only where the walk accepts one branch and every
    other branch misses a key it requires. False only means "let jsonschema
    decide".
    """
    if type(schema) is not dict:
        return False
    kind = schema.get("type")
    if not (kind is None or type(kind) is str) or kind not in _KEYWORDS:
        return False
    if not schema.keys() - _ANY_TYPE <= _KEYWORDS[kind]:
        return False
    if kind in ("number", "integer"):
        return _accepts_numbers(schema, kind, values)
    if kind is not None and not set(map(type, values)) <= {_CLASSES[kind]}:
        return False
    if "oneOf" in schema and not all(_one_of(schema["oneOf"], value) for value in values):
        return False
    if kind == "object":
        return _accepts_objects(schema, values)
    if kind == "array":
        return _accepts_arrays(schema, values)
    return True


def _accepts_numbers(schema: dict, kind: str, values: list) -> bool:
    types = set(map(type, values))
    if not types <= {int, float}:
        return False
    # one C sum: a NaN or an infinity makes it non-finite, and an int beyond the float range raises as it is
    # added, so two of opposite sign cannot cancel; a sum that overflows from finite terms is a false alarm
    try:
        if not math.isfinite(sum(values, 0.0)):
            return False
    except OverflowError:
        return False
    if kind == "integer" and float in types and not all(x.is_integer() for x in values if type(x) is float):
        return False
    if not values or schema.keys().isdisjoint(_BOUNDS):
        return True
    least = min(values)
    return not (
        least < schema.get("minimum", -math.inf)
        or least <= schema.get("exclusiveMinimum", -math.inf)
        or "maximum" in schema and max(values) > schema["maximum"]
    )


def _accepts_objects(schema: dict, values: list[dict]) -> bool:
    properties = schema.get("properties", {})
    required = set(schema.get("required", ()))
    extra = schema.get("additionalProperties", True)
    if type(extra) is not bool:
        return False
    for value in values:
        if not (value.keys() >= required and (extra or value.keys() <= properties.keys())):
            return False
    for key, sub in properties.items():
        present = [value[key] for value in values if key in value]
        if present and not _accepts(sub, present):
            return False
    return True


def _accepts_arrays(schema: dict, values: list[list]) -> bool:
    lengths = set(map(len, values))
    if lengths and not schema.get("minItems", 0) <= min(lengths) <= max(lengths) <= schema.get("maxItems", math.inf):
        return False
    prefix = schema.get("prefixItems", [])
    for k, sub in enumerate(prefix):
        if not _accepts(sub, [value[k] for value in values if len(value) > k]):
            return False
    rest = [value[len(prefix):] for value in values] if prefix else values
    return "items" not in schema or _accepts(schema["items"], list(itertools.chain.from_iterable(rest)))


def _one_of(branches: list, value) -> bool:
    """True only if exactly one branch accepts value: the walk accepts it, and every other one misses a required key."""
    accepted = [branch for branch in branches if _accepts(branch, [value])]
    return len(accepted) == 1 and all(
        branch is accepted[0]
        or type(value) is dict and type(branch) is dict and not value.keys() >= set(branch.get("required", ()))
        for branch in branches
    )


def _finite_float(text: str) -> float:
    """``json.loads`` hook for float literals: the value, refused unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        shown = text[:21] + "..." if len(text) > 24 else text
        raise ValueError(f"number {shown} is not finite as a float")
    return value


def _finite_int(text: str) -> int:
    """``json.loads`` hook for int literals: the value, refused unless it is finite as a float."""
    _finite_float(text)
    return int(text)


def _no_constant(name: str):
    """``json.loads`` hook for the NaN, Infinity and -Infinity literals: always refused."""
    raise ValueError(f"number {name} is not finite")


def _load_json(path: Path, schema: dict, refuse) -> dict:
    """Parse a config or a referenced file and check it against schema, a node of :func:`_schema`.

    A valid file costs one C parse and one :func:`_accepts` walk, which also
    refuses numbers that are not finite as floats. Any other file is parsed
    again with the per-number hooks, which stop at the first NaN, infinity or
    literal that overflows a float and give its message; a file that passes
    them goes to ``refuse(data)``, which raises jsonschema's error for it, if
    it has one.
    """
    try:
        text = path.read_text("utf-8")
        try:
            data = json.loads(text, parse_constant=_no_constant)
        except ValueError:
            pass
        else:
            if _accepts(schema, [data]):
                return data
        data = json.loads(text, parse_float=_finite_float, parse_int=_finite_int, parse_constant=_no_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    refuse(data)
    return data


def _refuse_config(config) -> None:
    """Raise jsonschema's best match among the errors of a config, sorted by path, as ``config error at $...``."""
    from jsonschema.exceptions import best_match

    errors = sorted(_validator().iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = best_match(errors)
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path)
        raise ConfigError(f"config error at {where}: {err.message}")


def _refuse_section(fragment: str, name: str, section) -> None:
    """Raise jsonschema's best match among the errors of a file under ``$defs/fragment``, as ``name: ...``."""
    from jsonschema.exceptions import best_match

    err = best_match(_validator().evolve(schema=_schema()["$defs"][fragment]).iter_errors(section))
    if err is not None:
        raise ConfigError(f"{name}: {err.message}")


def _validate_config(config: dict) -> None:
    if not _accepts(_schema(), [config]):
        _refuse_config(config)


def _resolve_section(config: dict, key: str, base: Path, fragment: str) -> dict:
    section = config[key]
    if "path" in section:
        refuse = functools.partial(_refuse_section, fragment, section["path"])
        return _load_json(base / section["path"], _schema()["$defs"][fragment], refuse)
    return section


@contextlib.contextmanager
def _config_input(what: str):
    """Report a config value the library refuses (GraphFpeError or ValueError) as ``invalid {what}: ...``."""
    try:
        yield
    except (GraphFpeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _build_graph(gdict: dict) -> Graph:
    with _config_input("graph"):
        return build_graph(gdict["n"], gdict["edges"])


def _build_model(mdict: dict, n: int) -> EnergyModel:
    with _config_input("model"):  # a ragged W fails its conversion
        V = np.asarray(mdict.get("V", np.zeros(n)), dtype=float)
        W = np.asarray(mdict.get("W", np.zeros((n, n))), dtype=float)
        model = EnergyModel(interaction=W, potential=V, beta=float(mdict["beta"]))
    if model.n != n:
        raise ConfigError(f"model is {model.n}-dimensional but the graph has {n} nodes")
    return model


class _Run:
    """Everything shared by the command handlers."""

    def __init__(self, args):
        config_path = Path(args.config)
        self.config = _load_json(config_path, _schema(), _refuse_config)
        self.base = config_path.parent
        graph_dict = _resolve_section(self.config, "graph", self.base, "graph_inline")
        model_dict = _resolve_section(self.config, "model", self.base, "model_inline")
        self.graph = _build_graph(graph_dict)
        self.model = _build_model(model_dict, self.graph.node_count)
        self.out = Path(args.out) if args.out else Path(self.config.get("output_dir", "."))
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed is {args.seed}; it must be >= 0")
        self.seed = args.seed if args.seed is not None else int(self.config.get("seed", 0))
        self.stamp = {
            **_stamp_digests(self.config, graph_dict, model_dict),
            "version": __version__,
            "seed": self.seed,
        }

    def section(self, name: str) -> dict:
        """The config's ``name`` section; the schema has already checked the keys it requires."""
        if name not in self.config:
            raise ConfigError(f"config has no '{name}' section, which the {name} command needs")
        return self.config[name]

    def density(self, values, what: str) -> Density:
        """The config density ``values``, checked against the graph; the uniform density where they are None."""
        n = self.graph.node_count
        if values is None:
            return Density(np.full(n, 1.0 / n))
        with _config_input(what):
            rho = Density(np.asarray(values, dtype=float))
        if rho.n != n:
            raise ConfigError(f"{what} has {rho.n} entries but the graph has {n} nodes")
        return rho

    def starts(self, name: str) -> list[Density]:
        """The ``name`` section's ``starts``; by default uniform plus one start per node with mass 0.9 at that node."""
        opts = self.config.get(name, {})
        if "starts" in opts:
            return [self.density(s, f"{name}.starts entry") for s in opts["starts"]]
        n = self.graph.node_count
        starts = [self.density(None, "uniform start")]
        off = 0.1 / (n - 1)
        for i in range(n):
            v = np.full(n, off)
            v[i] = 0.9
            starts.append(Density(v / v.sum()))
        return starts

    def write(self, name: str, payload: dict) -> None:
        """Write the output file ``name``: the stamp plus ``payload``, in the stable JSON form."""
        _write(self.out / name, _dump_stable({**self.stamp, **payload}) + "\n")


def _given(opts: dict, *keys: str) -> dict:
    """The keys among ``keys`` that the config section sets; the library's keyword defaults stand for the rest."""
    return {key: opts[key] for key in keys if key in opts}


def _equilibrium_record(result, model) -> dict:
    """One Gibbs solve as ``gibbs`` and ``rates --equilibrium`` report it: the state, its energy and the solve's cost."""
    return {
        "density": result.density.values,
        "energy": energy(model, result.density),
        "residual": result.residual,
        "iterations": result.iterations,
        "newton_steps": result.newton_steps,
        "damping": result.damping,
    }


def _gibbs_payload(result, model) -> dict:
    return {**_equilibrium_record(result, model), "K": result.normalizer}


def cmd_gibbs(run: _Run) -> int:
    opts = run.config.get("gibbs", {})  # the one command whose section may be left out
    solver = _given(opts, "tol", "max_iter", "damping")
    init = run.density(opts.get("init"), "gibbs.init")
    if "starts" in opts:
        results = find_all_equilibria(run.model, run.starts("gibbs"), **solver)
        converged = bool(results)
        payload = {"equilibria": [_gibbs_payload(r, run.model) for r in results]}
        if results:
            payload.update(_gibbs_payload(results[0], run.model))
    else:
        try:
            result = gibbs_fixed_point(run.model, init, **solver)
            converged = True
        except NoConvergence as exc:
            result = exc.result
            converged = False
            logger.error("gibbs iteration did not converge: %s", exc)
        payload = _gibbs_payload(result, run.model)
    run.write("gibbs.json", {**payload, "converged": converged})
    return EXIT_OK if converged else EXIT_NUMERIC


def _trajectory_rows(traj) -> np.ndarray:
    densities = np.array([rho.values for rho in traj.densities])
    return np.column_stack((traj.times, densities, traj.energy, traj.dissipation))


def cmd_simulate(run: _Run) -> int:
    opts = run.section("simulate")
    rho0 = run.density(opts["rho0"], "simulate.rho0")
    options = _given(opts, "rel_tol", "abs_tol", "max_step", "record_every", "positivity_floor")
    n = run.graph.node_count
    header = ["t", *[f"rho_{i + 1}" for i in range(n)], "energy", "dissipation"]
    started = time.perf_counter()
    try:
        traj = integrate(run.model, run.graph, rho0, opts["t_end"], **options)
        completed = True
    except StepSizeUnderflow as exc:
        traj = exc.trajectory
        completed = False
        logger.error("integration stopped early: %s", exc)
    logger.info("integration wall time: %.3fs", time.perf_counter() - started)

    _write_csv(run.out / "trajectory.csv", header, _trajectory_rows(traj))
    final = traj.final_density
    try:
        gibbs = gibbs_fixed_point(run.model, final)
        rel_entropy = relative_entropy(run.model, final, gibbs.density)
    except NoConvergence:
        rel_entropy = None
    run.write(
        "summary.json",
        {
            "completed": completed,
            "final_time": traj.times[-1],
            "final_density": final.values,
            "relative_entropy": rel_entropy,
            "relative_fisher": -traj.dissipation[-1],
            "accepted_steps": traj.accepted_steps,
            "rejected_steps": traj.rejected_steps,
            "rejected_by": dict(traj.rejected_by),
            "exponential_steps": traj.exponential_steps,
            "switch_time": traj.switch_time,
            "rhs_evaluations": traj.rhs_evaluations,
            "records": int(traj.times.size),
        },
    )
    return EXIT_OK if completed else EXIT_NUMERIC


def _read_trajectory_csv(path: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """t and energy columns of a ``trajectory.csv`` as ``simulate`` writes it: a header, then rows of n + 3 numbers."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without rows; the shape test below refuses it
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory file {path}: {exc}") from exc
    if raw.shape[0] == 0 or raw.shape[1] != n + 3:
        found = f"rows of {raw.shape[1]} columns" if raw.size else "no rows"
        raise ConfigError(
            f"trajectory file {path} has {found}; simulate writes rows of {n + 3}"
            f" (t, rho_1..rho_{n}, energy, dissipation) after a header"
        )
    if not (np.all(np.isfinite(raw[:, [0, -2]])) and raw[0, 0] >= 0.0 and np.all(np.diff(raw[:, 0]) >= 0.0)):
        raise ConfigError(f"trajectory file {path} needs finite times and energies, the times from 0 up")
    return raw[:, 0], raw[:, -2]  # t and energy columns


def cmd_rates(run: _Run, equilibria_flag: bool = False) -> int:
    opts = run.section("rates")
    rho0 = run.density(opts["rho0"], "rates.rho0")

    if equilibria_flag:
        budget = {key: opts[f"gibbs_{key}"] for key in ("tol", "max_iter") if f"gibbs_{key}" in opts}
        results = find_all_equilibria(run.model, run.starts("rates"), **budget)
        if not results:
            raise NoConvergence("no equilibrium start converged")
        entries = []
        for res in results:
            # an indefinite Hessian still has a tangent rate; a negative one flags an unstable equilibrium
            lam, positive, lam_fisher = equilibrium_rates(run.model, run.graph, res.density, strict=False)
            rates = {"lambda_asymptotic": lam, "hessian_positive": positive, "lambda_fisher": lam_fisher}
            entries.append({**_equilibrium_record(res, run.model), **rates})
        # equilibrium_rates has refused a non-symmetric W above
        certified = convexity_certificate(run.model).certified_convex
        run.write("rates.json", {"equilibria": entries, "certified_convex": certified})
        return EXIT_OK

    report = rate_constants(run.model, run.graph, rho0, **_given(opts, "gibbs_tol", "gibbs_max_iter"))
    lam, _, lam_fisher = equilibrium_rates(run.model, run.graph, report.rho_inf)
    payload = {
        **vars(report),
        "certified_convex": True,
        "rho_inf": report.rho_inf.values,
        "lambda_asymptotic": lam,
        "lambda_fisher": lam_fisher,
    }
    if "trajectory" in opts:
        times, energies = _read_trajectory_csv(run.base / opts["trajectory"], run.graph.node_count)
        check = verify_decay_bound(times, energies, report)
        payload["bound_holds"] = check.holds
        payload["bound_max_violation"] = check.max_violation
        try:
            payload["observed_tail_slope"] = tail_slope(times, energies - report.f_inf)
        except ValueError:
            payload["observed_tail_slope"] = None
    run.write("rates.json", payload)
    return EXIT_OK


def cmd_lsi(run: _Run) -> int:
    opts = run.section("lsi")
    n = run.graph.node_count
    min_mass = opts.get("min_mass", LSI_MIN_MASS)  # read here to refuse a min_mass >= 1/n before the Gibbs solve
    if not min_mass < 1.0 / n:
        raise ConfigError(f"lsi.min_mass is {min_mass!r}; it must be below 1/n = {1.0 / n!r} on {n} nodes")
    _, gibbs = _certified_gibbs(run.model, run.density(opts.get("rho0"), "lsi.rho0"))
    estimate = estimate_lsi_constant(
        run.model, run.graph, gibbs.density, count=opts["count"], seed=run.seed, min_mass=min_mass
    )
    run.write(
        "lsi.json",
        {
            "count": opts["count"],
            "min_mass": min_mass,
            "lambda_hat": estimate.lambda_hat,
            "worst_density": estimate.worst_density.values,
            "samples_retained": estimate.samples_retained,
            "rho_inf": gibbs.density.values,
        },
    )
    return EXIT_OK


def cmd_w2(run: _Run) -> int:
    opts = run.section("w2")
    rho0 = run.density(opts["rho0"], "w2.rho0")
    rho1 = run.density(opts["rho1"], "w2.rho1")
    result = w2_distance(run.graph, rho0, rho1, **_given(opts, "K", "max_iters", "grad_tol"))
    K = result.path.segments
    run.write(
        "w2.json",
        {
            "distance": result.distance,
            "action": result.path.action,
            "converged": result.converged,
            "iterations": result.iterations,
            "backtracks": result.backtracks,
            "grad_norm": result.grad_norm,
            "K": K,
        },
    )
    if opts.get("path_csv", False):
        n = run.graph.node_count
        header = ["k", "t", *[f"rho_{i + 1}" for i in range(n)]]
        k = np.arange(K + 1)
        densities = np.array([rho.values for rho in result.path.densities])
        _write_csv(run.out / "w2_path.csv", header, np.column_stack((k, k / K, densities)))
    if not result.converged:
        logger.error("w2 optimization stopped at grad norm %.3e > tol", result.grad_norm)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_decompose(run: _Run) -> int:
    opts = run.section("decompose")
    rho = run.density(opts["rho"], "decompose.rho")
    graph = run.graph
    values = np.zeros(graph.edge_count)
    seen = set()
    for i, j, val in opts["field"]:
        i0, j0 = int(i) - 1, int(j) - 1
        try:
            e = graph.edge_index(i0, j0)
        except NotAnEdge as exc:
            raise ConfigError(f"decompose.field: ({i}, {j}) is not an edge") from exc
        if e in seen:
            raise ConfigError(f"decompose.field: edge ({i}, {j}) listed twice")
        seen.add(e)
        values[e] = float(val) if i0 < j0 else -float(val)
    field = VectorField(graph, values)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing v^2 gives inf, or NaN where theta is 0
        total = inner_product(field, field, rho)
    if not math.isfinite(total):
        raise ConfigError("decompose.field: its squared rho-norm (v, v)_rho overflows a float")

    phi, u = hodge_decompose(graph, rho, field)
    residual = divergence(graph, rho, u)
    grad = VectorField(graph, field.edge_values - u.edge_values)

    def edge_list(vals) -> list:
        return [[i + 1, j + 1, float(v)] for (i, j, _), v in zip(graph.edges, vals)]

    run.write(
        "hodge.json",
        {
            "potential": phi.values,
            "gradient_field": edge_list(grad.edge_values),
            "rotational_field": edge_list(u.edge_values),
            "div_residual_max": float(np.max(np.abs(residual.values))),
            "u_inf_norm": float(np.max(np.abs(u.edge_values))),
            "inner_products": {
                "total": total,
                "gradient": inner_product(grad, grad, rho),
                "rotational": inner_product(u, u, rho),
            },
        },
    )
    return EXIT_OK


def _setup_logging() -> None:
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    raw = os.environ.get("GRAPHFPE_LOG", "warn").lower()
    level = levels.get(raw, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)
    if raw not in levels:
        logger.warning("unknown GRAPHFPE_LOG value %r; using 'warn'", raw)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="graphfpe",
        description="Wasserstein calculus and Fokker-Planck dynamics on finite weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("gibbs", "solve the Gibbs fixed point (optionally multi-start)"),
        ("simulate", "integrate the Fokker-Planck flow and record a trajectory"),
        ("rates", "evaluate the explicit convergence-rate constants"),
        ("lsi", "estimate the log-Sobolev constant by simplex sampling"),
        ("w2", "compute the 2-Wasserstein distance between two densities"),
        ("decompose", "Hodge-decompose an edge vector field"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir or '.')")
        p.add_argument("--jobs", type=int, default=1, help="ignored (kept for existing command lines)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "rates":
            p.add_argument(
                "--equilibrium",
                action="store_true",
                help="report per-equilibrium asymptotic rates instead of the global bound",
            )
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        run = _Run(args)
        # built per call, so a handler rebound at module level (as bench/tracer.py does) is the one run
        handlers = {
            "gibbs": cmd_gibbs,
            "simulate": cmd_simulate,
            "rates": lambda run: cmd_rates(run, equilibria_flag=args.equilibrium),  # only rates has the flag
            "lsi": cmd_lsi,
            "w2": cmd_w2,
            "decompose": cmd_decompose,
        }
        return handlers[args.command](run)
    except tuple(_EXIT_CODES) as exc:
        print(f"graphfpe: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
