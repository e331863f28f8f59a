"""The benchmark's child processes.

    python3 bench/worker.py setup --workload W --seed S --dir D
        Cold start: import graphfpe.cli, load its config schema, generate the
        workload's configs into D and validate them. Writes D/manifest.json.

    python3 bench/worker.py passes --dir D --seconds T --trace 0|1
        Runs the commands of D/manifest.json through graphfpe.cli.main, one
        after another in this one process: a warm-up pass, then whole passes
        until T seconds have gone. Before each command a short probe times
        a fixed loop, so run.py can scale for the host's speed. With
        --trace 1 every second pass runs under the tracer. Writes
        D/result.json.

run.py starts both with PYTHONPATH pointing at the checkout's src/ and BLAS
pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


def setup(args) -> None:
    from importlib import resources

    import jsonschema

    import graphfpe.cli  # noqa: F401  (importing the CLI is part of set-up)
    from workloads import generate

    schema = json.loads(resources.files("graphfpe").joinpath("config_schema.json").read_text("utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    out = Path(args.dir)
    plan = generate(args.workload, args.seed, out)
    for cmd in plan["commands"]:
        validator.validate(json.loads((out / cmd["config"]).read_text("utf-8")))
    (out / "manifest.json").write_text(json.dumps(plan), encoding="utf-8")


_PROBE_M = np.full((8, 8), 0.1)
_PROBE_V = np.arange(64.0)


def probe() -> float:
    """Seconds this host takes right now for a fixed mix of interpreter work
    and small numpy calls, the two kinds of work graphfpe does."""
    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    v = _PROBE_V[:8].copy()
    for i in range(600):
        v = _PROBE_M @ v + _PROBE_V[i % 56:i % 56 + 8]
        v = v / v.sum()
    return perf_counter() - start


def _digests(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def run_pass(cli, commands, cfg_dir: Path, out_root: Path):
    """Run every command once, each after a speed probe.

    Returns the pass seconds (probes excluded), the probe seconds, and per
    command the seconds, exit code and stderr.
    """
    shutil.rmtree(out_root, ignore_errors=True)
    gc.collect()
    probes, seconds, codes, errors = [], [], [], []
    begin = perf_counter()
    for cmd in commands:
        probes.append(probe())
        argv = [cmd["command"], "--config", str(cfg_dir / cmd["config"]),
                "--out", str(out_root / cmd["id"]), "--jobs", "1", *cmd["flags"]]
        err = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed command, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds.append(perf_counter() - start)
        codes.append(rc)
        errors.append(err.getvalue()[-2000:])
    return perf_counter() - begin - sum(probes), probes, seconds, codes, errors


def passes(args) -> None:
    import graphfpe.cli as cli
    from tracer import Tracer

    # main() calls logging.basicConfig(stream=sys.stderr); bind the handler to
    # the real stderr before any main() runs under redirect_stderr
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")

    cfg_dir = Path(args.dir)
    commands = json.loads((cfg_dir / "manifest.json").read_text("utf-8"))["commands"]
    warm_root, pass_root = cfg_dir / "out" / "warm", cfg_dir / "out" / "pass"

    _, _, _, warm_codes, warm_errors = run_pass(cli, commands, cfg_dir, warm_root)
    reference = [_digests(warm_root / c["id"]) for c in commands]

    tracer = Tracer()
    records = []
    begin = perf_counter()
    while perf_counter() - begin < args.seconds or (args.trace and len(records) < 2):
        traced = bool(args.trace) and len(records) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            total, probes, seconds, codes, _ = run_pass(cli, commands, cfg_dir, pass_root)
        finally:
            tracer.uninstall()
        record = {
            "traced": traced,
            "seconds": total,
            "probe_seconds": probes,
            "command_seconds": seconds,
            "codes": codes,
            "same_bytes": [_digests(pass_root / c["id"]) == ref for c, ref in zip(commands, reference)],
        }
        if traced:
            record["trace"] = tracer.summary()
        records.append(record)

    result = {
        "warm": {"codes": warm_codes, "errors": warm_errors},
        "passes": records,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    (cfg_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    p = sub.add_parser("passes")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    setup(args) if args.mode == "setup" else passes(args)


if __name__ == "__main__":
    main()
