"""Self-test of the benchmark's output checks: real outputs pass, perturbed ones fail.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from graphfpe import cli  # noqa: E402


def _configs():
    rng = np.random.default_rng(5)
    n = 5
    edges = wl.ring(rng, n)
    model = wl.convex_model(rng, n)
    rho0 = wl.interior(rng, n)
    return {
        "simulate": {"graph": {"n": n, "edges": edges}, "model": model,
                     "simulate": {"rho0": rho0, "t_end": wl.flow_t_end(model, n, edges, rho0)}},
        "gibbs": {"graph": {"n": n, "edges": edges}, "model": model,
                  "gibbs": {"starts": [wl.interior(rng, n) for _ in range(3)]}},
        "rates": {"graph": {"n": n, "edges": edges}, "model": model, "rates": {"rho0": rho0}},
        "lsi": {"graph": {"n": n, "edges": edges}, "model": model, "lsi": {"count": 300, "min_mass": 1e-3}},
        "decompose": {"graph": {"n": n, "edges": edges}, "model": {"beta": 1.0},
                      "decompose": {"rho": rho0, "field": [[i, j, float(rng.normal())] for i, j, _ in edges]}},
        "w2": {"graph": {"n": 2, "edges": [[1, 2, 1.5]]}, "model": {"beta": 1.0},
               "w2": {"rho0": [0.3, 0.7], "rho1": [0.8, 0.2], "K": 4, "grad_tol": wl.W2_TOL}},
    }


def _edit_json(name, edit):
    def apply(out: Path):
        path = out / name
        data = json.loads(path.read_text("utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
    return apply


def _edit_energy_column(out: Path):
    path = out / "trajectory.csv"
    lines = path.read_text("utf-8").splitlines()
    cells = lines[3].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-6)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shift_mass(rho):
    rho[0] += 1e-6
    rho[1] -= 1e-6


PERTURB = {
    "simulate": _edit_energy_column,
    "gibbs": _edit_json("gibbs.json", lambda d: _shift_mass(d["equilibria"][0]["density"])),
    "rates": _edit_json("rates.json", lambda d: d.update(lambda_fisher=d["lambda_fisher"] * (1 + 1e-6))),
    "lsi": _edit_json("lsi.json", lambda d: d.update(lambda_hat=d["lambda_hat"] * (1 + 1e-6))),
    "decompose": _edit_json("hodge.json", lambda d: d["rotational_field"][0].__setitem__(2, d["rotational_field"][0][2] + 1e-6)),
    "w2": _edit_json("w2.json", lambda d: d.update(distance=d["distance"] * 1.001, action=d["action"] * 1.001**2)),
}


@pytest.mark.parametrize("command", sorted(PERTURB))
def test_perturbed_output_fails_checks(tmp_path, command):
    cfg = _configs()[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    assert checks.CHECKS[command](cfg, out) == []
    PERTURB[command](out)
    assert checks.CHECKS[command](cfg, out) != []


def test_w2_relations_catch_asymmetry_and_triangle_excess():
    assert checks.check_w2_relations([["symmetry", "ab", "ba"]], {"ab": 1.0, "ba": 1.0005}) == []
    assert checks.check_w2_relations([["symmetry", "ab", "ba"]], {"ab": 1.0, "ba": 1.01}) != []
    assert checks.check_w2_relations([["triangle", "ab", "bc", "ac"]], {"ab": 1.0, "bc": 1.0, "ac": 2.01}) != []
