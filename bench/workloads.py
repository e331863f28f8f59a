"""Seeded generation of the benchmark's graphfpe configs.

Each workload is a fixed list of CLI commands. Graph families, sizes and
command order are the same for every seed, so a pass does the same kind and
amount of work whatever the seed. In flow and certify the seed draws the
numbers inside each config (edge weights, V, W, densities); in transport it
renumbers the nodes of fixed problems (see W2_DATA_SEED). Only numpy is used.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("flow", "certify", "transport")

# distance to the Gibbs state that `simulate` must reach, and the margin
# its t_end leaves over the asymptotic-rate estimate
FLOW_TARGET = 1e-6
FLOW_T_MARGIN = 1.2


# -- graphs (1-based edge lists, as the config format wants) -----------------

def ring(rng, n, w_lo=0.75, w_hi=1.25):
    return [[i + 1, (i + 1) % n + 1, float(rng.uniform(w_lo, w_hi))] for i in range(n)]


def path(rng, n, w_lo=0.75, w_hi=1.25):
    return [[i + 1, i + 2, float(rng.uniform(w_lo, w_hi))] for i in range(n - 1)]


def grid(rng, rows, cols, w_lo=0.75, w_hi=1.25):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append([v, v + 1, float(rng.uniform(w_lo, w_hi))])
            if r + 1 < rows:
                edges.append([v, v + cols, float(rng.uniform(w_lo, w_hi))])
    return edges


def random_connected(rng, n, extra, w_lo=0.75, w_hi=1.25):
    """Random recursive spanning tree plus `extra` distinct chords."""
    used = set()
    edges = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        used.add((i, j))
        edges.append([i + 1, j + 1, float(rng.uniform(w_lo, w_hi))])
    while len(edges) < n - 1 + extra:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (i, j) not in used:
            used.add((i, j))
            edges.append([i + 1, j + 1, float(rng.uniform(w_lo, w_hi))])
    return edges


def laplacian(n, edges, theta=None):
    """sum_e w_e theta_e (e_i - e_j)(e_i - e_j)^T; theta = 1 gives the graph Laplacian."""
    e = np.asarray(edges, dtype=float)
    i, j = e[:, 0].astype(int) - 1, e[:, 1].astype(int) - 1
    c = e[:, 2] * (1.0 if theta is None else np.asarray(theta))
    L = np.zeros((n, n))
    np.add.at(L, (i, i), c)
    np.add.at(L, (j, j), c)
    np.add.at(L, (i, j), -c)
    np.add.at(L, (j, i), -c)
    return L


# -- models and densities -----------------------------------------------------

def convex_model(rng, n, v_max=0.5, w_scale=0.35, beta=1.0):
    """Symmetric W ~ N(0, w_scale^2)/sqrt(n), V ~ U(-v_max, v_max), lambda_min(W) + beta >= beta/2."""
    while True:
        A = rng.normal(0.0, w_scale, size=(n, n)) / np.sqrt(n)
        W = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(W)[0] + beta >= 0.5 * beta:
            return {"beta": beta, "V": rng.uniform(-v_max, v_max, n).tolist(), "W": W.tolist()}


def well_model(rng, n, wells, depth=6.0):
    """Non-convex model: one attractive block of W per well, so each block holds an equilibrium."""
    W = np.zeros((n, n))
    for blk in np.array_split(np.arange(n), wells):
        W[np.ix_(blk, blk)] = -depth * rng.uniform(0.9, 1.1)
    return {"beta": 1.0, "V": rng.uniform(-0.05, 0.05, n).tolist(), "W": W.tolist()}


def corner_starts(n):
    """Mass 0.9 on one node and the rest spread evenly, one start per node."""
    starts = np.full((n, n), 0.1 / (n - 1))
    np.fill_diagonal(starts, 0.9)
    return starts.tolist()


def interior(rng, n, floor_share=0.5):
    """floor_share of the mass spread evenly, the rest flat-Dirichlet."""
    x = floor_share / n + (1.0 - floor_share) * rng.dirichlet(np.ones(n))
    return (x / x.sum()).tolist()


def _gibbs(model, n):
    W, V, beta = np.asarray(model["W"]), np.asarray(model["V"]), model["beta"]
    v = np.full(n, 1.0 / n)
    for _ in range(100_000):
        a = -(W @ v + V) / beta
        g = np.exp(a - a.max())
        g /= g.sum()
        if np.max(np.abs(g - v)) < 1e-14:
            break
        v = 0.5 * v + 0.5 * g
    return v


def flow_t_end(model, n, edges, rho0):
    """Time for the flow to come within FLOW_TARGET of Gibbs, from the asymptotic rate."""
    model = {"W": np.zeros((n, n)), **model}
    rho_inf = _gibbs(model, n)
    theta = [0.5 * (rho_inf[i - 1] + rho_inf[j - 1]) for i, j, _ in edges]
    L = laplacian(n, edges, theta)
    lam_h, Q = np.linalg.eigh(np.asarray(model["W"]) + model["beta"] * np.diag(1.0 / rho_inf))
    h_half = (Q * np.sqrt(lam_h)) @ Q.T
    lam = np.linalg.eigvalsh(h_half @ L @ h_half)[1]  # lambda_sec(L H), the asymptotic rate
    gap = float(np.max(np.abs(np.asarray(rho0) - rho_inf)))
    return round(FLOW_T_MARGIN * np.log(gap / FLOW_TARGET) / lam, 3)


# -- workloads ------------------------------------------------------------------

# Above this size flow models leave W out (zero): jsonschema takes about 0.5 s
# to validate a dense 200 x 200 W on every command, which would make flow
# time config validation rather than the flow. W = 0 still passes the
# convexity certificate, and the solvers multiply by it all the same.
DENSE_W_MAX_N = 100


def flow_model(rng, n):
    model = convex_model(rng, n)
    if n > DENSE_W_MAX_N:
        del model["W"]
    return model


def _flow(seed):
    plan = [
        ("ring", 10), ("ring", 16), ("ring", 24),
        ("grid", (4, 5)), ("grid", (6, 8)), ("grid", (10, 20)),
        ("random", 50), ("random", 100), ("random", 200),
    ]
    cmds = []
    for k, (family, size) in enumerate(plan):
        rng = np.random.default_rng([seed, k])
        if family == "ring":
            n, edges = size, ring(rng, size)
        elif family == "grid":
            n, edges = size[0] * size[1], grid(rng, *size)
        else:
            n, edges = size, random_connected(rng, size, extra=size)
        model = flow_model(rng, n)
        rho0 = interior(rng, n)
        cfg = {
            "graph": {"n": n, "edges": edges},
            "model": model,
            "simulate": {"rho0": rho0, "t_end": flow_t_end(model, n, edges, rho0)},
        }
        cmds.append((f"simulate-{family}-{n}", "simulate", [], cfg))
    for k, n in enumerate((100, 200), start=len(plan)):
        rng = np.random.default_rng([seed, k])
        cfg = {
            "graph": {"n": n, "edges": random_connected(rng, n, extra=n)},
            "model": flow_model(rng, n),
            "gibbs": {"starts": [interior(rng, n, 0.2) for _ in range(40)]},
        }
        cmds.append((f"gibbs-random-{n}", "gibbs", [], cfg))
    return cmds, []


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one config per command into out_dir; return the commands and the
    relations (W2 symmetry and triangle triples) that join their outputs."""
    builders = {"flow": _flow, "certify": _certify, "transport": _transport}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    commands, relations = builders[workload](seed)
    manifest = []
    for cid, command, flags, cfg in commands:
        name = f"{cid}.json"
        (out_dir / name).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        manifest.append({
            "id": cid,
            "command": command,
            "flags": flags,
            "config": name,
            "known_fault": cid in KNOWN_FAULTS,
        })
    return {"workload": workload, "seed": seed, "commands": manifest, "relations": relations}


# The one command kept although it fails today: `rates` on a 40-node ring
# overflows in (r + 1) ** 2 because the invariant-region floor m is tiny. Its
# config does not depend on the seed, so it fails on every run alike.
KNOWN_FAULTS = ("rates-ring-40-overflow",)


def _overflow_ring40():
    rng = np.random.default_rng(40)
    n = 40
    A = rng.normal(0.0, 0.35, size=(n, n)) / np.sqrt(n)
    return {
        "graph": {"n": n, "edges": [[i + 1, (i + 1) % n + 1, 1.0] for i in range(n)]},
        "model": {"beta": 1.0, "V": rng.uniform(-1.0, 1.0, n).tolist(), "W": (0.5 * (A + A.T)).tolist()},
        "rates": {"rho0": interior(rng, n)},
    }


def _certify(seed):
    rate_plan = [("ring", 5), ("path", 8), ("grid", (3, 4)), ("random", 20), ("ring", 28), ("grid", (6, 6))]
    rngs = (np.random.default_rng([seed, k]) for k in range(len(rate_plan) + 6))
    cmds = []
    for (family, size), rng in zip(rate_plan, rngs):
        if family == "ring":
            n, edges = size, ring(rng, size)
        elif family == "path":
            n, edges = size, path(rng, size)
        elif family == "grid":
            n, edges = size[0] * size[1], grid(rng, *size)
        else:
            n, edges = size, random_connected(rng, size, extra=size // 2)
        cfg = {"graph": {"n": n, "edges": edges}, "model": convex_model(rng, n), "rates": {"rho0": interior(rng, n)}}
        cmds.append((f"rates-{family}-{n}", "rates", [], cfg))
    rng, n = next(rngs), 16
    # explicit corner starts: from the uniform start the Gibbs iteration
    # circles the symmetric saddle until max_iter
    cfg = {"graph": {"n": n, "edges": random_connected(rng, n, extra=n)}, "model": well_model(rng, n, wells=4),
           "rates": {"rho0": interior(rng, n), "starts": corner_starts(n)}}
    cmds.append((f"rates-equilibrium-{n}", "rates", ["--equilibrium"], cfg))
    for (n, count), rng in zip(((10, 3000), (20, 2000)), rngs):
        cfg = {"graph": {"n": n, "edges": random_connected(rng, n, extra=n)}, "model": convex_model(rng, n),
               "lsi": {"count": count, "min_mass": 1e-4}, "seed": int(rng.integers(0, 2**31))}
        cmds.append((f"lsi-random-{n}", "lsi", [], cfg))
    for n, rng in zip((20, 40, 60), rngs):
        edges = random_connected(rng, n, extra=n)
        field = [[i, j, float(rng.normal())] for i, j, _ in edges]
        cfg = {"graph": {"n": n, "edges": edges}, "model": {"beta": 1.0},
               "decompose": {"rho": interior(rng, n), "field": field}}
        cmds.append((f"decompose-random-{n}", "decompose", [], cfg))
    cmds.append((KNOWN_FAULTS[0], "rates", [], _overflow_ring40()))
    return cmds, []


def wave(rng, n, phase, amp=0.5, jitter=0.05):
    """Smooth bump 1 + amp cos(2 pi i / n + phase), each entry scaled by U(1 +- jitter)."""
    x = (1.0 + amp * np.cos(2.0 * np.pi * np.arange(n) / n + phase)) * rng.uniform(1 - jitter, 1 + jitter, n)
    return x / x.sum()


def _relabel(rng, n, edges, *densities):
    """The same problem under a random node numbering."""
    perm = rng.permutation(n)  # old node i becomes node perm[i]
    new_edges = [[int(perm[i - 1]) + 1, int(perm[j - 1]) + 1, w] for i, j, w in edges]
    rng.shuffle(new_edges)
    out = []
    for rho in densities:
        x = np.empty(n)
        x[perm] = rho
        out.append(x.tolist())
    return new_edges, out


# w2 problems: (label, n, edge builder, K). Each pair runs in both directions.
W2_PAIRS = [
    ("two-K4", 2, lambda rng: [[1, 2, float(rng.uniform(0.5, 2.0))]], 4),
    ("two-K8", 2, lambda rng: [[1, 2, float(rng.uniform(0.5, 2.0))]], 8),
    ("path3-K8", 3, lambda rng: path(rng, 3, 0.9, 1.1), 8),
    ("path4-K4", 4, lambda rng: path(rng, 4, 0.9, 1.1), 4),
    ("ring4-K8", 4, lambda rng: ring(rng, 4, 0.9, 1.1), 8),
    ("ring5-K4", 5, lambda rng: ring(rng, 5, 0.9, 1.1), 4),
]
W2_TOL = 1e-6
# The W2 problems themselves are fixed and the seed only renumbers their
# nodes: the BB iteration count jumps by 10-20% under any change of the
# data, which at this command count would swamp a change in speed, while a
# renumbering keeps it.
W2_DATA_SEED = 2017


def _w2_cfg(n, edges, rho0, rho1, K):
    return {"graph": {"n": n, "edges": edges}, "model": {"beta": 1.0},
            "w2": {"rho0": rho0, "rho1": rho1, "K": K, "grad_tol": W2_TOL}}


def _transport(seed):
    cmds, relations = [], []
    for k, (label, n, make_edges, K) in enumerate(W2_PAIRS):
        data = np.random.default_rng([W2_DATA_SEED, k])
        edges = make_edges(data)
        edges, (a, b) = _relabel(np.random.default_rng([seed, k]), n, edges, wave(data, n, 0.0), wave(data, n, np.pi))
        cmds.append((f"w2-{label}-ab", "w2", [], _w2_cfg(n, edges, a, b, K)))
        cmds.append((f"w2-{label}-ba", "w2", [], _w2_cfg(n, edges, b, a, K)))
        relations.append(["symmetry", f"w2-{label}-ab", f"w2-{label}-ba"])
    for k, K in enumerate((4, 8), start=len(W2_PAIRS)):
        data = np.random.default_rng([W2_DATA_SEED, k])
        edges = [[1, 2, float(data.uniform(0.9, 1.1))], [2, 3, float(data.uniform(0.9, 1.1))],
                 [1, 3, float(data.uniform(0.9, 1.1))]]
        edges, (a, b, c) = _relabel(np.random.default_rng([seed, k]), 3, edges,
                                    *(wave(data, 3, phase) for phase in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)))
        ids = {}
        for x, y, name in ((a, b, "ab"), (b, a, "ba"), (b, c, "bc"), (a, c, "ac")):
            ids[name] = f"w2-triangle-K{K}-{name}"
            cmds.append((ids[name], "w2", [], _w2_cfg(3, edges, x, y, K)))
        relations.append(["symmetry", ids["ab"], ids["ba"]])
        relations.append(["triangle", ids["ab"], ids["bc"], ids["ac"]])
    return cmds, relations
