"""Output checks for the benchmark, written with numpy and scipy only.

Every check recomputes a quantity from the config the program was given, or
tests a property the output must have; none of them imports graphfpe or
replays its algorithms. Each ``check_*`` function returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import FLOW_TARGET, laplacian

GIBBS_RESIDUAL = 1e-10  # softmin residual an equilibrium must meet
W2_REL = 1e-3  # slack of symmetry and the triangle inequality


class Problem(list):
    """Collects failed conditions as readable lines."""

    def require(self, ok, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, got, want, rel: float, what: str, abs_tol: float = 0.0) -> None:
        got, want = float(got), float(want)
        if not abs(got - want) <= rel * max(abs(got), abs(want)) + abs_tol:
            self.append(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


# -- the model, from the config ----------------------------------------------

class Model:
    def __init__(self, cfg: dict):
        g = cfg["graph"]
        self.n = g["n"]
        self.edges = [(int(i), int(j), float(w)) for i, j, w in g["edges"]]
        m = cfg["model"]
        self.beta = float(m["beta"])
        self.V = np.asarray(m.get("V", np.zeros(self.n)), dtype=float)
        self.W = np.asarray(m.get("W", np.zeros((self.n, self.n))), dtype=float)
        tail = np.array([i - 1 for i, _, _ in self.edges])
        head = np.array([j - 1 for _, j, _ in self.edges])
        self.tail, self.head = tail, head
        self.weights = np.array([w for _, _, w in self.edges])
        # gradient rows sqrt(w_e) (e_i - e_j), the convention of the README
        self.D = np.zeros((len(self.edges), self.n))
        self.D[np.arange(len(self.edges)), tail] = np.sqrt(self.weights)
        self.D[np.arange(len(self.edges)), head] = -np.sqrt(self.weights)

    def theta(self, rho):
        return 0.5 * (rho[self.tail] + rho[self.head])

    def L(self, rho=None):
        return laplacian(self.n, self.edges, None if rho is None else self.theta(rho))

    def energy(self, rho):
        ent = np.sum(np.where(rho > 0, rho * np.log(np.where(rho > 0, rho, 1.0)), 0.0))
        return 0.5 * rho @ self.W @ rho + self.V @ rho + self.beta * ent

    def drift(self, rho):
        return self.W @ rho + self.V + self.beta * (np.log(rho) + 1.0)

    def fisher(self, rho):
        """F'(rho)^T L(rho) F'(rho) = sum_e w_e theta_e (F'_i - F'_j)^2, the energy production rate.

        Summed over edges: the quadratic form F'^T L F' cancels near equilibrium.
        """
        f = self.drift(rho)
        return float(np.sum(self.weights * self.theta(rho) * (f[self.tail] - f[self.head]) ** 2))

    def fisher_tol(self, rho):
        """Rounding bound on sqrt(fisher): drift differences carry ~1e-15 |F'| each."""
        return 1e-14 * max(1.0, float(np.max(np.abs(self.drift(rho))))) * np.sqrt(np.sum(self.weights * self.theta(rho)))

    def hessian(self, rho):
        return self.W + self.beta * np.diag(1.0 / rho)

    def softmin(self, rho):
        a = -(self.W @ rho + self.V) / self.beta
        g = np.exp(a - a.max())
        return g / g.sum()

    def residual(self, rho):
        return float(np.max(np.abs(self.softmin(rho) - rho)))

    def gibbs(self):
        """Fixed point of the softmin map by Newton's method on log rho.

        G(u) = u - log softmin(e^u); convex models have one root, and Newton
        from the damped-iteration start reaches it to rounding.
        """
        rho = np.full(self.n, 1.0 / self.n)
        for _ in range(200):
            rho = 0.5 * rho + 0.5 * self.softmin(rho)
        for _ in range(50):
            s = self.softmin(rho)
            # d log s / d log rho = -(I - 1 s^T) W diag(rho) / beta
            J = np.eye(self.n) + (np.eye(self.n) - np.outer(np.ones(self.n), s)) @ self.W * rho / self.beta
            u = np.log(rho) - np.linalg.solve(J, np.log(rho) - np.log(s))
            new = np.exp(u - u.max())
            new /= new.sum()
            if np.max(np.abs(new - rho)) <= 1e-15:
                rho = new
                break
            rho = new
        return rho


def _load(path: Path) -> dict:
    return json.loads(path.read_text("utf-8"))


def _second_smallest_LH(model: Model, rho) -> float:
    """lambda_sec of L(rho) Hess F(rho) as the pencil L w = lambda Hess^-1 w (Hess SPD)."""
    vals = scipy.linalg.eigh(model.L(rho), np.linalg.inv(model.hessian(rho)), eigvals_only=True)
    return float(vals[1])


# -- one check per command ------------------------------------------------------

def check_simulate(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    summary = _load(out / "summary.json")
    p.require(summary.get("completed") is True, "simulate did not complete")
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    p.require(header == ["t", *[f"rho_{i + 1}" for i in range(m.n)], "energy", "dissipation"],
              f"unexpected trajectory header {header[:3]}...")
    t, rho, en, dis = data[:, 0], data[:, 1:1 + m.n], data[:, -2], data[:, -1]
    p.require(np.all(np.diff(t) > 0), "times do not increase")
    p.close(t[-1], cfg["simulate"]["t_end"], 1e-12, "final time")
    p.require(np.all(np.abs(rho.sum(axis=1) - 1.0) <= 1e-12), "a recorded density does not have mass 1")
    p.require(np.all(rho > 0), "a recorded density is not positive")
    p.require(np.all(np.diff(en) <= 1e-10 * np.maximum(1.0, np.abs(en[:-1]))), "energy increases")
    for k in range(len(t)):
        p.close(en[k], m.energy(rho[k]), 1e-11, f"energy at t={t[k]:.17g}", abs_tol=1e-13)
        # compared as sqrt(-dissipation), whose rounding error does not grow near equilibrium
        p.require(dis[k] <= 0, f"positive dissipation at t={t[k]:.17g}")
        p.close(np.sqrt(max(-dis[k], 0.0)), np.sqrt(m.fisher(rho[k])), 1e-8,
                f"sqrt(-dissipation) at t={t[k]:.17g}", abs_tol=m.fisher_tol(rho[k]))
        if len(p) > 5:
            break
    gibbs = m.gibbs()
    dist = float(np.max(np.abs(rho[-1] - gibbs)))
    p.require(dist <= FLOW_TARGET, f"final state is {dist:.3e} from the Gibbs state")
    p.require(np.array_equal(np.asarray(summary["final_density"]), rho[-1]), "summary and trajectory disagree")
    return p


def check_gibbs(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    res = _load(out / "gibbs.json")
    p.require(res.get("converged") is True, "gibbs did not converge")
    eqs = res.get("equilibria", [])
    p.require(len(eqs) >= 1, "no equilibrium reported")
    for e in eqs:
        rho = np.asarray(e["density"])
        p.require(abs(rho.sum() - 1.0) <= 1e-12 and rho.min() > 0, "equilibrium is not an interior density")
        r = m.residual(rho)
        p.require(r <= GIBBS_RESIDUAL, f"equilibrium softmin residual {r:.3e}")
        p.close(e["energy"], m.energy(rho), 1e-11, "equilibrium energy", abs_tol=1e-13)
    if np.linalg.eigvalsh(m.W)[0] + m.beta > 0:
        # certified convex: one equilibrium, the benchmark's own Gibbs state
        p.require(len(eqs) == 1, f"{len(eqs)} equilibria for a convex model")
        if eqs:
            gap = float(np.max(np.abs(np.asarray(eqs[0]["density"]) - m.gibbs())))
            p.require(gap <= 1e-9, f"equilibrium is {gap:.3e} from the Gibbs state")
    return p


def check_rates(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    res = _load(out / "rates.json")
    if "equilibria" in res:
        return _check_equilibria(m, res, p)
    lam_hat = np.linalg.eigvalsh(m.L())
    p.close(res["lambda_sec_hat"], lam_hat[1], 1e-9, "lambda_sec_hat")
    p.close(res["lambda_max_hat"], lam_hat[-1], 1e-9, "lambda_max_hat")
    p.close(res["lambda_min_hess"], np.linalg.eigvalsh(m.W)[0] + m.beta, 1e-9, "lambda_min_hess")
    rho_inf = np.asarray(res["rho_inf"])
    r = m.residual(rho_inf)
    p.require(r <= GIBBS_RESIDUAL, f"rho_inf softmin residual {r:.3e}")
    lam = _second_smallest_LH(m, rho_inf)
    p.close(res["lambda_asymptotic"], lam, 1e-8, "lambda_asymptotic")
    # for symmetric W the symmetrized Jacobian is twice the Hessian
    p.close(res["lambda_fisher"], 2.0 * lam, 1e-8, "lambda_fisher")
    C = float(res["C"])
    p.require(0.0 < C <= 2.0 * lam, f"C={C!r} is not in (0, 2 lambda_asymptotic]")
    return p


def _check_equilibria(m: Model, res: dict, p: Problem) -> list[str]:
    eqs = res["equilibria"]
    p.require(len(eqs) >= 2, f"{len(eqs)} equilibria for a model with several wells")
    for e in eqs:
        rho = np.asarray(e["density"])
        r = m.residual(rho)
        p.require(r <= GIBBS_RESIDUAL, f"equilibrium softmin residual {r:.3e}")
        H = m.hessian(rho)
        p.require(e["hessian_positive"] == bool(np.linalg.eigvalsh(H)[0] > 0), "hessian_positive flag is wrong")
        # nonzero spectrum of the (non-symmetric) product L H; drop the kernel mode
        vals = np.sort_complex(scipy.linalg.eigvals(m.L(rho) @ H))
        vals = np.delete(vals, int(np.argmin(np.abs(vals))))
        p.require(np.max(np.abs(vals.imag)) <= 1e-8 * np.max(np.abs(vals)), "L H has a complex spectrum")
        p.close(e["lambda_asymptotic"], vals.real.min(), 1e-7, "equilibrium lambda_asymptotic",
                abs_tol=1e-9)
        sym_jac = m.W + m.W.T + 2.0 * m.beta * np.diag(1.0 / rho)
        if np.linalg.eigvalsh(sym_jac)[0] > 0:
            p.require(e["lambda_fisher"] is not None, "lambda_fisher missing for a positive Jacobian")
            if e["lambda_fisher"] is not None:
                p.close(e["lambda_fisher"], 2.0 * e["lambda_asymptotic"], 1e-8, "equilibrium lambda_fisher")
        else:
            p.require(e["lambda_fisher"] is None, "lambda_fisher reported for an indefinite Jacobian")
    return p


def check_lsi(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    res = _load(out / "lsi.json")
    rho_inf = np.asarray(res["rho_inf"])
    r = m.residual(rho_inf)
    p.require(r <= GIBBS_RESIDUAL, f"rho_inf softmin residual {r:.3e}")
    worst = np.asarray(res["worst_density"])
    p.require(abs(worst.sum() - 1.0) <= 1e-12, "worst_density does not have mass 1")
    p.require(worst.min() >= cfg["lsi"]["min_mass"], "worst_density is below min_mass")
    gap = m.energy(worst) - m.energy(rho_inf)
    p.require(gap > 0, "worst_density has no entropy gap")
    p.close(res["lambda_hat"], m.fisher(worst) / (2.0 * gap), 1e-9, "lambda_hat = I / 2H at worst_density")
    p.require(0 < res["samples_retained"] <= cfg["lsi"]["count"], "samples_retained out of range")
    return p


def check_decompose(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    res = _load(out / "hodge.json")
    rho = np.asarray(cfg["decompose"]["rho"], dtype=float)
    index = {(i, j): e for e, (i, j, _) in enumerate(m.edges)}

    def edge_values(entries):
        """[i, j, v] triples as values on the config's edge orientation."""
        vals = np.zeros(len(m.edges))
        for i, j, v in entries:
            if (i, j) in index:
                vals[index[(i, j)]] = v
            else:
                vals[index[(j, i)]] = -v
        return vals

    field = edge_values(cfg["decompose"]["field"])
    grad = edge_values(res["gradient_field"])
    rot = edge_values(res["rotational_field"])
    phi = np.asarray(res["potential"])
    scale = float(np.max(np.abs(field)))
    theta = m.theta(rho)
    p.require(np.max(np.abs(grad + rot - field)) <= 1e-12 * scale, "parts do not add up to the field")
    p.require(np.max(np.abs(m.D @ phi - grad)) <= 1e-10 * scale, "gradient part is not grad(potential)")
    div = m.D.T @ (theta * rot)
    p.require(np.max(np.abs(div)) <= 1e-10 * scale * np.max(theta), f"rotational part has divergence {np.max(np.abs(div)):.3e}")
    inner = float(np.sum(theta * grad * rot))
    norms = np.sqrt(np.sum(theta * grad**2) * np.sum(theta * rot**2))
    p.require(abs(inner) <= 1e-10 * max(norms, 1e-300), f"parts are not rho-orthogonal ({inner:.3e})")
    return p


def linear_path_action(m: Model, rho0, rho1, K: int) -> float:
    """Midpoint action of the straight segment rho0 -> rho1 on K pieces, with pinv."""
    d = (np.asarray(rho1) - np.asarray(rho0)) / K
    total = 0.0
    for k in range(K):
        mid = np.asarray(rho0) + (k + 0.5) * d
        total += float(d @ np.linalg.pinv(m.L(mid)) @ d) * K
    return total


def check_w2(cfg: dict, out: Path) -> list[str]:
    p = Problem()
    m = Model(cfg)
    res = _load(out / "w2.json")
    p.require(res["converged"] is True, "w2 did not converge")
    d = float(res["distance"])
    p.close(d * d, res["action"], 1e-12, "distance^2 = action")
    rho0, rho1, K = cfg["w2"]["rho0"], cfg["w2"]["rho1"], cfg["w2"]["K"]
    bound = linear_path_action(m, rho0, rho1, K)
    p.require(d * d <= bound * (1.0 + 1e-9), f"distance^2 {d * d!r} exceeds the linear path action {bound!r}")
    if m.n == 2:
        # theta = 1/2 on the only edge, so the metric is flat: d = |drho_1| sqrt(2 / w)
        p.close(d, abs(rho1[0] - rho0[0]) * np.sqrt(2.0 / m.weights[0]), 1e-6, "2-node closed form")
    return p


def check_w2_relations(relations, distance) -> list[str]:
    """Symmetry and triangle inequality across commands, within W2_REL."""
    p = Problem()
    for rel in relations:
        if rel[0] == "symmetry":
            a, b = distance[rel[1]], distance[rel[2]]
            p.require(abs(a - b) <= W2_REL * max(a, b), f"asymmetric: {rel[1]}={a!r}, {rel[2]}={b!r}")
        elif rel[0] == "triangle":
            ab, bc, ac = distance[rel[1]], distance[rel[2]], distance[rel[3]]
            p.require(ac <= (ab + bc) * (1.0 + W2_REL), f"triangle inequality fails: {rel[1:]} = {ab!r}, {bc!r}, {ac!r}")
    return p


CHECKS = {
    "simulate": check_simulate,
    "gibbs": check_gibbs,
    "rates": check_rates,
    "lsi": check_lsi,
    "decompose": check_decompose,
    "w2": check_w2,
}
