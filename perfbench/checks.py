"""Output checks that do not reuse the package's own solving or alignment code.

Instances are read straight from the JSON files a dataset directory holds
and turned into dense numpy arrays here. Optima come from
``scipy.optimize.milp`` and assignments from
``scipy.optimize.linear_sum_assignment``. Every check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

# Row, bound and integrality tolerance: the feasibility tolerance the package
# documents for its solutions (1e-6).
ROW_TOL = 1e-6
# milp accepts points that violate a row by up to its own feasibility
# tolerance (1e-6), and each unit of row violation can move the objective by
# up to the largest |c_j|; 1e-6 * (1 + sum |c|) bounds that drift.
OBJ_REL = 1e-6
# Two evaluations of one objective or one alignment cost in float64.
EXACT_TOL = 1e-9
# The alignment loss clips predictions into [BCE_CLIP, 1 - BCE_CLIP]; this is
# part of the loss's definition, not a tolerance.
BCE_CLIP = 1e-7


@dataclass
class Problem:
    name: str
    c: np.ndarray
    a: np.ndarray  # dense m x n
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integral: np.ndarray  # bool
    binary: np.ndarray  # bool
    grid: np.ndarray | None  # full symmetry grid, p x q
    group: str | None

    @property
    def obj_tol(self) -> float:
        return OBJ_REL * (1.0 + float(np.abs(self.c).sum()))

    @property
    def binary_grid(self) -> np.ndarray | None:
        """Grid rows made only of binaries: the rows the alignment acts on."""
        if self.grid is None:
            return None
        rows = [row for row in self.grid if self.binary[row].all()]
        return np.asarray(rows, dtype=np.intp) if rows else None


def problem_from_doc(doc: dict) -> Problem:
    n = len(doc["vars"])
    cons = doc["constraints"]
    a = np.zeros((len(cons), n))
    lo = np.full(len(cons), -np.inf)
    hi = np.full(len(cons), np.inf)
    for j, con in enumerate(cons):
        for idx, val in con["coeffs"]:
            a[j, int(idx)] += float(val)
        rhs = float(con["rhs"])
        if con["sense"] in ("LE", "EQ"):
            hi[j] = rhs
        if con["sense"] in ("GE", "EQ"):
            lo[j] = rhs
    kinds = [v["kind"] for v in doc["vars"]]
    sym = doc.get("symmetry")
    return Problem(
        doc["name"],
        np.asarray(doc["objective"], dtype=float),
        a,
        lo,
        hi,
        np.asarray([float(v["lb"]) for v in doc["vars"]]),
        np.asarray([float(v["ub"]) for v in doc["vars"]]),
        np.asarray([k in ("binary", "integer") for k in kinds]),
        np.asarray([k == "binary" for k in kinds]),
        None if sym is None else np.asarray(sym["grid"], dtype=np.intp),
        None if sym is None else sym["kind"],
    )


def read_problem(data_dir: str, name: str) -> Problem:
    with open(os.path.join(data_dir, "instances", name + ".json"), encoding="utf-8") as fh:
        return problem_from_doc(json.load(fh))


def read_label(data_dir: str, name: str) -> dict:
    with open(os.path.join(data_dir, "labels", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def violation(p: Problem, x) -> float:
    """Largest row, bound or integrality violation of x."""
    x = np.asarray(x, dtype=float)
    act = p.a @ x
    worst = max(
        float(np.max(p.row_lo - act, initial=0.0)),
        float(np.max(act - p.row_hi, initial=0.0)),
        float(np.max(p.lb - x, initial=0.0)),
        float(np.max(x - p.ub, initial=0.0)),
    )
    if p.integral.any():
        xi = x[p.integral]
        worst = max(worst, float(np.max(np.abs(xi - np.round(xi)))))
    return worst


def milp_solve(p: Problem, pins: dict | None = None, extra_row=None):
    """(status, objective) from scipy's milp; pins fix variables, extra_row adds coeffs <= rhs."""
    lb, ub = p.lb.copy(), p.ub.copy()
    for idx, val in (pins or {}).items():
        lb[idx] = ub[idx] = val
    a, lo, hi = p.a, p.row_lo, p.row_hi
    if extra_row is not None:
        coeffs, rhs = extra_row
        row = np.zeros(len(p.c))
        for idx, val in coeffs:
            row[idx] += val
        a = np.vstack([a, row])
        lo = np.append(lo, -np.inf)
        hi = np.append(hi, rhs)
    # Rows scaled by 10 have the same feasible set and optimum, and hold
    # HiGHS's absolute row tolerance (1e-6) to 1e-7 in the rows' own units.
    # Unscaled, milp's optimum drifts up to 1e-6 from the exact one on
    # item_placement, and some instances end in a solve error (status 4)
    # because the point found violates a row by 1e-6 after postsolve. The
    # unscaled solve is the fallback.
    for scale in (10.0, 1.0):
        res = milp(
            p.c,
            integrality=p.integral.astype(int),
            bounds=Bounds(lb, ub),
            constraints=LinearConstraint(a * scale, lo * scale, hi * scale),
            options={"time_limit": 60.0},
        )
        if res.status != 4:
            break
    status = {0: "optimal", 2: "infeasible"}.get(res.status, f"milp_status_{res.status}")
    return status, (float(res.fun) if res.status == 0 else None)


def random_group_element(p: Problem, rng) -> np.ndarray:
    if p.group != "symmetric":
        raise ValueError(f"no element sampler for group {p.group!r}")
    q = p.grid.shape[1]
    perm = rng.permutation(q)
    while q > 1 and np.array_equal(perm, np.arange(q)):
        perm = rng.permutation(q)
    return perm


def check_label(p: Problem, label: dict, rng) -> list[str]:
    """Label satisfies every row, is optimal per milp, and its orbit stays optimal."""
    x = np.asarray(label["values"], dtype=float)
    if x.shape != p.c.shape:
        return [f"{p.name}: label has {x.size} values, instance {p.c.size}"]
    out = []
    viol = violation(p, x)
    if viol > ROW_TOL:
        out.append(f"{p.name}: label violates a row, bound or integrality by {viol:.3g}")
    obj = float(p.c @ x)
    if abs(obj - float(label["objective"])) > EXACT_TOL * (1.0 + abs(obj)):
        out.append(f"{p.name}: stored objective {label['objective']} != c.x {obj}")
    status, ref = milp_solve(p)
    if status != "optimal":
        out.append(f"{p.name}: milp reports {status}")
    elif abs(obj - ref) > p.obj_tol:
        out.append(f"{p.name}: label objective {obj} != milp optimum {ref} (tol {p.obj_tol:.2g})")
    if p.grid is not None:
        perm = random_group_element(p, rng)
        y = x.copy()
        y[p.grid] = x[p.grid[:, perm]]
        viol = violation(p, y)
        if viol > ROW_TOL:
            out.append(f"{p.name}: label permuted by {perm.tolist()} violates by {viol:.3g}")
        if abs(float(p.c @ y) - obj) > EXACT_TOL * (1.0 + abs(obj)):
            out.append(f"{p.name}: label permuted by {perm.tolist()} changes the objective")
    return out


def bce_cost_matrix(xhat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W[a, b]: cross-entropy of label column a placed at prediction slot b."""
    xh = np.clip(np.asarray(xhat, dtype=float), BCE_CLIP, 1.0 - BCE_CLIP)
    x = np.asarray(x, dtype=float)
    q = x.shape[1]
    w = np.empty((q, q))
    for a in range(q):
        for b in range(q):
            w[a, b] = -np.sum(x[:, a] * np.log(xh[:, b]) + (1.0 - x[:, a]) * np.log(1.0 - xh[:, b]))
    return w


def check_alignment(name: str, xhat, x, mapping, claimed_cost: float) -> list[str]:
    """The claimed permutation costs what it says, and nothing cheaper exists."""
    w = bce_cost_matrix(xhat, x)
    rows, cols = linear_sum_assignment(w)
    best = float(w[rows, cols].sum())
    tol = EXACT_TOL * max(1.0, abs(best))
    own = float(sum(w[mapping[b], b] for b in range(len(mapping))))
    out = []
    if abs(own - claimed_cost) > tol:
        out.append(f"{name}: permutation {tuple(mapping)} costs {own}, reported {claimed_cost}")
    if abs(claimed_cost - best) > tol:
        out.append(f"{name}: alignment cost {claimed_cost} but the assignment optimum is {best}")
    return out


def check_repair_point(p: Problem, x, label_obj: float, pins=None, ball=None) -> list[str]:
    """Point satisfies the rows, its pins and ball, and is no better than the optimum."""
    x = np.asarray(x, dtype=float)
    out = []
    viol = violation(p, x)
    if viol > ROW_TOL:
        out.append(f"{p.name}: repair point violates a row, bound or integrality by {viol:.3g}")
    obj = float(p.c @ x)
    if obj < label_obj - p.obj_tol:
        out.append(f"{p.name}: repair objective {obj} beats the optimal label {label_obj}")
    for idx, val in (pins or {}).items():
        if abs(x[idx] - val) > ROW_TOL:
            out.append(f"{p.name}: repair point moves pinned var {idx} to {x[idx]}")
    if ball is not None:
        center, radius = ball
        dist = sum(abs(x[i] - v) for i, v in center.items())
        if dist > radius + ROW_TOL:
            out.append(f"{p.name}: repair point at Hamming distance {dist} > radius {radius}")
    return out


def confirm_infeasible(p: Problem, pins=None, extra_row=None) -> list[str]:
    status, obj = milp_solve(p, pins, extra_row)
    if status == "infeasible":
        return []
    return [f"{p.name}: repair reported infeasible but milp finds {status} {obj}"]


# ---------------------------------------------------------------------------
# Self-test: each check must reject a planted fault.


def _toy_problem() -> Problem:
    """Assign 3 items to 2 identical bins of capacity 4 (sizes 2, 2, 3); minimize a spread term."""
    sizes = (2.0, 2.0, 3.0)
    doc = {"name": "selftest", "vars": [], "objective": [], "constraints": []}
    for _ in range(6):
        doc["vars"].append({"kind": "binary", "lb": 0.0, "ub": 1.0})
        doc["objective"].append(0.0)
    doc["vars"].append({"kind": "continuous", "lb": 0.0, "ub": 10.0})
    doc["objective"].append(1.0)
    for i in range(3):
        one_bin = [[2 * i, 1.0], [2 * i + 1, 1.0]]
        doc["constraints"].append({"coeffs": one_bin, "sense": "EQ", "rhs": 1.0})
    for j in range(2):
        load = [[2 * i + j, sizes[i]] for i in range(3)]
        doc["constraints"].append({"coeffs": load, "sense": "LE", "rhs": 4.0})
        doc["constraints"].append({"coeffs": load + [[6, -1.0]], "sense": "LE", "rhs": 0.0})
    doc["symmetry"] = {"kind": "symmetric", "grid": [[0, 1], [2, 3], [4, 5]]}
    return problem_from_doc(doc)


def self_test() -> list[str]:
    """Plant a corrupted label, a non-optimal permutation and an infeasible repair point."""
    rng = np.random.default_rng(0)
    out = []
    p = _toy_problem()
    good = [1, 0, 1, 0, 0, 1, 4.0]  # bin loads 4 and 3: the optimum
    label = {"values": good, "objective": 4.0}
    found = check_label(p, label, rng)
    if found:
        out.append("self-test: the optimal toy label was rejected: " + "; ".join(found))
    bad = dict(label, values=[0, 0, 1, 0, 0, 1, 4.0])  # item 0 in no bin
    if not check_label(p, bad, rng):
        out.append("self-test: a corrupted label passed")
    if check_repair_point(p, good, 4.0):
        out.append("self-test: a feasible repair point was rejected")
    if not check_repair_point(p, [1, 0, 1, 0, 1, 0, 7.0], 4.0):  # bin 0 holds 7 > 4
        out.append("self-test: an infeasible repair point passed")
    if confirm_infeasible(p, pins={0: 0.0, 1: 0.0}):
        out.append("self-test: pins that leave item 0 unplaced were not confirmed infeasible")
    if not confirm_infeasible(p, pins={0: 1.0}):
        out.append("self-test: a feasible pin set was confirmed infeasible")

    xhat = rng.uniform(0.05, 0.95, size=(4, 5))
    x = (rng.uniform(size=(4, 5)) < 0.5).astype(float)
    w = bce_cost_matrix(xhat, x)
    rows, cols = linear_sum_assignment(w)
    opt = np.empty(5, dtype=int)
    opt[cols] = rows
    best = float(w[rows, cols].sum())
    if check_alignment("selftest", xhat, x, opt.tolist(), best):
        out.append("self-test: the optimal permutation was rejected")
    worse = None
    for i in range(5):
        for j in range(i + 1, 5):
            cand = opt.copy()
            cand[[i, j]] = cand[[j, i]]
            cost = float(sum(w[cand[b], b] for b in range(5)))
            if cost > best + 1e-6:
                worse = (cand.tolist(), cost)
                break
        if worse:
            break
    if worse is None or not check_alignment("selftest", xhat, x, worse[0], worse[1]):
        out.append("self-test: a non-optimal permutation passed")
    return out
