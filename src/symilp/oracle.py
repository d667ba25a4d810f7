"""Exact desk-scale ILP solving: feasibility checks, brute force, branch and bound.

This module plays the role a commercial solver would play at production
scale. It produces training labels and serves the repair heuristics. The
continuous relaxations are solved with HiGHS. Each solve builds one HiGHS
model of its rows on its first LP; a branch-and-bound node sets the model's
column bounds and re-runs it from a cold start, so every node returns the
LP solution scipy.optimize.linprog(method="highs") returns for the same
arguments. lp_relax calls linprog itself and is the reference for that
equivalence. The search layers on top (enumeration, depth-first branch and
bound with most-fractional branching) are deterministic, so repeated runs
yield identical labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from .instance import EQ, FEAS_TOL, GE, LE, IlpInstance, Solution

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT_REACHED = "limit_reached"

INT_TOL = 1e-6
LP_TOL = 1e-8
# Objectives within ABS_GAP of each other count as one optimum: B&B prunes
# a node whose bound comes within it of the incumbent and pools such ties.
ABS_GAP = 1e-9

BRUTE_FORCE_CAP = 2 ** 24


@dataclass(frozen=True)
class SolveLimits:
    time_limit_ms: float = 60_000.0
    node_limit: int = 200_000

    def __post_init__(self):
        if self.time_limit_ms <= 0 or self.node_limit <= 0:
            raise ValueError("limits must be positive")


@dataclass
class SolveResult:
    status: str
    solution: Solution | None
    bound: float
    nodes: int = 0
    wall_ms: float = 0.0
    lp_ms: float = 0.0  # time spent inside LP solves, a part of wall_ms


@dataclass(frozen=True)
class LpResult:
    status: str  # OPTIMAL / INFEASIBLE / UNBOUNDED / "error"
    value: float
    x: np.ndarray | None


def check_feasible(instance: IlpInstance, values) -> list[str]:
    """All bound, integrality and constraint violations at tolerance 1e-6."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (instance.num_vars,):
        raise ValueError(f"expected {instance.num_vars} values, got {vals.shape}")
    out: list[str] = []
    for i, var in enumerate(instance.vars):
        v = vals[i]
        if v < var.lb - FEAS_TOL or v > var.ub + FEAS_TOL:
            out.append(f"var {i}: value {v} outside [{var.lb}, {var.ub}]")
        if var.is_integral() and abs(v - round(v)) > INT_TOL:
            out.append(f"var {i}: value {v} not integral")
    sys_ = _DenseSystem.build(instance)
    lhs = sys_.a @ vals
    for j in sys_.rows_failing(lhs, lhs):
        op = ">" if sys_.le[j] else "<" if sys_.ge[j] else "!="
        out.append(f"constraint {j}: {lhs[j]} {op} {instance.constraints[j].rhs}")
    return out


# ---------------------------------------------------------------------------
# Dense views shared by the solvers


@dataclass
class _DenseSystem:
    """A problem's rows, read once: the one place that looks at row senses."""

    c: np.ndarray
    a: np.ndarray  # m x n dense coefficient matrix
    rhs: np.ndarray
    le: np.ndarray  # bool row masks, one per sense
    ge: np.ndarray
    eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integral: np.ndarray  # bool mask
    # linprog's arguments: LE rows, then GE rows negated; None when empty.
    a_ub: np.ndarray | None
    b_ub: np.ndarray | None
    a_eq: np.ndarray | None
    b_eq: np.ndarray | None
    lp: "_HighsLp | None" = None  # built on the first LP solve
    lp_ms: float = 0.0  # time spent in LP solves so far

    @classmethod
    def build(cls, instance: IlpInstance, extra_constraints=()) -> "_DenseSystem":
        rows = list(instance.constraints) + list(extra_constraints)
        a = np.zeros((len(rows), instance.num_vars))
        for j, con in enumerate(rows):
            for idx, val in con.coeffs:
                a[j, idx] = val
        rhs = np.array([con.rhs for con in rows], dtype=float)
        le, ge, eq = (np.array([con.sense == s for con in rows], dtype=bool) for s in (LE, GE, EQ))
        a_ub, b_ub = np.vstack([a[le], -a[ge]]), np.concatenate([rhs[le], -rhs[ge]])
        if not b_ub.size:
            a_ub = b_ub = None
        a_eq, b_eq = (a[eq], rhs[eq]) if eq.any() else (None, None)
        return cls(
            np.asarray(instance.objective, dtype=float), a, rhs, le, ge, eq,
            np.array([v.lb for v in instance.vars]),
            np.array([v.ub for v in instance.vars]),
            np.array([v.is_integral() for v in instance.vars]),
            a_ub, b_ub, a_eq, b_eq,
        )

    def rows_failing(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Rows that no activity in [lo, hi] satisfies at FEAS_TOL (lo = hi for a point)."""
        over = (self.le | self.eq) & (lo > self.rhs + FEAS_TOL)
        under = (self.ge | self.eq) & (hi < self.rhs - FEAS_TOL)
        return np.flatnonzero(over | under)


class _HighsLp:
    """One HiGHS model of a system's rows, set up the way linprog(method="highs") sets up its own.

    Rows are the a_ub rows with bounds [-inf, b_ub], then the a_eq rows with
    bounds [b_eq, b_eq], in one CSC matrix, as linprog stacks them. solve()
    sets the column bounds and clears the solver before it runs, so every
    solve starts cold and returns exactly what a fresh linprog call on the
    same arguments returns.
    """

    # Model statuses other than kOptimal, mapped as linprog maps them; any
    # status not listed (kUnboundedOrInfeasible included) is an error.
    STATUS = {
        highs.HighsModelStatus.kInfeasible: INFEASIBLE,
        highs.HighsModelStatus.kModelError: INFEASIBLE,
        highs.HighsModelStatus.kUnbounded: UNBOUNDED,
    }
    # linprog's post-solve residual tolerance: sqrt(tol) * 10 at its default tol = 1e-9.
    RESIDUAL_TOL = np.sqrt(1e-9) * 10

    def __init__(self, sys_: _DenseSystem):
        n = sys_.c.size
        a_ub, b_ub = (sys_.a_ub, sys_.b_ub) if sys_.b_ub is not None else (np.zeros((0, n)), np.zeros(0))
        a_eq, b_eq = (sys_.a_eq, sys_.b_eq) if sys_.b_eq is not None else (np.zeros((0, n)), np.zeros(0))
        a = csc_array(np.vstack([a_ub, a_eq]))
        self.cols = np.arange(n, dtype=np.int32)
        self.num_ub = b_ub.size
        self.row_upper = np.concatenate([b_ub, b_eq])
        lp = highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = sys_.c
        lp.col_lower_ = sys_.lb
        lp.col_upper_ = sys_.ub
        lp.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
        lp.row_upper_ = self.row_upper
        self.model = highs._Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.setOptionValue("presolve", "on")
        self.model.setOptionValue(
            "simplex_strategy", int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        )
        if self.model.passModel(lp) == highs.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the LP model")

    def solve(self, lb: np.ndarray, ub: np.ndarray) -> LpResult:
        model = self.model
        model.changeColsBounds(self.cols.size, self.cols, lb, ub)
        model.clearSolver()
        model.run()
        status = model.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            status = self.STATUS.get(status, "error")
            return LpResult(status, np.inf if status == INFEASIBLE else -np.inf, None)
        sol = model.getSolution()
        x = np.array(sol.col_value)
        value = model.getInfo().objective_function_value
        # linprog's post-solve check: an optimum outside its bounds or rows
        # by more than RESIDUAL_TOL, or with a NaN, is reported as an error.
        slack = self.row_upper - np.array(sol.row_value)
        tol = self.RESIDUAL_TOL
        valid = (
            not (np.isnan(x).any() or np.isnan(value) or np.isnan(slack).any())
            and np.all((x >= lb - tol) & (x <= ub + tol))
            and not (slack[: self.num_ub] < -tol).any()
            and not (np.abs(slack[self.num_ub:]) > tol).any()
        )
        return LpResult(OPTIMAL, float(value), x) if valid else LpResult("error", -np.inf, None)


def _solve_lp(sys_: _DenseSystem, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """The LP over the box [lb, ub] on the system's HiGHS model, built on the first call."""
    if np.any(lb > ub + LP_TOL):
        return LpResult(INFEASIBLE, np.inf, None)
    t0 = time.perf_counter()
    if sys_.lp is None:
        sys_.lp = _HighsLp(sys_)
    result = sys_.lp.solve(lb, ub)
    sys_.lp_ms += (time.perf_counter() - t0) * 1e3
    return result


def _linprog(sys_: _DenseSystem, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """The LP over the box [lb, ub] through a fresh linprog(method="highs") call."""
    res = linprog(
        sys_.c,
        A_ub=sys_.a_ub,
        b_ub=sys_.b_ub,
        A_eq=sys_.a_eq,
        b_eq=sys_.b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if res.status == 0:
        return LpResult(OPTIMAL, float(res.fun), np.asarray(res.x))
    if res.status == 2:
        return LpResult(INFEASIBLE, np.inf, None)
    if res.status == 3:
        return LpResult(UNBOUNDED, -np.inf, None)
    return LpResult("error", -np.inf, None)


def lp_relax(instance: IlpInstance) -> LpResult:
    """Continuous relaxation; the value is a valid lower bound for minimization.

    It calls linprog directly, independent of the solver's HiGHS model.
    """
    sys_ = _DenseSystem.build(instance)
    return _linprog(sys_, sys_.lb, sys_.ub)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def _times_bound(coef: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """coef * bound, where a zero coefficient counts as zero also against an
    infinite bound."""
    out = np.zeros(np.broadcast_shapes(coef.shape, bound.shape))
    return np.multiply(coef, bound, out=out, where=coef != 0)


def brute_force(instance: IlpInstance, collect_all: bool = False):
    """Exact optimum by exhaustive enumeration over integral assignments.

    Infeasible-by-interval subtrees are pruned, which does not affect
    exactness. With collect_all the full set of optimal solutions is returned
    as a second value (pure-integer instances only). Instances with
    continuous variables are finished with an LP on the continuous block at
    every integral leaf; as in solve_bb, the status is UNBOUNDED once such
    an LP is unbounded.
    """
    sys_ = _DenseSystem.build(instance)
    n = instance.num_vars
    int_idx = np.flatnonzero(sys_.integral)
    cont_idx = np.flatnonzero(~sys_.integral)
    if collect_all and cont_idx.size:
        raise ValueError("collect_all needs a pure-integer instance")
    space = 1.0
    for i in int_idx:
        space *= sys_.ub[i] - sys_.lb[i] + 1
        if space > BRUTE_FORCE_CAP:
            raise ValueError(f"search space exceeds {BRUTE_FORCE_CAP} assignments")

    t0 = time.perf_counter()
    order = list(int_idx) + list(cont_idx)  # integral first, enumeration by index
    a_ord = sys_.a[:, order]
    lb_ord, ub_ord = sys_.lb[order], sys_.ub[order]
    lo_col = np.minimum(_times_bound(a_ord, lb_ord), _times_bound(a_ord, ub_ord))
    hi_col = np.maximum(_times_bound(a_ord, lb_ord), _times_bound(a_ord, ub_ord))
    m = sys_.a.shape[0]
    depth_n = len(order)
    suf_lo = np.zeros((depth_n + 1, m))
    suf_hi = np.zeros((depth_n + 1, m))
    for d in range(depth_n - 1, -1, -1):
        suf_lo[d] = suf_lo[d + 1] + lo_col[:, d]
        suf_hi[d] = suf_hi[d + 1] + hi_col[:, d]
    c_ord = sys_.c[order]
    c_lo = np.minimum(_times_bound(c_ord, lb_ord), _times_bound(c_ord, ub_ord))
    c_suf_lo = np.zeros(depth_n + 1)
    for d in range(depth_n - 1, -1, -1):
        c_suf_lo[d] = c_suf_lo[d + 1] + c_lo[d]

    n_int = len(int_idx)
    best_obj = np.inf
    best_vals: np.ndarray | None = None
    ties: list[np.ndarray] = []
    nodes = 0
    unbounded = False
    x = np.zeros(n)
    act = np.zeros(m)

    def finish_leaf(partial_obj: float):
        nonlocal best_obj, best_vals, ties, unbounded
        if cont_idx.size:
            lb = sys_.lb.copy()
            ub = sys_.ub.copy()
            lb[int_idx] = ub[int_idx] = x[int_idx]
            res = _solve_lp(sys_, lb, ub)
            # An unbounded LP over the continuous block, with every integral
            # variable fixed, leaves the whole problem without a lower bound.
            unbounded = res.status == UNBOUNDED
            if res.status != OPTIMAL:
                return
            obj, vals = res.value, res.x.copy()
            vals[int_idx] = x[int_idx]
        else:
            obj, vals = partial_obj, x.copy()
        if obj < best_obj - 1e-9:
            best_obj, best_vals, ties = obj, vals, [vals]
        elif collect_all and abs(obj - best_obj) <= 1e-9:
            ties.append(vals)

    def descend(depth: int, partial_obj: float):
        nonlocal nodes, act
        if unbounded:
            return
        # At depth == n_int the suffix intervals cover only the continuous
        # block (empty for pure-integer instances), so this doubles as the
        # exact leaf feasibility check.
        if sys_.rows_failing(act + suf_lo[depth], act + suf_hi[depth]).size:
            return
        if partial_obj + c_suf_lo[depth] > best_obj + 1e-9:
            return
        if depth == n_int:
            finish_leaf(partial_obj)
            return
        v = order[depth]
        col = sys_.a[:, v]
        for val in range(int(sys_.lb[v]), int(sys_.ub[v]) + 1):
            nodes += 1
            x[v] = val
            act += col * val
            descend(depth + 1, partial_obj + sys_.c[v] * val)
            act -= col * val
        x[v] = sys_.lb[v]

    descend(0, 0.0)
    wall = (time.perf_counter() - t0) * 1e3
    if unbounded:
        return SolveResult(UNBOUNDED, None, -np.inf, nodes, wall, sys_.lp_ms)
    if best_vals is None:
        result = SolveResult(INFEASIBLE, None, np.inf, nodes, wall, sys_.lp_ms)
        return (result, []) if collect_all else result
    sol = Solution(tuple(best_vals.tolist()), float(best_obj))
    result = SolveResult(OPTIMAL, sol, float(best_obj), nodes, wall, sys_.lp_ms)
    if collect_all:
        all_opt = [Solution(tuple(v.tolist()), float(best_obj)) for v in ties]
        return result, all_opt
    return result


# ---------------------------------------------------------------------------
# Branch and bound


def _snap_integral(x: np.ndarray, integral: np.ndarray) -> np.ndarray:
    snapped = x.copy()
    snapped[integral] = np.round(snapped[integral])
    return snapped


def solve_bb(
    instance: IlpInstance,
    limits: SolveLimits = SolveLimits(),
    fixed: dict[int, float] | None = None,
    extra_constraints=(),
    debug_optimum: float | None = None,
) -> SolveResult:
    """Depth-first branch and bound with LP bounds.

    Branching picks the integral variable whose LP value is farthest from an
    integer (ties to the lowest index); the floor child is explored first.
    `fixed` pre-pins variables (partial assignments from repair heuristics),
    `extra_constraints` appends rows such as a Hamming-ball cut. When
    `debug_optimum` is given, the bound sandwich
    min(open node bounds) <= optimum <= incumbent is checked at every node.
    The status is UNBOUNDED when a node whose integral variables are all
    fixed has an unbounded LP.
    """
    sys_ = _DenseSystem.build(instance, extra_constraints)
    lb0, ub0 = sys_.lb.copy(), sys_.ub.copy()
    if fixed:
        for idx, val in fixed.items():
            val = float(val)
            if sys_.integral[idx] and abs(val - round(val)) > INT_TOL:
                raise ValueError(f"fixed value {val} for integral var {idx} not integral")
            if val < lb0[idx] - FEAS_TOL or val > ub0[idx] + FEAS_TOL:
                return SolveResult(INFEASIBLE, None, np.inf, 0, 0.0)
            lb0[idx] = ub0[idx] = round(val) if sys_.integral[idx] else val

    t0 = time.perf_counter()
    deadline = t0 + limits.time_limit_ms / 1e3
    nodes = 0
    incumbent_obj = np.inf
    incumbent: np.ndarray | None = None
    tie_pool: list[np.ndarray] = []
    # Stack entries: (lb, ub, inherited parent bound).
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [(lb0, ub0, -np.inf)]
    limit_hit = unbounded = False

    while stack:
        if nodes >= limits.node_limit or time.perf_counter() > deadline:
            limit_hit = True
            break
        lb, ub, parent_bound = stack.pop()
        if incumbent is not None and parent_bound >= incumbent_obj - ABS_GAP:
            continue
        nodes += 1
        res = _solve_lp(sys_, lb, ub)
        if res.status == INFEASIBLE:
            continue
        if res.status in (UNBOUNDED, "error"):
            # No usable bound; branch on the first open integral variable.
            bound = -np.inf
            open_vars = [
                i for i in np.flatnonzero(sys_.integral) if lb[i] < ub[i] - 0.5
            ]
            if not open_vars:
                if res.status == UNBOUNDED:
                    # Every integral variable is fixed and the LP over the
                    # rest has no lower bound, so neither has the problem.
                    unbounded = True
                    break
                continue
            v = open_vars[0]
            mid = np.floor((lb[v] + ub[v]) / 2)
            for new_lb, new_ub in (
                (_with(lb, v, mid + 1), ub),
                (lb, _with(ub, v, mid)),
            ):
                stack.append((new_lb, new_ub, bound))
            continue
        bound = res.value
        if debug_optimum is not None:
            # Sandwich: until the optimum is an incumbent, some open subtree
            # contains it, so the weakest known bound stays below it; and
            # every incumbent stays above it. A single node's bound may
            # exceed the optimum when its subtree excludes the optimum.
            known = [bound, incumbent_obj] + [entry[2] for entry in stack]
            _check_sandwich(min(known), incumbent_obj, debug_optimum)
        if incumbent is not None and bound >= incumbent_obj - ABS_GAP:
            continue
        x = res.x
        frac = np.abs(x - np.round(x))
        frac[~sys_.integral] = 0.0
        v = int(np.argmax(frac))
        if frac[v] <= INT_TOL:
            cand = _snap_integral(x, sys_.integral)
            # Snapping may nudge the point; re-verify its bounds and every
            # row, the extra rows included, before accepting.
            act = sys_.a @ cand
            in_bounds = np.all(cand >= sys_.lb - FEAS_TOL) and np.all(cand <= sys_.ub + FEAS_TOL)
            if in_bounds and not sys_.rows_failing(act, act).size:
                obj = float(np.dot(sys_.c, cand))
                if obj < incumbent_obj - ABS_GAP:
                    incumbent_obj, incumbent = obj, cand
                    tie_pool = [cand]
                elif abs(obj - incumbent_obj) <= ABS_GAP:
                    tie_pool.append(cand)
            continue
        f = x[v]
        down = (lb, _with(ub, v, np.floor(f)), bound)
        up = (_with(lb, v, np.floor(f) + 1), ub, bound)
        # Dive toward the nearer integer first; finds incumbents earlier.
        if f - np.floor(f) >= 0.5:
            stack.extend((down, up))
        else:
            stack.extend((up, down))

    wall = (time.perf_counter() - t0) * 1e3
    if incumbent is not None and tie_pool:
        incumbent = min(tie_pool, key=lambda v: tuple(v.tolist()))
        incumbent_obj = float(np.dot(sys_.c, incumbent))
    if debug_optimum is not None:
        _check_sandwich(-np.inf, incumbent_obj, debug_optimum)

    if unbounded:
        return SolveResult(UNBOUNDED, None, -np.inf, nodes, wall, sys_.lp_ms)
    if limit_hit:
        open_bounds = [entry[2] for entry in stack]
        bound = min(open_bounds) if open_bounds else (
            incumbent_obj if incumbent is not None else np.inf
        )
        sol = None
        if incumbent is not None:
            sol = Solution(tuple(incumbent.tolist()), incumbent_obj)
        return SolveResult(LIMIT_REACHED, sol, float(bound), nodes, wall, sys_.lp_ms)
    if incumbent is None:
        return SolveResult(INFEASIBLE, None, np.inf, nodes, wall, sys_.lp_ms)
    sol = Solution(tuple(incumbent.tolist()), incumbent_obj)
    return SolveResult(OPTIMAL, sol, incumbent_obj, nodes, wall, sys_.lp_ms)


def _check_sandwich(weakest_bound: float, incumbent_obj: float, optimum: float) -> None:
    if incumbent_obj < optimum - 1e-6:
        raise RuntimeError(f"incumbent {incumbent_obj} is below the known optimum {optimum}")
    if weakest_bound > optimum + 1e-6:
        raise RuntimeError(f"bound {weakest_bound} exceeds known optimum {optimum}")


def _with(arr: np.ndarray, idx: int, val: float) -> np.ndarray:
    out = arr.copy()
    out[idx] = val
    return out
