"""Exact desk-scale ILP solving: feasibility checks, brute force, branch and bound.

This module plays the role a commercial solver would play at production
scale. It produces training labels and serves the repair heuristics. The
continuous relaxations are solved with HiGHS. Each solve stores its rows
once, sparse and stacked as linprog(method="highs") stacks them, and builds
one HiGHS model of them on its first LP. A branch-and-bound node sets the
model's column bounds and re-runs it from a cold start, so every node returns
the LP solution linprog returns for the same arguments. lp_relax calls
linprog itself and is the reference for that equivalence. The search layers
on top (enumeration, depth-first branch and bound with most-fractional
branching) are deterministic, so repeated runs yield identical labels.

Branch and bound on an instance as posed (no pins, no extra rows) whose
declared column group passes instance.check_symmetry on a generating set
closes, without an LP, each node whose box lies inside a group image of a
box it has fully explored, that is, a box whose whole subtree has left the
depth-first stack. Such a box holds only images of solutions the search has
already ruled out, so the incumbents, and with them the label, stay those
of the search without this step; only the node count falls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array, csr_array

from . import perm as pm
from .instance import EQ, FEAS_TOL, GE, LE, IlpInstance, Solution, SymmetryDescriptor, check_symmetry

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT_REACHED = "limit_reached"

INT_TOL = 1e-6
LP_TOL = 1e-8
# Objectives within ABS_GAP of each other count as one optimum: B&B prunes
# a node whose bound comes within it of the incumbent and pools such ties.
ABS_GAP = 1e-9

BRUTE_FORCE_CAP = 2 ** 24
# Bound propagation for a twin key stops after this many passes over the
# rows; only integral bounds that grow without limit need the cap.
PROPAGATION_PASSES = 20


@dataclass(frozen=True)
class SolveLimits:
    time_limit_ms: float = 60_000.0
    node_limit: int = 200_000

    def __post_init__(self):
        if not (self.time_limit_ms > 0 and self.node_limit > 0):  # refuses a NaN time limit too
            raise ValueError(f"limits must be positive, got {self.time_limit_ms} ms and {self.node_limit} nodes")


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
    sys_ = _System.build(instance)
    lhs = sys_.a @ vals
    failing = sys_.rows_failing(lhs, lhs)
    for j, r in sorted(zip(sys_.source[failing].tolist(), failing)):
        con = instance.constraints[j]
        # A GE row is stored negated; 0.0 - lhs undoes that without printing -0.0.
        act = 0.0 - lhs[r] if con.sense == GE else lhs[r]
        op = {LE: ">", GE: "<", EQ: "!="}[con.sense]
        out.append(f"constraint {j}: {act} {op} {con.rhs}")
    return out


# ---------------------------------------------------------------------------
# The rows shared by the solvers


@dataclass
class _System:
    """A problem's rows, read once, and the one row-feasibility test.

    One CSC matrix holds the rows as linprog(method="highs") hands them to HiGHS:
    LE rows, then GE rows negated, then EQ rows; either block may be empty.
    """

    c: np.ndarray
    a: csc_array
    row_lower: np.ndarray  # -inf on the num_ub LE and GE rows
    row_upper: np.ndarray
    num_ub: int
    source: np.ndarray  # the instance row of each stacked row
    lb: np.ndarray
    ub: np.ndarray
    integral: np.ndarray  # bool mask
    lp: highs._Highs | None = None  # built on the first LP solve
    lp_ms: float = 0.0  # time spent in LP solves so far

    @classmethod
    def build(cls, instance: IlpInstance, extra_constraints=()) -> "_System":
        rows = list(instance.constraints) + list(extra_constraints)
        source = [j for sense in (LE, GE, EQ) for j, con in enumerate(rows) if con.sense == sense]
        starts, cols, vals, row_upper = [0], [], [], []
        for j in source:
            con = rows[j]
            sign = -1.0 if con.sense == GE else 1.0
            for idx, val in con.coeffs:
                cols.append(idx)
                vals.append(sign * val)
            starts.append(len(cols))
            row_upper.append(sign * con.rhs)
        a = csr_array((vals, cols, starts), shape=(len(rows), instance.num_vars)).tocsc()
        num_ub = sum(con.sense != EQ for con in rows)
        row_upper = np.array(row_upper, dtype=float)
        row_lower = np.where(np.arange(len(rows)) < num_ub, -np.inf, row_upper)
        return cls(
            np.asarray(instance.objective, dtype=float), a, row_lower, row_upper, num_ub,
            np.array(source, dtype=np.intp),
            np.array([v.lb for v in instance.vars]),
            np.array([v.ub for v in instance.vars]),
            np.array([v.is_integral() for v in instance.vars]),
        )

    def rows_failing(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Stacked rows that no activity in [lo, hi] satisfies at FEAS_TOL (lo = hi for a point)."""
        return np.flatnonzero((lo > self.row_upper + FEAS_TOL) | (hi < self.row_lower - FEAS_TOL))


# Model statuses other than kOptimal, mapped as linprog maps them; any
# status not listed (kUnboundedOrInfeasible included) is an error.
LP_STATUS = {
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kModelError: INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}
# linprog's post-solve residual tolerance: sqrt(tol) * 10 at its default tol = 1e-9.
RESIDUAL_TOL = np.sqrt(1e-9) * 10


def _highs_model(sys_: _System) -> highs._Highs:
    """One HiGHS model of the system's rows, set up the way linprog(method="highs") sets up its own."""
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = sys_.c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = sys_.row_upper.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = sys_.a.indptr
    lp.a_matrix_.index_ = sys_.a.indices
    lp.a_matrix_.value_ = sys_.a.data
    lp.col_cost_ = sys_.c
    lp.col_lower_ = sys_.lb
    lp.col_upper_ = sys_.ub
    lp.row_lower_ = sys_.row_lower
    lp.row_upper_ = sys_.row_upper
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "on")
    model.setOptionValue(
        "simplex_strategy", int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    )
    if model.passModel(lp) == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the LP model")
    return model


def _solve_lp(sys_: _System, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """The LP over the box [lb, ub] on the system's HiGHS model, built on the first call."""
    if np.any(lb > ub + LP_TOL):
        return LpResult(INFEASIBLE, np.inf, None)
    t0 = time.perf_counter()
    if sys_.lp is None:
        sys_.lp = _highs_model(sys_)
    model = sys_.lp
    model.changeColsBounds(lb.size, np.arange(lb.size, dtype=np.int32), lb, ub)
    model.clearSolver()
    model.run()
    status = model.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        status = LP_STATUS.get(status, "error")
        result = LpResult(status, np.inf if status == INFEASIBLE else -np.inf, None)
    else:
        sol = model.getSolution()
        x = np.array(sol.col_value)
        value = model.getInfo().objective_function_value
        # linprog's post-solve check: an optimum outside its bounds or rows
        # by more than RESIDUAL_TOL, or with a NaN, is reported as an error.
        slack = sys_.row_upper - np.array(sol.row_value)
        k, tol = sys_.num_ub, RESIDUAL_TOL
        valid = (
            not (np.isnan(x).any() or np.isnan(value) or np.isnan(slack).any())
            and np.all((x >= lb - tol) & (x <= ub + tol))
            and not (slack[:k] < -tol).any()
            and not (np.abs(slack[k:]) > tol).any()
        )
        result = LpResult(OPTIMAL, float(value), x) if valid else LpResult("error", -np.inf, None)
    sys_.lp_ms += (time.perf_counter() - t0) * 1e3
    return result


def _linprog(sys_: _System, lb: np.ndarray, ub: np.ndarray) -> LpResult:
    """The LP over the box [lb, ub] through a fresh linprog(method="highs") call."""
    k = sys_.num_ub
    res = linprog(
        sys_.c,
        A_ub=sys_.a[:k],
        b_ub=sys_.row_upper[:k],
        A_eq=sys_.a[k:],
        b_eq=sys_.row_upper[k:],
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
    sys_ = _System.build(instance)
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
    sys_ = _System.build(instance)
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
    a = sys_.a.toarray()  # dense, as the search space is capped
    a_ord = a[:, order]
    lb_ord, ub_ord = sys_.lb[order], sys_.ub[order]
    lo_col = np.minimum(_times_bound(a_ord, lb_ord), _times_bound(a_ord, ub_ord))
    hi_col = np.maximum(_times_bound(a_ord, lb_ord), _times_bound(a_ord, ub_ord))
    m = a.shape[0]
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
        col = a[:, v]
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


def _generators(kind: str, q: int) -> tuple[pm.Permutation, ...]:
    """A generating set of the group: for S_q a transposition and the
    q-cycle, for C_q one rotation, for D_q a rotation and the reflection."""
    if kind == pm.SYMMETRIC:
        return pm.Permutation((1, 0, *range(2, q))), pm.rotation(q)
    if kind == pm.CYCLIC:
        return (pm.rotation(q),)
    return pm.rotation(q), pm.reflection(q)


class _Twins:
    """Twin pruning's key of a box, the same for all of its group images.

    A key is the box with its integral bounds propagated through the rows,
    made canonical under the instance's column group, as one vector of lower
    bounds and negated upper bounds. When key_C >= key_B elementwise, box C
    lies inside a group image of box B up to bounds that no feasible
    integral point reaches, so every solution in C is the image of one in B,
    with the same objective. A fully explored box holds no solution below
    the incumbent it was explored against, hence neither does a box inside
    an image of it: skipping that box leaves every incumbent, and so the
    label, as it was.
    """

    def __init__(self, sys_: _System, desc: SymmetryDescriptor):
        self.sys = sys_
        self.grid = desc.grid_array()
        outside = np.ones(sys_.c.size, dtype=bool)
        outside[self.grid] = False
        self.outside = np.flatnonzero(outside)
        self.table = None if desc.kind == pm.SYMMETRIC else pm.group_table(desc.kind, desc.q)
        # The rows' nonzero entries in CSC order, each with its row and
        # column; the same for the entries in integral columns, and where
        # each such column's entries start.
        a = sys_.a
        cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
        nonzero = a.data != 0
        self.rows, self.cols, self.vals = a.indices[nonzero], cols[nonzero], a.data[nonzero]
        ent = np.flatnonzero(sys_.integral[self.cols])
        self.int_ent, self.int_rows, self.int_vals = ent, self.rows[ent], self.vals[ent]
        per_col = np.bincount(self.cols[ent], minlength=a.shape[1])
        self.int_cols = np.flatnonzero(per_col)
        self.int_starts = np.cumsum(per_col[self.int_cols]) - per_col[self.int_cols]

    @classmethod
    def certify(cls, instance: IlpInstance, sys_: _System) -> "_Twins | None":
        """Twin pruning for the instance, or None when its declared group
        fails instance.check_symmetry on a generating set."""
        desc = instance.symmetry
        if check_symmetry(instance, *_generators(desc.kind, desc.q)):
            return cls(sys_, desc)
        return None

    def canonical_key(self, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """One key for a box that propagate has tightened and all its group
        images: [canonical grid lb, lb outside the grid, -canonical grid ub,
        -ub outside]. The grid's (lb, ub) columns are sorted for a symmetric
        group and taken at the lexicographically least element of a cyclic
        or dihedral one; the bounds outside the grid follow as they are.

        A box that propagate proves empty has no key and still gets its LP,
        as without twin pruning: closing it early would move a node-limited
        search onto other nodes."""
        cols = np.concatenate([lb[self.grid], ub[self.grid]])  # one column per grid column
        if self.table is None:
            canon = cols[:, np.lexsort(cols[::-1])]
        else:
            images = cols.T[self.table]  # each element's columns, one image per row
            canon = images[np.lexsort(images.reshape(len(self.table), -1).T[::-1])[0]].T
        rows = len(self.grid)
        return np.concatenate([canon[:rows].ravel(), lb[self.outside], -canon[rows:].ravel(), -ub[self.outside]])

    def propagate(self, lb: np.ndarray, ub: np.ndarray):
        """The box with its integral bounds tightened by the rows' activity
        bounds, or None when a row or a bound shows that it holds no
        integral point. Each row is relaxed by FEAS_TOL and each implied
        bound rounded with FEAS_TOL to spare, so no integral point that
        meets every row at FEAS_TOL is cut off. Continuous bounds stay as
        they are: branching never moves them."""
        sys_, rows, cols, vals = self.sys, self.rows, self.cols, self.vals
        m, ent, r, idx = sys_.row_upper.size, self.int_ent, self.int_rows, self.int_cols
        row_upper, row_lower = sys_.row_upper[r] + FEAS_TOL, sys_.row_lower[r] - FEAS_TOL
        pos = self.int_vals > 0
        lb, ub = lb + 0.0, ub + 0.0  # copies, with any -0.0 turned into 0.0
        for _ in range(PROPAGATION_PASSES):
            at_lb, at_ub = vals * lb[cols], vals * ub[cols]
            lo, hi = np.minimum(at_lb, at_ub), np.maximum(at_lb, at_ub)
            lo_inf, hi_inf = lo == -np.inf, hi == np.inf
            lo_fin, hi_fin = np.where(lo_inf, 0.0, lo), np.where(hi_inf, 0.0, hi)
            n_lo_inf, n_hi_inf = np.bincount(rows, lo_inf, m), np.bincount(rows, hi_inf, m)
            lo_sum, hi_sum = np.bincount(rows, lo_fin, m), np.bincount(rows, hi_fin, m)
            if sys_.rows_failing(
                np.where(n_lo_inf > 0, -np.inf, lo_sum), np.where(n_hi_inf > 0, np.inf, hi_sum)
            ).size:
                return None
            with np.errstate(invalid="ignore", over="ignore"):
                # The activity bounds of each entry's row without the entry,
                # then the bounds vals * x <= up and vals * x >= down.
                up = row_upper - np.where(n_lo_inf[r] == lo_inf[ent], lo_sum[r] - lo_fin[ent], -np.inf)
                down = row_lower - np.where(n_hi_inf[r] == hi_inf[ent], hi_sum[r] - hi_fin[ent], np.inf)
                imp_ub = np.where(pos, up, down) / self.int_vals
                imp_lb = np.where(pos, down, up) / self.int_vals
            # fmin and fmax pass over a NaN bound, which bounds nothing.
            new_ub = np.floor(np.fmin.reduceat(imp_ub, self.int_starts) + FEAS_TOL)
            new_lb = np.ceil(np.fmax.reduceat(imp_lb, self.int_starts) - FEAS_TOL) + 0.0
            tighter_ub, tighter_lb = new_ub < ub[idx], new_lb > lb[idx]
            if not (tighter_ub.any() or tighter_lb.any()):
                break
            ub[idx] = np.where(tighter_ub, new_ub, ub[idx])
            lb[idx] = np.where(tighter_lb, new_lb, lb[idx])
            if np.any(lb[idx] > ub[idx]):
                return None
        return lb, ub


def solve_bb(
    instance: IlpInstance,
    limits: SolveLimits = SolveLimits(),
    fixed: dict[int, float] | None = None,
    extra_constraints=(),
) -> SolveResult:
    """Depth-first branch and bound with LP bounds.

    Branching picks the integral variable whose LP value is farthest from an
    integer (ties to the lowest index); the child toward the nearer integer
    is explored first. `fixed` pre-pins variables (partial assignments from
    repair heuristics), `extra_constraints` appends rows such as a
    Hamming-ball cut. The status is UNBOUNDED when a node whose integral
    variables are all fixed has an unbounded LP.

    When the instance is solved as posed (no pins, no extra rows) and its
    descriptor's group (q >= 2) passes instance.check_symmetry on a
    generating set, checked once at the first branching, a node whose box
    lies inside a group image of a fully explored one is closed without an
    LP, and counts as one node (see _Twins). A box is fully explored once
    the stack is back at the height it had right after the box was popped,
    since all that was pushed above it was its subtree. Such a box holds no
    solution below the incumbent, so the incumbents, the label and the LP of
    every node solved are those of the search without this step. A child's
    bound propagation starts from its parent's propagated box within the
    child's bounds; its LP runs on the child's own bounds.
    """
    sys_ = _System.build(instance, extra_constraints)
    lb0, ub0 = sys_.lb.copy(), sys_.ub.copy()
    if fixed:
        for idx, val in fixed.items():
            val = float(val)
            if sys_.integral[idx] and abs(val - round(val)) > INT_TOL:
                raise ValueError(f"fixed value {val} for integral var {idx} not integral")
            if val < lb0[idx] - FEAS_TOL or val > ub0[idx] + FEAS_TOL:
                return SolveResult(INFEASIBLE, None, np.inf, 0, 0.0)
            lb0[idx] = ub0[idx] = round(val) if sys_.integral[idx] else val
    desc = instance.symmetry
    as_posed = desc is not None and desc.q >= 2 and not fixed and not extra_constraints
    twins: _Twins | None = None
    # The keys of the fully explored boxes, one per row, and (stack height
    # after the pop, key) of each keyed box whose subtree is still on the stack.
    closed = np.empty((0, 2 * sys_.c.size))
    explored: list[tuple[int, np.ndarray]] = []

    t0 = time.perf_counter()
    deadline = t0 + limits.time_limit_ms / 1e3
    nodes = 0
    incumbent_obj = np.inf
    incumbent: np.ndarray | None = None
    tie_pool: list[np.ndarray] = []
    # Stack entries: (lb, ub, inherited parent bound, the box propagation
    # starts from: the parent's propagated box within (lb, ub), or None for
    # (lb, ub) itself).
    stack: list[tuple[np.ndarray, np.ndarray, float, tuple | None]] = [(lb0, ub0, -np.inf, None)]
    limit_hit = unbounded = False

    while stack:
        while explored and explored[-1][0] >= len(stack):
            closed = np.vstack([closed, explored.pop()[1]])
        if nodes >= limits.node_limit or time.perf_counter() > deadline:
            limit_hit = True
            break
        lb, ub, parent_bound, start = stack.pop()
        if incumbent is not None and parent_bound >= incumbent_obj - ABS_GAP:
            continue
        nodes += 1
        box = twins.propagate(*(start or (lb, ub))) if twins else None
        if box is not None:
            key = twins.canonical_key(*box)
            if np.any(np.all(closed <= key, axis=1)):
                continue
            explored.append((len(stack), key))
        children = ()
        res = _solve_lp(sys_, lb, ub)
        if res.status in (UNBOUNDED, "error"):
            # No usable bound; branch on the first open integral variable.
            bound = -np.inf
            open_vars = [
                i for i in np.flatnonzero(sys_.integral) if lb[i] < ub[i] - 0.5
            ]
            if not open_vars and res.status == UNBOUNDED:
                # Every integral variable is fixed and the LP over the
                # rest has no lower bound, so neither has the problem.
                unbounded = True
                break
            if open_vars:
                v = open_vars[0]
                mid = np.floor((lb[v] + ub[v]) / 2)
                children = ((_with(lb, v, mid + 1), ub), (lb, _with(ub, v, mid)))
        elif res.status == OPTIMAL and (incumbent is None or res.value < incumbent_obj - ABS_GAP):
            bound = res.value
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
            else:
                f = x[v]
                down = (lb, _with(ub, v, np.floor(f)))
                up = (_with(lb, v, np.floor(f) + 1), ub)
                # Dive toward the nearer integer first; finds incumbents earlier.
                children = (down, up) if f - np.floor(f) >= 0.5 else (up, down)
        if not children:
            continue
        if as_posed:
            twins, as_posed = _Twins.certify(instance, sys_), False
        stack.extend(
            (c_lb, c_ub, bound, None if box is None else (np.maximum(box[0], c_lb), np.minimum(box[1], c_ub)))
            for c_lb, c_ub in children
        )

    wall = (time.perf_counter() - t0) * 1e3
    if incumbent is not None and tie_pool:
        incumbent = min(tie_pool, key=lambda v: tuple(v.tolist()))
        incumbent_obj = float(np.dot(sys_.c, incumbent))

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


def _with(arr: np.ndarray, idx: int, val: float) -> np.ndarray:
    out = arr.copy()
    out[idx] = val
    return out
