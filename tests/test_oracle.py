import dataclasses
import warnings

import numpy as np
import pytest

from symilp import oracle
from symilp import perm as pm
from symilp.bench import (
    binpack_instance,
    gen_binpack,
    gen_golomb,
    gen_item_placement,
    gen_pesp,
    gen_smsp,
)
from symilp.instance import (
    EQ,
    FEAS_TOL,
    GE,
    LE,
    IlpInstance,
    SymmetryDescriptor,
    Variable,
    check_symmetry,
    make_constraint,
    permute_values,
)

X_BASE = [1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0]


@pytest.fixture
def ex1():
    return binpack_instance([1, 2, 3], 3, 3)


def random_binary_instance(rng, n_vars, n_rows):
    variables = tuple(Variable(0.0, 1.0, "binary", i) for i in range(n_vars))
    objective = tuple(float(c) for c in rng.integers(-5, 6, size=n_vars))
    cons = []
    for _ in range(n_rows):
        nnz = int(rng.integers(2, min(5, n_vars) + 1))
        idx = rng.choice(n_vars, size=nnz, replace=False)
        coeffs = [(int(i), float(rng.integers(-4, 5) or 1)) for i in idx]
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        if sense == EQ:
            # Keep equalities satisfiable: right-hand side from a random point.
            point = rng.integers(0, 2, size=n_vars)
            rhs = float(sum(v * point[i] for i, v in coeffs))
        else:
            rhs = float(rng.integers(-3, 7))
        cons.append(make_constraint(coeffs, sense, rhs))
    return IlpInstance("rand", variables, objective, tuple(cons), None, {})


# ---------------------------------------------------------------------------
# check_feasible


def test_known_solution_is_feasible(ex1):
    assert oracle.check_feasible(ex1, X_BASE) == []


def test_unassigned_item_violates_partition(ex1):
    vals = list(X_BASE)
    vals[3 + 1 * 3 + 1] = 0  # drop item 1 from its bin
    violations = oracle.check_feasible(ex1, vals)
    assert violations and any("constraint" in v for v in violations)


def test_fractional_binary_flagged(ex1):
    vals = list(map(float, X_BASE))
    vals[0] = 0.5
    assert any("not integral" in v for v in oracle.check_feasible(ex1, vals))


def test_bound_violation_flagged(ex1):
    vals = list(map(float, X_BASE))
    vals[0] = 2.0
    assert any("outside" in v for v in oracle.check_feasible(ex1, vals))


def test_length_mismatch(ex1):
    with pytest.raises(ValueError):
        oracle.check_feasible(ex1, [0, 1])


def test_row_misses_reported_by_sense_at_tolerance():
    # x0 <= 1, x1 >= 1, x2 == 1 over continuous variables.
    variables = tuple(Variable(0.0, 10.0, "continuous", i) for i in range(3))
    rows = (
        make_constraint([(0, 1.0)], LE, 1.0),
        make_constraint([(1, 1.0)], GE, 1.0),
        make_constraint([(2, 1.0)], EQ, 1.0),
    )
    inst = IlpInstance("senses", variables, (0.0, 0.0, 0.0), rows, None, {})
    misses = [(0, 1.0, ">"), (1, -1.0, "<"), (2, 1.0, "!="), (2, -1.0, "!=")]
    for row, sign, op in misses:
        vals = np.ones(3)
        vals[row] += sign * 2e-6
        (msg,) = oracle.check_feasible(inst, vals)
        assert msg.startswith(f"constraint {row}: ") and f" {op} 1.0" in msg
        vals[row] = 1.0 + sign * 0.5e-6
        assert oracle.check_feasible(inst, vals) == []


def test_violations_at_zero_activity_print_exactly_in_row_order():
    # The solver stacks LE, then GE negated, then EQ rows; messages still
    # come in instance row order, and a GE row reads 0.0, not -0.0.
    variables = tuple(Variable(0.0, 1.0, "binary", i) for i in range(2))
    rows = (
        make_constraint([(0, 1.0), (1, 1.0)], EQ, 2.0),
        make_constraint([(0, 1.0), (1, 2.0)], GE, 1.0),
        make_constraint([(0, 1.0), (1, -1.0)], LE, -1.0),
    )
    inst = IlpInstance("zero", variables, (0.0, 0.0), rows, None, {})
    assert oracle.check_feasible(inst, [0.0, 0.0]) == [
        "constraint 0: 0.0 != 2.0",
        "constraint 1: 0.0 < 1.0",
        "constraint 2: 0.0 > -1.0",
    ]


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_worked_example(ex1):
    res, all_opt = oracle.brute_force(ex1, collect_all=True)
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective == 2.0
    assert len(all_opt) == 6
    assert tuple(map(float, X_BASE)) in {s.values for s in all_opt}


def test_brute_force_infeasible_toy():
    variables = (Variable(0, 1, "binary", 0), Variable(0, 1, "binary", 1))
    cons = (
        make_constraint([(0, 1.0), (1, 1.0)], LE, 0.0),
        make_constraint([(0, 1.0), (1, 1.0)], GE, 1.0),
    )
    inst = IlpInstance("infeas", variables, (0.0, 0.0), cons, None, {})
    res = oracle.brute_force(inst)
    assert res.status == oracle.INFEASIBLE
    assert res.solution is None


def test_brute_force_golomb_contains_known_placement():
    inst = gen_golomb(3, 8)
    res, all_opt = oracle.brute_force(inst, collect_all=True)
    assert res.status == oracle.OPTIMAL
    target = np.zeros(24)
    for tick, pos in enumerate((0, 1, 3)):
        target[tick * 8 + pos] = 1.0
    assert tuple(target.tolist()) in {s.values for s in all_opt}


def test_brute_force_space_cap():
    variables = tuple(Variable(0.0, 100.0, "integer", i) for i in range(5))
    inst = IlpInstance("big", variables, (1.0,) * 5, (), None, {})
    with pytest.raises(ValueError):
        oracle.brute_force(inst)


def test_brute_force_collect_all_needs_pure_integer():
    variables = (Variable(0, 1, "binary", 0), Variable(0.0, 1.0, "continuous", 1))
    inst = IlpInstance("mixed", variables, (1.0, 1.0), (), None, {})
    with pytest.raises(ValueError):
        oracle.brute_force(inst, collect_all=True)


def test_brute_force_with_continuous_block():
    # min x + 2y subject to x + y >= 1.5, x binary, y in [0,2]
    variables = (Variable(0, 1, "binary", 0), Variable(0.0, 2.0, "continuous", 1))
    cons = (make_constraint([(0, 1.0), (1, 1.0)], GE, 1.5),)
    inst = IlpInstance("mixed", variables, (1.0, 2.0), cons, None, {})
    res = oracle.brute_force(inst)
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective == pytest.approx(2.0, abs=1e-8)  # x=1, y=0.5


# ---------------------------------------------------------------------------
# LP relaxation


def test_lp_relax_is_a_lower_bound(ex1):
    res = oracle.lp_relax(ex1)
    assert res.status == oracle.OPTIMAL
    assert res.value <= 2.0 + 1e-9


def test_lp_relax_assignment_is_integral():
    # One-hot rows both ways: totally unimodular, so the LP optimum is the
    # ILP optimum.
    rng = np.random.default_rng(3)
    n = 4
    cost = rng.integers(1, 9, size=(n, n)).astype(float)
    variables = tuple(Variable(0.0, 1.0, "binary", i * n + j) for i in range(n) for j in range(n))
    cons = []
    for i in range(n):
        cons.append(make_constraint([(i * n + j, 1.0) for j in range(n)], EQ, 1.0))
    for j in range(n):
        cons.append(make_constraint([(i * n + j, 1.0) for i in range(n)], EQ, 1.0))
    inst = IlpInstance(
        "assign", variables, tuple(cost.reshape(-1).tolist()), tuple(cons), None, {}
    )
    lp = oracle.lp_relax(inst)
    ilp = oracle.brute_force(inst)
    assert lp.status == oracle.OPTIMAL
    assert lp.value == pytest.approx(ilp.solution.objective, abs=1e-8)


def test_lp_relax_infeasible():
    variables = (Variable(0, 1, "binary", 0),)
    cons = (
        make_constraint([(0, 1.0)], GE, 2.0),
    )
    inst = IlpInstance("infeas", variables, (1.0,), cons, None, {})
    assert oracle.lp_relax(inst).status == oracle.INFEASIBLE


# ---------------------------------------------------------------------------
# The solver's HiGHS model against linprog


def hamming_ball(inst, center, radius):
    """Local branching's row: at most radius binaries differ from center."""
    targets = inst.binary_indices()
    coeffs = [(i, -1.0 if center[i] else 1.0) for i in targets]
    return make_constraint(coeffs, LE, float(radius - sum(center[i] for i in targets)))


def cross_check_instances():
    placement = gen_item_placement(4, 5, 2, seed=3)
    center = np.random.default_rng(5).integers(0, 2, size=placement.num_vars)
    pesp = gen_pesp(4, 5, 4, seed=1)
    # Two systems with an empty row block: no EQ row, and only EQ rows.
    no_eq = [c for c in placement.constraints if c.sense != EQ]
    only_eq = [c for c in pesp.constraints if c.sense == EQ]
    instances = [
        (gen_binpack(4, 3, 6, (1, 3), seed=1), ()),
        (placement, ()),
        (gen_smsp(4, 3, 2, seed=1), ()),
        (pesp, ()),
        (gen_golomb(3, 8), ()),
        (gen_golomb(4, 13), ()),  # 9,897 rows
        (placement, (hamming_ball(placement, center, 3),)),
        (dataclasses.replace(placement, constraints=tuple(no_eq)), ()),
        (dataclasses.replace(pesp, constraints=tuple(only_eq)), ()),
    ]
    return instances


def cross_check_systems():
    return [oracle._System.build(inst, extra) for inst, extra in cross_check_instances()]


def random_box(rng, sys_):
    """A sub-box of the system's bounds: some variables fixed, some continuous ones narrowed."""
    lb, ub = sys_.lb.copy(), sys_.ub.copy()
    for i in range(lb.size):
        r = rng.random()
        if r < 0.2:
            ub[i] = lb[i]
        elif r < 0.3:
            lb[i] = ub[i]
        elif r < 0.5 and not sys_.integral[i]:
            lo, hi = np.sort(rng.uniform(lb[i], ub[i], size=2))
            lb[i], ub[i] = lo, hi
    return lb, ub


def test_rows_failing_matches_each_row_by_sense():
    # rows_failing reads the stacked rows, GE rows negated. Each instance
    # row, read by its sense with its own coefficients, must fail exactly
    # when its stacked row does: at random points, and for the activity
    # interval over random boxes.
    rng = np.random.default_rng(13)
    tol = oracle.FEAS_TOL
    for inst, extra in cross_check_instances():
        sys_ = oracle._System.build(inst, extra)
        rows = list(inst.constraints) + list(extra)
        a = sys_.a.toarray()
        for _ in range(4):
            lb, ub = random_box(rng, sys_)
            x = rng.uniform(lb, ub)
            x[sys_.integral] = np.round(x[sys_.integral])
            act = sys_.a @ x
            s_lo = np.minimum(a * lb, a * ub).sum(axis=1)
            s_hi = np.maximum(a * lb, a * ub).sum(axis=1)
            point = [sum(v * x[i] for i, v in con.coeffs) for con in rows]
            box_lo = [sum(min(v * lb[i], v * ub[i]) for i, v in con.coeffs) for con in rows]
            box_hi = [sum(max(v * lb[i], v * ub[i]) for i, v in con.coeffs) for con in rows]
            for got, lo, hi in (
                (sys_.rows_failing(act, act), point, point),
                (sys_.rows_failing(s_lo, s_hi), box_lo, box_hi),
            ):
                want = [
                    j for j, con in enumerate(rows)
                    if (con.sense != GE and lo[j] > con.rhs + tol) or (con.sense != LE and hi[j] < con.rhs - tol)
                ]
                assert sorted(sys_.source[got].tolist()) == want


def assert_same_lp(got, ref):
    assert got.status == ref.status
    assert got.value == ref.value
    if ref.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == ref.x.tobytes()


def test_highs_model_matches_linprog_bit_for_bit():
    rng = np.random.default_rng(11)
    statuses = set()
    for sys_ in cross_check_systems():
        boxes = [(sys_.lb, sys_.ub), (sys_.lb, sys_.lb.copy())]  # full box, all at lower bound
        boxes += [random_box(rng, sys_) for _ in range(12)]
        for lb, ub in boxes:
            got = oracle._solve_lp(sys_, lb, ub)
            assert_same_lp(got, oracle._linprog(sys_, lb, ub))
            statuses.add(got.status)
    assert statuses == {oracle.OPTIMAL, oracle.INFEASIBLE}


def test_highs_model_keeps_no_state_between_solves():
    # Box A, then box B, then box A again on one model: the third answer is
    # the first, bit for bit. A warm start from B's basis breaks this.
    rng = np.random.default_rng(12)
    for sys_ in cross_check_systems():
        for _ in range(4):
            box_a, box_b = random_box(rng, sys_), random_box(rng, sys_)
            first = oracle._solve_lp(sys_, *box_a)
            oracle._solve_lp(sys_, *box_b)
            assert_same_lp(oracle._solve_lp(sys_, *box_a), first)


def test_edge_statuses_agree_with_linprog_and_bb_stops():
    # One row no point in the box satisfies.
    infeasible = IlpInstance(
        "row", (Variable(0.0, 1.0, "continuous", 0),), (1.0,),
        (make_constraint([(0, 1.0)], GE, 2.0),), None, {},
    )
    # A free continuous variable with a negative cost, beside one binary.
    unbounded = IlpInstance(
        "free", (Variable(-np.inf, np.inf, "continuous", 0), Variable(0.0, 1.0, "binary", 1)),
        (-1.0, 1.0), (make_constraint([(1, 1.0)], LE, 1.0),), None, {},
    )
    for inst, status in ((infeasible, oracle.INFEASIBLE), (unbounded, "unbounded")):
        sys_ = oracle._System.build(inst)
        assert oracle._solve_lp(sys_, sys_.lb, sys_.ub).status == status
        assert oracle.lp_relax(inst).status == status
        res = oracle.solve_bb(inst)
        assert res.solution is None and res.nodes <= 3


def test_bb_reports_unbounded_once_no_integral_variable_is_left():
    # The free-variable instance above: min -x0 + x1, x0 free, x1 binary.
    # Every node LP is unbounded; after branching on x1 nothing is left.
    unbounded = IlpInstance(
        "free", (Variable(-np.inf, np.inf, "continuous", 0), Variable(0.0, 1.0, "binary", 1)),
        (-1.0, 1.0), (make_constraint([(1, 1.0)], LE, 1.0),), None, {},
    )
    res = oracle.solve_bb(unbounded)
    assert res.status == oracle.UNBOUNDED
    assert res.solution is None and res.bound == -np.inf and res.nodes == 2


def test_brute_force_reports_unbounded_without_warnings():
    # The same instance: the continuous leaf LP is unbounded, and the free
    # variable's zero coefficient in the binary's row meets infinite bounds.
    unbounded = IlpInstance(
        "free", (Variable(-np.inf, np.inf, "continuous", 0), Variable(0.0, 1.0, "binary", 1)),
        (-1.0, 1.0), (make_constraint([(1, 1.0)], LE, 1.0),), None, {},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = oracle.brute_force(unbounded)
    assert res.status == oracle.UNBOUNDED == oracle.solve_bb(unbounded).status
    assert res.solution is None and res.bound == -np.inf


def test_lp_ms_is_part_of_wall_ms(ex1):
    res = oracle.solve_bb(ex1)
    assert res.nodes >= 1
    assert 0 < res.lp_ms <= res.wall_ms


def test_no_lp_means_no_model(ex1, monkeypatch):
    def refuse(sys_):
        raise AssertionError("built an LP model")

    monkeypatch.setattr(oracle, "_highs_model", refuse)
    assert oracle.check_feasible(ex1, X_BASE) == []
    res = oracle.brute_force(ex1)
    assert res.status == oracle.OPTIMAL and res.lp_ms == 0.0


# ---------------------------------------------------------------------------
# branch and bound


def test_bb_agrees_with_brute_force_on_random_instances():
    # Every solve cut short by a node limit reports a bound at or below the
    # optimum z*, and an incumbent, if it has one, at or above it.
    rng = np.random.default_rng(99)
    solved = 0
    while solved < 30:
        inst = random_binary_instance(rng, int(rng.integers(6, 13)), int(rng.integers(3, 8)))
        bf = oracle.brute_force(inst)
        bb = oracle.solve_bb(inst)
        assert bb.status == bf.status
        if bf.status == oracle.OPTIMAL:
            z = bf.solution.objective
            assert bb.solution.objective == pytest.approx(z, abs=1e-9)
            for k in range(1, bb.nodes):
                cut = oracle.solve_bb(inst, oracle.SolveLimits(node_limit=k))
                assert cut.status == oracle.LIMIT_REACHED and cut.nodes == k
                assert cut.bound <= z + 1e-6, (solved, k)
                assert cut.solution is None or cut.solution.objective >= z - 1e-6, (solved, k)
            solved += 1


def test_bb_extra_rows_of_every_sense_hold(ex1):
    # Open all three bins (EQ), put item 0 in bin 0 (GE), keep it out of bin 1 (LE).
    rows = (
        make_constraint([(0, 1.0), (1, 1.0), (2, 1.0)], EQ, 3.0),
        make_constraint([(3, 1.0)], GE, 1.0),
        make_constraint([(4, 1.0)], LE, 0.0),
    )
    res = oracle.solve_bb(ex1, extra_constraints=rows)
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective == 3.0
    vals = res.solution.values
    assert (vals[0], vals[1], vals[2], vals[3], vals[4]) == (1.0, 1.0, 1.0, 1.0, 0.0)
    assert oracle.check_feasible(ex1, vals) == []


def test_bb_prefixed_feasible_label_returns_it(ex1):
    fixed = {i: float(v) for i, v in enumerate(X_BASE)}
    res = oracle.solve_bb(ex1, fixed=fixed)
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective == 2.0
    assert [int(v) for v in res.solution.values] == X_BASE


def test_bb_prefixed_infeasible(ex1):
    fixed = {j: 0.0 for j in range(3)}  # no bin open, items unplaceable
    res = oracle.solve_bb(ex1, fixed=fixed)
    assert res.status == oracle.INFEASIBLE


def test_bb_node_limit_reports_limit(ex1):
    res = oracle.solve_bb(ex1, oracle.SolveLimits(node_limit=1))
    assert res.status == oracle.LIMIT_REACHED


def test_bb_extra_constraint_respected(ex1):
    # Forcing three open bins costs 3.
    extra = make_constraint([(j, 1.0) for j in range(3)], GE, 3.0)
    res = oracle.solve_bb(ex1, extra_constraints=(extra,))
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective == 3.0


def test_bb_deterministic(ex1):
    a = oracle.solve_bb(ex1)
    b = oracle.solve_bb(ex1)
    assert a.solution.values == b.solution.values
    assert a.nodes == b.nodes


def test_bb_and_brute_force_without_rows():
    variables = tuple(Variable(0.0, 1.0, "binary", i) for i in range(3))
    inst = IlpInstance("free", variables, (1.0, -2.0, -1.0), (), None, {})
    bb = oracle.solve_bb(inst)
    bf = oracle.brute_force(inst)
    assert bb.status == bf.status == oracle.OPTIMAL
    assert bb.solution == bf.solution
    assert bb.solution.values == (0.0, 1.0, 1.0)


def test_limits_validate():
    # NaN compares False with everything, so only "> 0" rejects it.
    for limits in ({"time_limit_ms": 0}, {"time_limit_ms": float("nan")}, {"node_limit": 0}):
        with pytest.raises(ValueError):
            oracle.SolveLimits(**limits)


# ---------------------------------------------------------------------------
# Twin pruning: branch and bound under a certified column group


def as_group(inst, kind):
    """The instance with its grid declared under another group kind."""
    return dataclasses.replace(inst, symmetry=SymmetryDescriptor(kind, inst.symmetry.grid))


def with_outside_pair(inst):
    """The instance plus two binaries outside the grid, with 2v + 2w <= 3 and
    a small reward: branching on them leaves the grid's bounds as they were."""
    n = inst.num_vars
    variables = inst.vars + (Variable(0.0, 1.0, "binary", n), Variable(0.0, 1.0, "binary", n + 1))
    rows = inst.constraints + (make_constraint([(n, 2.0), (n + 1, 2.0)], LE, 3.0),)
    return dataclasses.replace(inst, vars=variables, objective=inst.objective + (-0.1, -0.11), constraints=rows)


def symmetric_instances():
    """Small instances of all five families, binpack under each group kind
    (S_q contains C_q and D_q, so those declarations certify too), and
    binpack with variables outside the grid."""
    binpack = [gen_binpack(5, 3, 6, (1, 3), s) for s in range(3)] + [gen_binpack(4, 4, 5, (1, 3), 2)]
    return [
        *binpack,
        with_outside_pair(binpack[1]),
        *[as_group(inst, kind) for inst in binpack for kind in (pm.CYCLIC, pm.DIHEDRAL)],
        *[gen_item_placement(4, 3, 1, s) for s in range(3)],
        *[gen_smsp(3, 2, 2, s) for s in range(2)],
        gen_pesp(3, 3, 4, 1),
        gen_pesp(3, 2, 5, 2),
        gen_golomb(3, 6),
        gen_golomb(3, 7),
    ]


# The node count of each of symmetric_instances' solves. A box closed
# before its subtree ends, or never, changes them.
TWIN_NODES = (9, 27, 13, 15, 31, 9, 9, 35, 27, 13, 13, 21, 19, 29, 31, 11, 17, 11, 2, 2, 5, 3)
# The same solves when a box closed only on a key equal to that of a fully
# explored box, and each box was propagated from its own bounds.
EQUAL_KEY_NODES = (9, 39, 15, 17, 55, 9, 9, 53, 39, 17, 15, 21, 19, 29, 33, 11, 17, 11, 2, 2, 5, 3)


def same_result(a, b, nodes=True):
    assert (a.status, a.solution, a.bound) == (b.status, b.solution, b.bound)
    if nodes:
        assert a.nodes == b.nodes


def test_twin_pruning_keeps_every_result_with_no_more_nodes():
    pruned = set()
    for inst, nodes, equal_key in zip(symmetric_instances(), TWIN_NODES, EQUAL_KEY_NODES, strict=True):
        got = oracle.solve_bb(inst)
        plain = oracle.solve_bb(dataclasses.replace(inst, symmetry=None))
        same_result(got, plain, nodes=False)
        assert got.nodes == nodes <= equal_key <= plain.nodes, inst.name
        assert got.solution.objective == pytest.approx(oracle.brute_force(inst).solution.objective, abs=1e-9)
        if got.nodes < plain.nodes:
            pruned.add(inst.symmetry.kind)
    assert pruned == set(pm.GROUP_KINDS)


# The incumbent of every node-limited solve below: item_placement's
# nonzero values, then those of the two binpack instances.
PLACEMENT_2 = {4: 1.0, 5: 1.0, 13: 1.0, 17: 1.0, 20: 0.904762, 21: 0.8125, 22: 1.0, 23: 1.0, 24: 0.761905,
               25: 0.9375, 26: 0.761905, 27: 0.4375, 28: 0.571429, 29: 0.8125, 30: 1.0, 31: 1.0}
BINPACK_1 = {0: 1.0, 2: 1.0, 5: 1.0, 8: 1.0, 9: 1.0, 12: 1.0, 17: 1.0}
BINPACK_2 = {1: 1.0, 3: 1.0, 5: 1.0, 11: 1.0, 15: 1.0, 19: 1.0}


def test_node_limited_twin_pruning_keeps_its_results():
    # Each instance closes its first box at its 8th to 11th node, so a box
    # that closes early, late or never moves these cut-short searches.
    LIMIT = oracle.LIMIT_REACHED
    cases = [
        (gen_item_placement(4, 5, 2, 2), 13.3370014, PLACEMENT_2,
         [(10, LIMIT, 10, 13.064001556399997), (20, LIMIT, 20, 13.064001556399997), (30, LIMIT, 30, 13.064001556399996)]),
        (gen_binpack(5, 3, 6, (1, 3), 1), 2.0, BINPACK_1,
         [(10, LIMIT, 10, 1.8333333333333333), (20, LIMIT, 20, 1.8333333333333333), (30, oracle.OPTIMAL, 27, 2.0)]),
        (as_group(gen_binpack(4, 4, 5, (1, 3), 2), pm.CYCLIC), 2.0, BINPACK_2,
         [(10, LIMIT, 10, 1.2), (20, LIMIT, 20, 1.2), (30, oracle.OPTIMAL, 21, 2.0)]),
    ]
    for inst, objective, nonzero, sweep in cases:
        for limit, status, nodes, bound in sweep:
            res = oracle.solve_bb(inst, oracle.SolveLimits(node_limit=limit))
            assert (res.status, res.nodes, res.bound) == (status, nodes, bound), (inst.name, limit)
            assert res.solution.objective == objective, (inst.name, limit)
            assert {i: v for i, v in enumerate(res.solution.values) if v} == nonzero, (inst.name, limit)


def random_element(rng, kind, q):
    if kind == pm.SYMMETRIC:
        return pm.Permutation(tuple(int(i) for i in rng.permutation(q)))
    table = pm.group_table(kind, q)
    return pm.Permutation(tuple(int(i) for i in table[rng.integers(len(table))]))


def random_integral_box(rng, sys_, share=0.3):
    """The system's bounds with a random share of the integral variables fixed."""
    lb, ub = sys_.lb.copy(), sys_.ub.copy()
    for i in np.flatnonzero(sys_.integral):
        if rng.random() < share:
            lb[i] = ub[i] = rng.integers(lb[i], ub[i] + 1)
    return lb, ub


def twin_key(twins, lb, ub):
    """The key solve_bb gives the box (lb, ub) when it propagates the box
    from its own bounds, or None when propagation proves it empty."""
    box = twins.propagate(lb, ub)
    return None if box is None else twins.canonical_key(*box)


def test_canonical_key_is_one_per_orbit():
    rng = np.random.default_rng(21)
    for inst in [gen_item_placement(4, 5, 2, 3), gen_smsp(4, 3, 2, 1), gen_pesp(4, 5, 4, 1), gen_golomb(3, 8),
                 as_group(gen_binpack(6, 4, 6, (1, 3), 0), pm.DIHEDRAL)]:
        sys_ = oracle._System.build(inst)
        twins = oracle._Twins(sys_, inst.symmetry)
        keyed = 0
        for _ in range(40):
            lb, ub = random_integral_box(rng, sys_, share=float(rng.uniform(0.05, 0.4)))
            p = random_element(rng, inst.symmetry.kind, inst.symmetry.q)
            key = twin_key(twins, lb, ub)
            image = permute_values(inst.symmetry, p, lb), permute_values(inst.symmetry, p, ub)
            assert np.array_equal(twin_key(twins, *image), key), inst.name
            keyed += key is not None
        assert keyed >= 10, inst.name
    # Item 0 in bin 0, against item 0 in bin 0 and item 1 in bin 1: no
    # column permutation maps one box onto the other.
    inst = gen_item_placement(4, 5, 2, 3)
    sys_ = oracle._System.build(inst)
    twins = oracle._Twins(sys_, inst.symmetry)
    lb = sys_.lb.copy()
    lb[0] = 1.0
    other = lb.copy()
    other[6] = 1.0
    keys = twin_key(twins, lb, sys_.ub), twin_key(twins, other, sys_.ub)
    assert all(key is not None for key in keys) and not np.array_equal(*keys)


def test_a_box_whose_key_dominates_lies_inside_an_image():
    # key_C >= key_B must mean that every feasible integral point of C has
    # a group image in B. C is drawn inside a random image of B, with more
    # variables fixed, or at random; only pairs whose keys compare count.
    rng = np.random.default_rng(24)
    bins3, bins4 = gen_binpack(3, 3, 4, (1, 3), 0), gen_binpack(3, 4, 4, (1, 3), 1)
    instances = [bins3, as_group(bins3, pm.CYCLIC), as_group(bins4, pm.CYCLIC), as_group(bins4, pm.DIHEDRAL),
                 gen_golomb(3, 5), gen_smsp(2, 2, 2, 0)]
    pairs = strict = 0
    for inst in instances:
        desc = inst.symmetry
        sys_ = oracle._System.build(inst)
        twins = oracle._Twins(sys_, desc)
        enumerate_group = {pm.SYMMETRIC: pm.enumerate_symmetric, pm.CYCLIC: pm.enumerate_cyclic,
                           pm.DIHEDRAL: pm.enumerate_dihedral}[desc.kind]
        elements = enumerate_group(desc.q).elements
        for _ in range(60):
            lb_b, ub_b = random_integral_box(rng, sys_, share=float(rng.uniform(0.0, 0.3)))
            if rng.random() < 0.8:
                p = elements[rng.integers(len(elements))]
                image = permute_values(desc, p, lb_b), permute_values(desc, p, ub_b)
                lb_c, ub_c = random_integral_box(rng, sys_, share=0.15)
                lb_c, ub_c = np.maximum(lb_c, image[0]), np.minimum(ub_c, image[1])
            else:
                lb_c, ub_c = random_integral_box(rng, sys_, share=0.5)
            key_b, key_c = twin_key(twins, lb_b, ub_b), twin_key(twins, lb_c, ub_c)
            if key_b is None or key_c is None or not np.all(key_c >= key_b):
                continue
            pairs += 1
            strict += not np.array_equal(key_c, key_b)
            points = integral_points(lb_c, ub_c)
            act = (sys_.a @ points.T).T
            feasible = points[~((act > sys_.row_upper + FEAS_TOL) | (act < sys_.row_lower - FEAS_TOL)).any(axis=1)]
            for x in feasible:
                images = np.array([permute_values(desc, g, x) for g in elements])
                assert np.any(np.all((images >= lb_b) & (images <= ub_b), axis=1)), inst.name
    assert strict >= 30 and pairs > strict


def integral_points(lb, ub):
    grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(lb, ub)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(float)


def general_integer_instance(rng):
    """Integer variables in [-2, 2] under random rows of every sense; the
    identity grid of degree 2 makes _Twins applicable."""
    n = 4
    variables = tuple(Variable(-2.0, 2.0, "integer", i) for i in range(n))
    rows = []
    for _ in range(3):
        idx = rng.choice(n, size=3, replace=False)
        coeffs = [(int(i), float(rng.uniform(-3, 3))) for i in idx]
        rows.append(make_constraint(coeffs, (LE, GE, EQ)[int(rng.integers(0, 2))], float(rng.uniform(-2, 2))))
    point = rng.integers(-2, 3, size=n)
    coeffs = [(i, float(rng.integers(1, 4))) for i in range(n)]
    rows.append(make_constraint(coeffs, EQ, float(sum(v * point[i] for i, v in coeffs))))
    return IlpInstance("ints", variables, (0.0,) * n, tuple(rows), SymmetryDescriptor(pm.SYMMETRIC, ((0, 1),)), {})


def test_propagation_keeps_every_feasible_integral_point():
    rng = np.random.default_rng(22)
    # x0 = x1 = 1 misses the row by 5e-7, inside FEAS_TOL, so it is feasible.
    knife_edge = IlpInstance(
        "edge", tuple(Variable(0.0, 1.0, "binary", i) for i in range(2)), (0.0, 0.0),
        (make_constraint([(0, 1e-3), (1, 1e-3)], LE, 1.9995e-3),), SymmetryDescriptor(pm.SYMMETRIC, ((0, 1),)), {},
    )
    assert oracle.check_feasible(knife_edge, [1.0, 1.0]) == []
    instances = [knife_edge, gen_binpack(3, 2, 4, (1, 3), 0), gen_smsp(2, 2, 2, 0), gen_golomb(3, 5)]
    instances += [general_integer_instance(rng) for _ in range(6)]
    checked = tightened = 0
    for inst in instances:
        sys_ = oracle._System.build(inst)
        twins = oracle._Twins(sys_, inst.symmetry)
        for _ in range(15):
            lb, ub = random_integral_box(rng, sys_)
            points = integral_points(lb, ub)
            # check_feasible's row test at FEAS_TOL, for all points at once.
            act = (sys_.a @ points.T).T
            feasible = points[~((act > sys_.row_upper + FEAS_TOL) | (act < sys_.row_lower - FEAS_TOL)).any(axis=1)]
            box = twins.propagate(lb, ub)
            if box is None:
                assert not feasible.size, inst.name
                continue
            assert np.all(box[0] >= lb) and np.all(box[1] <= ub)
            tightened += bool(np.any(box[0] > lb) or np.any(box[1] < ub))
            for x in feasible:
                assert np.all(x >= box[0]) and np.all(x <= box[1]), inst.name
            checked += len(feasible)
    assert checked > 0 and tightened > 0


def test_propagation_through_infinite_bounds_stays_finite_and_quiet():
    # x0 integer in [0, 5]; x1 free continuous; x0 + x1 <= 3 and x0 - x1 <= 1
    # bound nothing, since x1 is unbounded both ways. x0 <= 2 does, and the
    # free column must not turn any activity bound into NaN.
    variables = (
        Variable(0.0, 5.0, "integer", 0), Variable(-np.inf, np.inf, "continuous", 1),
        Variable(0.0, 5.0, "integer", 2),
    )
    rows = (
        make_constraint([(0, 1.0), (1, 1.0)], LE, 3.0),
        make_constraint([(0, 1.0), (1, -1.0)], LE, 1.0),
        make_constraint([(0, 1.0), (2, 1.0)], LE, 2.0),
    )
    inst = IlpInstance("free", variables, (0.0, 0.0, 0.0), rows, SymmetryDescriptor(pm.SYMMETRIC, ((0, 2),)), {})
    sys_ = oracle._System.build(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lb, ub = oracle._Twins(sys_, inst.symmetry).propagate(sys_.lb, sys_.ub)
    assert lb.tolist() == [0.0, -np.inf, 0.0]
    assert ub.tolist() == [2.0, np.inf, 2.0]


def test_an_uncertified_group_solves_as_without_a_descriptor():
    # Bins of unequal cost break S_3: with costs (1, 1, 2) the transposition
    # of bins 0 and 1 certifies but the 3-cycle does not.
    for costs in ((1.0, 1.0, 2.0), (1.0, 2.0, 3.0)):
        for seed in range(3):
            inst = gen_binpack(5, 3, 6, (1, 3), seed)
            inst = dataclasses.replace(inst, objective=costs + inst.objective[3:])
            assert not all(check_symmetry(inst, g) for g in oracle._generators(pm.SYMMETRIC, 3))
            same_result(oracle.solve_bb(inst), oracle.solve_bb(dataclasses.replace(inst, symmetry=None)))


def test_pins_and_extra_rows_solve_as_without_a_descriptor():
    rng = np.random.default_rng(23)
    for inst in [gen_binpack(5, 3, 6, (1, 3), s) for s in range(3)] + [gen_item_placement(4, 5, 2, 1)]:
        plain = dataclasses.replace(inst, symmetry=None)
        binaries = inst.binary_indices()
        fixed = {int(i): 0.0 for i in rng.choice(binaries, size=2, replace=False)}
        same_result(oracle.solve_bb(inst, fixed=fixed), oracle.solve_bb(plain, fixed=fixed))
        center = rng.integers(0, 2, size=inst.num_vars)
        ball = (hamming_ball(inst, center, len(binaries) // 2),)
        same_result(oracle.solve_bb(inst, extra_constraints=ball), oracle.solve_bb(plain, extra_constraints=ball))


def test_cut_short_symmetric_solves_sandwich_the_optimum():
    # As in test_bb_agrees_with_brute_force_on_random_instances, on solves
    # that prune twins.
    for inst in [gen_binpack(5, 3, 6, (1, 3), 1), gen_item_placement(4, 3, 1, 2),
                 as_group(gen_binpack(4, 4, 5, (1, 3), 2), pm.CYCLIC)]:
        z = oracle.brute_force(inst).solution.objective
        full = oracle.solve_bb(inst)
        for k in range(1, full.nodes):
            cut = oracle.solve_bb(inst, oracle.SolveLimits(node_limit=k))
            assert cut.status == oracle.LIMIT_REACHED and cut.nodes == k
            assert cut.bound <= z + 1e-6, (inst.name, k)
            assert cut.solution is None or cut.solution.objective >= z - 1e-6, (inst.name, k)
