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
    GE,
    LE,
    IlpInstance,
    Variable,
    make_constraint,
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


def cross_check_systems():
    placement = gen_item_placement(4, 5, 2, seed=3)
    center = np.random.default_rng(5).integers(0, 2, size=placement.num_vars)
    instances = [
        (gen_binpack(4, 3, 6, (1, 3), seed=1), ()),
        (placement, ()),
        (gen_smsp(4, 3, 2, seed=1), ()),
        (gen_pesp(4, 5, 4, seed=1), ()),
        (gen_golomb(3, 8), ()),
        (placement, (hamming_ball(placement, center, 3),)),
    ]
    return [oracle._DenseSystem.build(inst, extra) for inst, extra in instances]


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
        sys_ = oracle._DenseSystem.build(inst)
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

    monkeypatch.setattr(oracle, "_HighsLp", refuse)
    assert oracle.check_feasible(ex1, X_BASE) == []
    res = oracle.brute_force(ex1)
    assert res.status == oracle.OPTIMAL and res.lp_ms == 0.0


# ---------------------------------------------------------------------------
# branch and bound


def test_bb_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(99)
    solved = 0
    while solved < 30:
        inst = random_binary_instance(rng, int(rng.integers(6, 13)), int(rng.integers(3, 8)))
        bf = oracle.brute_force(inst)
        bb = oracle.solve_bb(inst)
        assert bb.status == bf.status
        if bf.status == oracle.OPTIMAL:
            assert bb.solution.objective == pytest.approx(bf.solution.objective, abs=1e-9)
            oracle.solve_bb(inst, debug_optimum=bf.solution.objective)
            solved += 1


def test_bb_debug_optimum_violations_raise(ex1):
    # ex1's optimum is 2 bins; a claimed optimum on either side of it breaks
    # the sandwich, and the check raises rather than asserts.
    with pytest.raises(RuntimeError, match="below the known optimum"):
        oracle.solve_bb(ex1, debug_optimum=3.0)
    with pytest.raises(RuntimeError, match="exceeds known optimum"):
        oracle.solve_bb(ex1, debug_optimum=1.0)


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
    with pytest.raises(ValueError):
        oracle.SolveLimits(time_limit_ms=0)
