import numpy as np
import pytest

from symilp import oracle
from symilp import perm as pm
from symilp.bench import binpack_instance, gen_golomb
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
