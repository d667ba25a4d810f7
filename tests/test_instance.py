import dataclasses
import itertools
import json

import numpy as np
import pytest

from symilp import perm as pm
from symilp.bench import binpack_instance, gen_binpack
from symilp.instance import (
    EQ,
    LE,
    Constraint,
    IlpInstance,
    SchemaError,
    Solution,
    SymmetryDescriptor,
    Variable,
    apply_solution_permutation,
    binary_grid,
    check_symmetry,
    instance_from_dict,
    instance_to_dict,
    make_constraint,
    permute_values,
    read_json,
    validate,
    write_json,
)

# Optimal solution from the worked 3-item example, in our variable layout
# (y_0..y_2 then x_ij row-major), plus its five column-permuted equivalents.
X_BASE = (1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0)
X_EQUIVALENTS = [
    (1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0),
    (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1),
    (0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1),
]


@pytest.fixture
def ex1():
    return binpack_instance([1, 2, 3], 3, 3, name="example1")


def tiny_instance(**overrides):
    fields = dict(
        name="tiny",
        vars=tuple(Variable(0.0, 1.0, "binary", i) for i in range(3)),
        objective=(1.0, 0.0, 0.0),
        constraints=(make_constraint([(0, 1.0), (1, 1.0)], LE, 1.0),),
        symmetry=None,
        meta={},
    )
    fields.update(overrides)
    return IlpInstance(**fields)


def test_validate_well_formed(ex1):
    assert validate(tiny_instance()) == []
    assert validate(ex1) == []


def test_validate_flags_out_of_range_index():
    inst = tiny_instance(constraints=(Constraint(((3, 1.0),), LE, 1.0),))
    assert any("out of range" in v for v in validate(inst))


def test_validate_flags_duplicate_grid():
    desc = SymmetryDescriptor(pm.SYMMETRIC, ((0, 0),))
    inst = tiny_instance(symmetry=desc)
    assert any("not injective" in v for v in validate(inst))


def test_validate_flags_bad_bounds():
    inst = tiny_instance(vars=(Variable(2.0, 1.0, "binary", 0),) + tiny_instance().vars[1:])
    problems = validate(inst)
    assert any("lb" in v for v in problems)
    assert any("binary bounds" in v for v in problems)


def test_binary_grid_keeps_all_binary_rows():
    variables = tuple(Variable(0.0, 1.0, "binary", i) for i in range(4)) + (
        Variable(0.0, 3.0, "integer", 4),
        Variable(0.0, 3.0, "integer", 5),
    )
    desc = SymmetryDescriptor(pm.SYMMETRIC, ((0, 1), (4, 5), (2, 3)))
    inst = tiny_instance(vars=variables, objective=(0.0,) * 6, symmetry=desc)
    assert binary_grid(inst).tolist() == [[0, 1], [2, 3]]
    only_integer = SymmetryDescriptor(pm.SYMMETRIC, ((4, 5),))
    assert binary_grid(tiny_instance(vars=variables, objective=(0.0,) * 6, symmetry=only_integer)) is None
    assert binary_grid(tiny_instance()) is None
    single_column = SymmetryDescriptor(pm.SYMMETRIC, ((0,), (1,)))
    assert binary_grid(tiny_instance(symmetry=single_column)) is None


def test_json_round_trip(tmp_path, ex1):
    path = tmp_path / "ex1.json"
    write_json(ex1, path)
    assert read_json(path) == ex1


def test_json_round_trip_no_symmetry(tmp_path):
    inst = tiny_instance()
    path = tmp_path / "t.json"
    write_json(inst, path)
    back = read_json(path)
    assert back == inst
    assert back.symmetry is None


def test_json_errors_are_distinct(tmp_path, ex1):
    missing = tmp_path / "nope.json"
    with pytest.raises(FileNotFoundError):
        read_json(missing)

    truncated = tmp_path / "trunc.json"
    full = json.dumps(instance_to_dict(ex1))
    truncated.write_text(full[: len(full) // 2])
    with pytest.raises(json.JSONDecodeError):
        read_json(truncated)

    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text('{"name": "x"}')
    with pytest.raises(SchemaError):
        read_json(bad_schema)


def test_schema_rejects_invalid_instance():
    doc = instance_to_dict(tiny_instance())
    doc["constraints"][0]["coeffs"] = [[99, 1.0]]
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_schema_version_is_checked_when_present():
    doc = instance_to_dict(tiny_instance())
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="schema_version 99"):
        instance_from_dict(doc)
    del doc["schema_version"]
    assert instance_from_dict(doc) == tiny_instance()


def test_identity_permutation_keeps_solution(ex1):
    sol = Solution(tuple(map(float, X_BASE)), 2.0)
    out = apply_solution_permutation(ex1, pm.identity(3), sol)
    assert out == sol


def test_bin_swap_lands_in_equivalent_set(ex1):
    sol = Solution(tuple(map(float, X_BASE)), 2.0)
    swap = pm.Permutation((1, 0, 2))
    out = apply_solution_permutation(ex1, swap, sol)
    assert out.objective == 2.0
    assert tuple(int(v) for v in out.values) in X_EQUIVALENTS


def test_full_orbit_is_base_plus_equivalents(ex1):
    sol = Solution(tuple(map(float, X_BASE)), 2.0)
    orbit = {
        tuple(int(v) for v in apply_solution_permutation(ex1, p, sol).values)
        for p in pm.enumerate_symmetric(3).elements
    }
    assert orbit == {X_BASE, *map(tuple, X_EQUIVALENTS)}


def test_cyclic_rotation_moves_columns():
    desc = SymmetryDescriptor(pm.CYCLIC, ((0, 1, 2),))
    vals = np.array([10.0, 20.0, 30.0, 99.0])
    rho = pm.rotation(3)
    out = permute_values(desc, rho, vals)
    assert out.tolist() == [20.0, 30.0, 10.0, 99.0]


def test_permutation_degree_mismatch(ex1):
    sol = Solution(tuple(map(float, X_BASE)), 2.0)
    with pytest.raises(ValueError):
        apply_solution_permutation(ex1, pm.identity(2), sol)
    with pytest.raises(ValueError):
        check_symmetry(ex1, pm.identity(2))


def test_missing_descriptor_raises():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        check_symmetry(inst, pm.identity(3))


def _enumerate_assignments(instance):
    n = instance.num_vars
    for bits in itertools.product((0.0, 1.0), repeat=n):
        yield np.array(bits)


def _feasible(instance, vals):
    for con in instance.constraints:
        lhs = sum(v * vals[i] for i, v in con.coeffs)
        if con.sense == LE and lhs > con.rhs + 1e-9:
            return False
        if con.sense == EQ and abs(lhs - con.rhs) > 1e-9:
            return False
    return True


def test_check_symmetry_true_for_all_bin_swaps(ex1):
    # Syntactic certificate, then the semantic meaning verified by brute
    # force over all 2^12 assignments: every feasible point maps to a
    # feasible point of equal objective.
    obj = np.asarray(ex1.objective)
    for p in pm.enumerate_symmetric(3).elements:
        assert check_symmetry(ex1, p)
        for vals in _enumerate_assignments(ex1):
            if not _feasible(ex1, vals):
                continue
            moved = permute_values(ex1.symmetry, p, vals)
            assert _feasible(ex1, moved)
            assert float(obj @ moved) == float(obj @ vals)


def test_check_symmetry_of_several_elements_is_the_and_of_single_calls(ex1):
    # With bin costs (1, 1, 2) the transposition of bins 0 and 1 passes and
    # the 3-cycle fails, so every call that lists the 3-cycle fails.
    uneven = gen_binpack(5, 3, 6, (1, 3), 0)
    uneven = dataclasses.replace(uneven, objective=(1.0, 1.0, 2.0) + uneven.objective[3:])
    swap, cycle = pm.Permutation((1, 0, 2)), pm.rotation(3)
    assert check_symmetry(uneven, swap) and not check_symmetry(uneven, cycle)
    elements = (swap, cycle, pm.reflection(3), pm.identity(3))
    for inst in (ex1, uneven):
        for k in (1, 2, 3):
            for perms in itertools.product(elements, repeat=k):
                assert check_symmetry(inst, *perms) == all(check_symmetry(inst, p) for p in perms)
    with pytest.raises(ValueError, match="no group element"):
        check_symmetry(ex1)
    # A wrong degree raises even after an element that fails.
    with pytest.raises(ValueError, match="degree"):
        check_symmetry(uneven, cycle, pm.identity(2))


def test_check_symmetry_false_on_wrong_axis(ex1):
    # Swapping the size-1 and size-3 item rows is no symmetry: a bin holding
    # items {1,2} (load 3) would end up holding {3,2} (load 5).
    item_grid = tuple(tuple(3 + 3 * i + j for i in range(3)) for j in range(3))
    wrong = IlpInstance(
        ex1.name,
        ex1.vars,
        ex1.objective,
        ex1.constraints,
        SymmetryDescriptor(pm.SYMMETRIC, item_grid),
        {},
    )
    swap_items = pm.Permutation((2, 1, 0))
    assert not check_symmetry(wrong, swap_items)
    # Semantic witness: some feasible assignment becomes infeasible.
    broken = False
    for vals in _enumerate_assignments(ex1):
        if _feasible(ex1, vals) and not _feasible(
            ex1, permute_values(wrong.symmetry, swap_items, vals)
        ):
            broken = True
            break
    assert broken
