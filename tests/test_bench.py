import dataclasses
import itertools
import json

import numpy as np
import pytest

from symilp import bench, oracle
from symilp import perm as pm
from symilp.instance import Solution, Variable, apply_solution_permutation, check_symmetry, validate


def orbit_stays_feasible(inst, solution, elements):
    for p in elements:
        moved = apply_solution_permutation(inst, p, solution)
        if oracle.check_feasible(inst, moved.values):
            return False
        if abs(moved.objective - solution.objective) > 1e-9:
            return False
    return True


def enumerable_elements(inst, symmetric_cap=6):
    desc = inst.symmetry
    if desc.kind == pm.CYCLIC:
        return pm.enumerate_cyclic(desc.q).elements
    if desc.kind == pm.DIHEDRAL:
        return pm.enumerate_dihedral(desc.q).elements
    if desc.q <= symmetric_cap:
        return pm.enumerate_symmetric(desc.q).elements
    return tuple(pm.enumerate_cyclic(desc.q).elements)  # subgroup spot check


# ---------------------------------------------------------------------------
# binpack


def test_binpack_worked_example_structure():
    inst = bench.binpack_instance([1, 2, 3], 3, 3)
    assert inst.num_vars == 12
    assert inst.num_constraints == 6
    assert inst.symmetry.kind == pm.SYMMETRIC
    assert inst.symmetry.q == 3
    res = oracle.brute_force(inst)
    assert res.solution.objective == 2.0


def test_binpack_single_item():
    inst = bench.binpack_instance([2], 1, 3)
    res = oracle.brute_force(inst)
    assert res.solution.objective == 1.0


def test_binpack_all_s3_elements_certified():
    inst = bench.binpack_instance([1, 2, 3], 3, 3)
    for p in pm.enumerate_symmetric(3).elements:
        assert check_symmetry(inst, p)


def test_gen_binpack_deterministic_and_capped():
    a = bench.gen_binpack(4, 3, 5, (1, 4), seed=11)
    b = bench.gen_binpack(4, 3, 5, (1, 4), seed=11)
    assert a == b
    with pytest.raises(ValueError):
        bench.binpack_instance([1] * 200, 30, 5)


# ---------------------------------------------------------------------------
# item placement


def test_item_placement_symmetry_and_feasibility():
    for seed in range(5):
        inst = bench.gen_item_placement(6, 4, 2, seed=seed)
        assert validate(inst) == []
        for p in pm.enumerate_symmetric(4).elements:
            assert check_symmetry(inst, p)
        res = oracle.solve_bb(inst)
        assert res.status == oracle.OPTIMAL
        assert orbit_stays_feasible(inst, res.solution, pm.enumerate_symmetric(4).elements)


def test_item_placement_single_bin_trivial_group():
    inst = bench.gen_item_placement(4, 1, 2, seed=0)
    assert inst.symmetry.q == 1


# ---------------------------------------------------------------------------
# smsp


def test_smsp_slab_swap_certified():
    for seed in range(5):
        inst = bench.gen_smsp(5, 3, 3, seed=seed)
        for p in pm.enumerate_symmetric(3).elements:
            assert check_symmetry(inst, p)


def test_smsp_two_orders_one_slab():
    # Two light orders of one color: packing them together costs the small
    # level; the slab swap maps optima to optima.
    inst = bench.gen_smsp(2, 2, 1, seed=1)
    res, all_opt = oracle.brute_force(inst, collect_all=True)
    assert res.status == oracle.OPTIMAL
    w = inst.meta["weights"]
    levels = inst.meta["levels"]
    best_single = min(u for u in levels if u >= w[0] + w[1])
    assert res.solution.objective == pytest.approx(best_single)
    swap = pm.Permutation((1, 0))
    values = {s.values for s in all_opt}
    for s in all_opt:
        assert apply_solution_permutation(inst, swap, s).values in values


def test_smsp_three_colors_on_one_slab_infeasible():
    inst = bench.gen_smsp(3, 3, 3, seed=2)
    colors = inst.meta["colors"]
    if len(set(colors)) < 3:
        pytest.skip("seed did not draw three distinct colors")
    s_n = 3
    fixed = {}
    for o in range(3):
        for s in range(s_n):
            fixed[o * s_n + s] = 1.0 if s == 0 else 0.0
    res = oracle.solve_bb(inst, fixed=fixed)
    assert res.status == oracle.INFEASIBLE


def test_smsp_orbit_of_label():
    inst = bench.gen_smsp(4, 3, 3, seed=3)
    res = oracle.solve_bb(inst)
    assert orbit_stays_feasible(inst, res.solution, pm.enumerate_symmetric(3).elements)


# ---------------------------------------------------------------------------
# pesp


def brute_force_timetables(inst):
    """Independent oracle: enumerate all T^E timetables on the hidden model."""
    meta = inst.meta
    e_n, t_n = meta["events"], meta["period"]
    acts = meta["activities"]
    best = np.inf
    feasible = []
    for times in itertools.product(range(t_n), repeat=e_n):
        obj = 0.0
        ok = True
        for a, (i, j) in enumerate(acts):
            delta = (times[j] - times[i]) % t_n
            if delta > meta["widths"][a]:
                ok = False
                break
            obj += meta["weights"][a] * (delta + meta["lowers"][a])
        if ok:
            feasible.append((times, obj))
            best = min(best, obj)
    return best, feasible


def timetable_to_values(inst, times):
    meta = inst.meta
    e_n, t_n = meta["events"], meta["period"]
    vals = np.zeros(inst.num_vars)
    for i, t in enumerate(times):
        vals[i * t_n + t] = 1.0
    for a, (i, j) in enumerate(meta["activities"]):
        delta = (times[j] - times[i]) % t_n
        vals[meta["s_offsets"][a] + delta] = 1.0
    return vals


def test_pesp_two_events_zero_window():
    # One activity with a zero-width window pins both events to equal times;
    # all rotations of any feasible timetable remain feasible at equal cost.
    found = None
    for seed in range(40):
        inst = bench.gen_pesp(2, 1, 4, seed=seed)
        if inst.meta["widths"][0] == 0:
            found = inst
            break
    assert found is not None
    inst = found
    best, feas = brute_force_timetables(inst)
    assert len(feas) == 4
    assert all(t[0] == t[1] for t, _ in feas)
    assert all(obj == pytest.approx(best) for _, obj in feas)
    res = oracle.brute_force(inst)
    assert res.solution.objective == pytest.approx(best)
    sol = res.solution
    assert orbit_stays_feasible(inst, sol, pm.enumerate_cyclic(4).elements)


def test_pesp_matches_timetable_enumeration():
    for seed in (1, 5):
        inst = bench.gen_pesp(3, 3, 4, seed=seed)
        best, _ = brute_force_timetables(inst)
        res = oracle.solve_bb(inst)
        assert res.status == oracle.OPTIMAL
        assert res.solution.objective == pytest.approx(best, abs=1e-9)


def test_pesp_all_rotations_certified():
    for seed in range(5):
        inst = bench.gen_pesp(3, 3, 5, seed=seed)
        for p in pm.enumerate_cyclic(5).elements:
            assert check_symmetry(inst, p)


def test_pesp_shift_preserves_objective():
    inst = bench.gen_pesp(3, 2, 5, seed=9)
    _, feas = brute_force_timetables(inst)
    times, obj = feas[0]
    shifted = tuple((t + 1) % 5 for t in times)
    vals = timetable_to_values(inst, times)
    svals = timetable_to_values(inst, shifted)
    assert oracle.check_feasible(inst, vals) == []
    assert oracle.check_feasible(inst, svals) == []
    assert inst.objective_value(vals) == pytest.approx(inst.objective_value(svals))


# ---------------------------------------------------------------------------
# pesp perturbation


def test_perturb_reproducible_and_changes_weights():
    base = bench.gen_pesp(3, 3, 5, seed=4)
    a = bench.perturb_pesp(base, seed=7)
    b = bench.perturb_pesp(base, seed=7)
    assert a == b
    assert a.meta["weights"] != base.meta["weights"]
    assert a.constraints == base.constraints
    assert a.symmetry == base.symmetry


def test_perturb_literal_roughly_doubles_weights():
    base = bench.gen_pesp(3, 3, 5, seed=4)
    ratios = []
    for seed in range(30):
        pert = bench.perturb_pesp(base, seed=seed)
        ratios.extend(np.asarray(pert.meta["weights"]) / np.asarray(base.meta["weights"]))
    assert 1.8 < float(np.mean(ratios)) < 2.2


def test_perturb_centered_stays_near_original():
    base = bench.gen_pesp(3, 3, 5, seed=4)
    ratios = []
    for seed in range(30):
        pert = bench.perturb_pesp(base, seed=seed, centered=True)
        ratios.extend(np.asarray(pert.meta["weights"]) / np.asarray(base.meta["weights"]))
    assert 0.9 < float(np.mean(ratios)) < 1.1


def test_perturb_keeps_symmetry():
    base = bench.gen_pesp(3, 3, 5, seed=4)
    pert = bench.perturb_pesp(base, seed=3)
    for p in pm.enumerate_cyclic(5).elements:
        assert check_symmetry(pert, p)


def test_perturb_rejects_other_families():
    with pytest.raises(ValueError):
        bench.perturb_pesp(bench.binpack_instance([1], 1, 2), seed=0)


# ---------------------------------------------------------------------------
# golomb


def test_golomb_known_placement_feasible():
    inst = bench.gen_golomb(3, 8)
    vals = np.zeros(inst.num_vars)
    for tick, pos in enumerate((0, 1, 3)):
        vals[tick * 8 + pos] = 1.0
    assert oracle.check_feasible(inst, vals) == []


def test_golomb_equal_distances_infeasible():
    inst = bench.gen_golomb(3, 8)
    vals = np.zeros(inst.num_vars)
    for tick, pos in enumerate((0, 2, 4)):  # distances 2, 2, 4
        vals[tick * 8 + pos] = 1.0
    assert oracle.check_feasible(inst, vals) != []


def test_golomb_full_dihedral_group_certified():
    for t_n in (6, 8):
        inst = bench.gen_golomb(3, t_n)
        for p in pm.enumerate_dihedral(t_n).elements:
            assert check_symmetry(inst, p)


def test_golomb_rotation_and_reflection_of_solution_feasible():
    inst = bench.gen_golomb(3, 8)
    res = oracle.solve_bb(inst)
    assert res.status == oracle.OPTIMAL
    assert orbit_stays_feasible(inst, res.solution, pm.enumerate_dihedral(8).elements)


def test_golomb_matches_placement_enumeration():
    # Independent oracle: enumerate all 8^3 tick placements directly.
    inst = bench.gen_golomb(3, 8)
    def circ(a, b):
        d = abs(a - b) % 8
        return min(d, 8 - d)
    ok_placements = set()
    for p in itertools.product(range(8), repeat=3):
        d01, d02, d12 = circ(p[0], p[1]), circ(p[0], p[2]), circ(p[1], p[2])
        if d01 != d02 and d01 != d12 and d02 != d12:
            ok_placements.add(p)
    assert ok_placements
    _, all_opt = oracle.brute_force(inst, collect_all=True)
    got = set()
    for s in all_opt:
        vals = np.asarray(s.values)
        got.add(tuple(int(np.argmax(vals[i * 8 : (i + 1) * 8])) for i in range(3)))
    assert got == ok_placements


# ---------------------------------------------------------------------------
# datasets


def test_build_dataset_split_and_labels(tmp_path):
    # sizes <= capacity/2 with bins >= items/2: always feasible, no drops
    spec = bench.GenSpec("binpack", 10, 3, {"items": 4, "bins": 3, "capacity": 6, "size_range": [1, 3]})
    manifest = bench.build_dataset(spec, str(tmp_path))
    assert len(manifest["train"]) == 8
    assert len(manifest["test"]) == 2
    assert set(manifest["val"]) <= set(manifest["train"])
    for name in manifest["train"] + manifest["test"]:
        from symilp.instance import read_json

        inst = read_json(tmp_path / "instances" / f"{name}.json")
        with open(tmp_path / "labels" / f"{name}.json") as fh:
            label = json.load(fh)
        assert oracle.check_feasible(inst, label["values"]) == []


def test_build_dataset_reproducible_bytes(tmp_path):
    spec = bench.GenSpec("binpack", 6, 5, {"items": 4, "bins": 3, "capacity": 6, "size_range": [1, 3]})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    bench.build_dataset(spec, str(d1))
    bench.build_dataset(spec, str(d2))
    m1 = (d1 / "manifest.json").read_bytes()
    m2 = (d2 / "manifest.json").read_bytes()
    assert m1 == m2
    for sub in ("instances", "labels"):
        for f in sorted((d1 / sub).iterdir()):
            assert f.read_bytes() == (d2 / sub / f.name).read_bytes()


def test_build_dataset_parallel_labels_match_serial(tmp_path):
    spec = bench.GenSpec("binpack", 4, 5, {"items": 4, "bins": 3, "capacity": 6, "size_range": [1, 3]})
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    bench.build_dataset(spec, str(serial), workers=1)
    bench.build_dataset(spec, str(parallel), workers=2)
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file()) == files
    assert {"manifest.json", "instances", "labels"} == {p.parts[0] for p in files}
    for rel in files:
        assert (parallel / rel).read_bytes() == (serial / rel).read_bytes()


def test_generated_instances_are_validated():
    inst = bench.binpack_instance([1, 2], 2, 3, name="broken")
    broken = dataclasses.replace(inst, vars=(Variable(1.0, 0.0, "binary", 0),) + inst.vars[1:])
    with pytest.raises(ValueError, match="generated instance broken is invalid: var 0"):
        bench._validated(broken)
    assert bench._validated(inst) is inst


def test_genspec_validation():
    with pytest.raises(ValueError):
        bench.GenSpec("knapsack", 5, 0, {})
    with pytest.raises(ValueError):
        bench.GenSpec("binpack", 0, 0, {})
    with pytest.raises(ValueError):
        bench.GenSpec("binpack", 5, 0, {}, perturb="literal")


def test_genspec_rejects_reversed_ranges():
    # Reversed spans used to divide by zero (golomb 7:6), silently keep lo
    # (golomb 8:6) or fail inside numpy without naming the parameter.
    for family, key, params in (
        ("golomb", "circumference", {"ticks": 3}),
        ("item_placement", "bins", {"items": 4, "resources": 2}),
    ):
        for span in ([7, 6], [8, 6], (4, 3)):
            with pytest.raises(ValueError, match=f"{key} range .* is reversed"):
                bench.GenSpec(family, 2, 0, {**params, key: span})
        bench.GenSpec(family, 2, 0, {**params, key: [6, 6]})


def test_genspec_allows_a_range_only_where_the_family_draws_from_it():
    # binpack takes one bin count; a range used to fail later with a TypeError.
    with pytest.raises(ValueError, match="binpack: bins takes a single value, not a range"):
        bench.GenSpec("binpack", 2, 0, {"items": 4, "bins": [3, 4], "capacity": 6, "size_range": [1, 3]})
    with pytest.raises(ValueError, match="pesp: circumference takes a single value"):
        bench.GenSpec("pesp", 2, 0, {"events": 3, "activities": 3, "period": 5, "circumference": [6, 7]})
    bench.GenSpec("item_placement", 2, 0, {"items": 4, "bins": [3, 4], "resources": 2})
    bench.GenSpec("golomb", 2, 0, {"ticks": 3, "circumference": [6, 7]})
