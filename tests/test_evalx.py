import itertools

import numpy as np
import pytest

from symilp import bench, evalx, oracle
from symilp import perm as pm
from symilp.instance import permute_values


@pytest.fixture(scope="module")
def labeled_ex1():
    inst = bench.binpack_instance([1, 2, 3], 3, 3)
    res = oracle.solve_bb(inst)
    return inst, np.asarray(res.solution.values)


def harden(vals, eps=0.01):
    return np.clip(vals, eps, 1 - eps)


# ---------------------------------------------------------------------------
# nearest_equivalent


def test_nearest_equivalent_exact_match(labeled_ex1):
    inst, label = labeled_ex1
    tilde = evalx.nearest_equivalent(harden(label), label, inst)
    assert np.array_equal(tilde, label)


def test_nearest_equivalent_orbit_member_has_zero_distance(labeled_ex1):
    inst, label = labeled_ex1
    for p in pm.enumerate_symmetric(3).elements:
        moved = permute_values(inst.symmetry, p, label)
        tilde = evalx.nearest_equivalent(harden(moved), label, inst)
        assert np.array_equal(tilde, moved)


def test_nearest_equivalent_matches_exhaustive_search():
    rng = np.random.default_rng(2)
    inst = bench.gen_item_placement(4, 5, 2, seed=0)
    label_res = oracle.solve_bb(inst)
    label = np.asarray(label_res.solution.values)
    grid = np.asarray(
        [r for r in inst.symmetry.grid if all(inst.vars[i].kind == "binary" for i in r)]
    )
    for _ in range(10):
        pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
        tilde = evalx.nearest_equivalent(pred, label, inst)
        best = min(
            float(np.sum((pred[grid] - permute_values(inst.symmetry, pm.Permutation(q), label)[grid]) ** 2))
            for q in itertools.permutations(range(5))
        )
        got = float(np.sum((pred[grid] - tilde[grid]) ** 2))
        assert got == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# top_m_error


def test_top_m_zero_on_any_permuted_label(labeled_ex1):
    inst, label = labeled_ex1
    for p in pm.enumerate_symmetric(3).elements:
        pred = harden(permute_values(inst.symmetry, p, label))
        for m in (10, 30, 50, 70, 90, 100):
            assert evalx.top_m_error(pred, label, inst, m) == 0.0


def test_top_m_confident_and_wrong_counts_everything():
    # Trivial group: the nearest equivalent is the label itself, and a
    # confidently complemented prediction misses every target.
    inst = bench.binpack_instance([2], 1, 3)  # q=1, trivial group
    res = oracle.solve_bb(inst)
    label = np.asarray(res.solution.values)
    pred = harden(1.0 - label)
    n_targets = len(inst.binary_indices())
    assert evalx.top_m_error(pred, label, inst, 100) == n_targets


def test_top_m_matches_direct_enumeration(labeled_ex1):
    inst, label = labeled_ex1
    rng = np.random.default_rng(8)
    grid = inst.symmetry.grid_array()
    targets = np.asarray(inst.binary_indices())
    for _ in range(20):
        pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
        for m in (25, 50, 100):
            got = evalx.top_m_error(pred, label, inst, m)
            # oracle: best orbit element by squared distance on the grid,
            # then the m% least-confident targets
            best_d, tilde = None, None
            for q in pm.enumerate_symmetric(3).elements:
                cand = permute_values(inst.symmetry, q, label)
                d = float(np.sum((pred[grid] - cand[grid]) ** 2))
                if best_d is None or d < best_d - 1e-12:
                    best_d, tilde = d, cand
            gaps = np.abs(np.round(pred[targets]) - pred[targets])
            keep = max(1, int(round(m / 100 * targets.size)))
            order = np.argsort(-gaps, kind="stable")[:keep]
            expected = float(
                np.sum(np.abs(np.round(pred[targets[order]]) - tilde[targets[order]]))
            )
            assert got == pytest.approx(expected, abs=1e-12)


def test_top_m_orbit_invariance(labeled_ex1):
    inst, label = labeled_ex1
    rng = np.random.default_rng(5)
    pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
    base = [evalx.top_m_error(pred, label, inst, m) for m in (30, 70)]
    for p in pm.enumerate_symmetric(3).elements:
        relabeled = permute_values(inst.symmetry, p, label)
        assert [evalx.top_m_error(pred, relabeled, inst, m) for m in (30, 70)] == base


def test_top_m_naive_at_least_nearest(labeled_ex1):
    inst, label = labeled_ex1
    rng = np.random.default_rng(6)
    trivial = bench.binpack_instance([1, 2, 3], 3, 3)
    trivial = type(inst)(
        trivial.name, trivial.vars, trivial.objective, trivial.constraints, None, {}
    )
    for _ in range(20):
        pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
        nearest = evalx.top_m_error(pred, label, inst, 100)
        naive = evalx.top_m_error(pred, label, trivial, 100)
        assert naive >= nearest - 1e-12


def test_top_m_rejects_bad_m(labeled_ex1):
    inst, label = labeled_ex1
    with pytest.raises(ValueError):
        evalx.top_m_error(label, label, inst, 0)
    with pytest.raises(ValueError):
        evalx.top_m_error(label, label, inst, 101)


# ---------------------------------------------------------------------------
# scalar metrics


def test_primal_gap_zero_on_equal():
    assert evalx.primal_gap(100.0, 100.0) == 0.0


def test_primal_gap_arithmetic():
    assert evalx.primal_gap(110.0, 100.0) == pytest.approx(0.1, abs=1e-12)


def test_primal_gap_zero_best_guarded():
    assert evalx.primal_gap(3.0, 0.0) == pytest.approx(3.0 / 1e-10)
    assert evalx.primal_gap(0.0, 0.0) == 0.0


def test_primal_gap_zero_within_solver_tolerance():
    # The same optimum reached along two LP paths: 0.1 + 0.2 != 0.3 in
    # binary floating point, but both are within oracle.ABS_GAP.
    assert 0.1 + 0.2 != 0.3
    assert evalx.primal_gap(0.1 + 0.2, 0.3) == 0.0
    assert evalx.primal_gap(-7.0 + 1e-15, -7.0) == 0.0
    # Just past the tolerance the relative gap is reported again.
    tol = oracle.ABS_GAP
    assert evalx.primal_gap(1.0 + 2 * tol, 1.0) > 0.0


def test_gain_undefined_for_round_off_gaps():
    gap_r = evalx.primal_gap(0.1 + 0.2, 0.3)
    gap_rs = evalx.primal_gap(5.0 - 4e-16, 5.0)
    assert evalx.gain(gap_r, gap_rs) is None


def test_gain_values():
    assert evalx.gain(0.5, 0.5) == 0.0
    assert evalx.gain(0.5, 0.0) == 1.0
    assert evalx.gain(0.0, 0.1) is None
    # Reported fix-and-optimize row: 0.201 vs 0.124 gives a 38.3% gain,
    # matching the published 38.4% up to rounding of the source gaps.
    g = evalx.gain(0.201, 0.124)
    assert g == pytest.approx(0.383, abs=1e-3)
    assert g == pytest.approx(0.384, abs=1.5e-3)


# ---------------------------------------------------------------------------
# repair heuristics


def test_fix_and_optimize_alpha_zero_is_plain_solve(labeled_ex1):
    inst, label = labeled_ex1
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
    plain = oracle.solve_bb(inst)
    repaired = evalx.fix_and_optimize(inst, pred, 0.0)
    assert repaired.status == plain.status
    assert repaired.solution.objective == plain.solution.objective


def test_fix_and_optimize_alpha_one_with_label(labeled_ex1):
    inst, label = labeled_ex1
    pred = harden(label, 0.05)
    res = evalx.fix_and_optimize(inst, pred, 1.0)
    assert res.status == oracle.OPTIMAL
    assert np.allclose(res.solution.values, label)
    assert evalx.primal_gap(res.solution.objective, inst.objective_value(label)) == 0.0


def test_fix_and_optimize_retries_on_infeasible_fixing(labeled_ex1):
    inst, label = labeled_ex1
    # Confidently all-ones: every y_j = x_ij = 1 violates the partition rows
    # when fixed, so the retry loop must relax the fixing.
    pred = np.full(inst.num_vars, 0.99)
    res = evalx.fix_and_optimize(inst, pred, 1.0)
    assert res.status in (oracle.OPTIMAL, oracle.FEASIBLE)


def test_fix_and_optimize_validates_alpha(labeled_ex1):
    inst, label = labeled_ex1
    with pytest.raises(ValueError):
        evalx.fix_and_optimize(inst, label, -0.1)


def test_local_branching_beta_one_is_plain_solve(labeled_ex1):
    inst, label = labeled_ex1
    rng = np.random.default_rng(4)
    pred = rng.uniform(0.01, 0.99, size=inst.num_vars)
    plain = oracle.solve_bb(inst)
    res = evalx.local_branching(inst, pred, 1.0)
    assert res.solution.objective == plain.solution.objective


def test_local_branching_contains_center(labeled_ex1):
    inst, label = labeled_ex1
    pred = harden(label, 0.05)
    res = evalx.local_branching(inst, pred, 0.1)
    assert res.status == oracle.OPTIMAL
    assert res.solution.objective <= inst.objective_value(label) + 1e-9


def test_local_branching_validates_beta(labeled_ex1):
    inst, label = labeled_ex1
    with pytest.raises(ValueError):
        evalx.local_branching(inst, label, 0.0)


# ---------------------------------------------------------------------------
# reports


def test_metrics_csv_and_summary(tmp_path, labeled_ex1):
    inst, label = labeled_ex1
    from symilp import train as train_mod

    sample = train_mod.make_sample("a", inst, label)
    records = evalx.evaluate_predictions([sample], [harden(label)], m_list=(50, 100))
    evalx.write_metrics_csv(str(tmp_path / "metrics.csv"), records, m_list=(50, 100))
    summary = evalx.write_summary_json(str(tmp_path / "summary.json"), records, m_list=(50, 100))
    assert summary["top50_mean"] == 0.0
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "instance,top50,top100,gap,wall_ms"


def test_evaluate_predictions_aligns_once_and_matches_top_m_error(monkeypatch):
    from symilp import align
    from symilp import train as train_mod

    rng = np.random.default_rng(8)
    inst = bench.gen_item_placement(4, 5, 2, seed=1)
    label = np.asarray(oracle.solve_bb(inst).solution.values)
    samples = [train_mod.make_sample(f"s{k}", inst, label) for k in range(3)]
    preds = [rng.uniform(0.01, 0.99, size=inst.num_vars) for _ in samples]
    m_list = evalx.DEFAULT_M_LIST
    calls = []
    real = align.best_perm
    monkeypatch.setattr(align, "best_perm", lambda problem: calls.append(1) or real(problem))
    records = evalx.evaluate_predictions(samples, preds, m_list)
    assert len(calls) == len(samples)
    for rec, pred in zip(records, preds):
        expected = [evalx.top_m_error(pred, label, inst, m) for m in m_list]
        assert [rec.top_m[m] for m in m_list] == expected
        assert all(type(v) is float for v in rec.top_m.values())
