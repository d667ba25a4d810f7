import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from symilp import align
from symilp import perm as pm


def brute_force_best(xhat, x, loss, elements):
    """Independent oracle: evaluate every permutation directly."""
    best = None
    best_val = np.inf
    for p in elements:
        val = align.permuted_loss(xhat, x, p, loss)
        if val < best_val or (val == best_val and p.mapping < best.mapping):
            best, best_val = p, val
    return best, best_val


def all_perms(q):
    return [pm.Permutation(p) for p in itertools.permutations(range(q))]


def soften(x, eps=0.01):
    return np.clip(x, eps, 1 - eps)


# ---------------------------------------------------------------------------
# Cost matrices


def test_cost_se_identity_optimal():
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w = align.build_cost_se(soften(x), x)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert w[a, a] < w[a, b]


def test_cost_se_two_column_arithmetic():
    x = np.array([[1.0, 0.0]])
    xhat = np.array([[0.1, 0.9]])
    w = align.build_cost_se(xhat, x)
    assert np.allclose(w, [[0.81, 0.01], [0.01, 0.81]], atol=1e-12)
    p, cost = align.hungarian(w)
    assert p.mapping == (1, 0)
    assert cost == pytest.approx(0.02)


def test_cost_se_assignment_equals_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 2, size=(3, 4)).astype(float)
        xhat = rng.uniform(0.05, 0.95, size=(3, 4))
        w = align.build_cost_se(xhat, x)
        p, cost = align.hungarian(w)
        oracle_p, oracle_val = brute_force_best(xhat, x, align.SE, all_perms(4))
        assert cost == pytest.approx(oracle_val, abs=1e-9)
        assert align.permuted_loss(xhat, x, p, align.SE) == pytest.approx(oracle_val, abs=1e-9)


def test_cost_bce_identity_optimal():
    x = np.eye(4)
    xhat = soften(x, 1e-3)
    w = align.build_cost_bce(xhat, x)
    p, _ = align.hungarian(w)
    assert p == pm.identity(4)


def test_cost_bce_domain_error():
    x = np.array([[1.0, 0.0]])
    bad = np.array([[1.0, 0.5]])
    with pytest.raises(ValueError):
        align.build_cost_bce(bad, x)
    with pytest.raises(ValueError):
        align.build_cost_bce(np.array([[0.0, 0.5]]), x)


def test_cost_bce_assignment_equals_exhaustive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.integers(0, 2, size=(4, 5)).astype(float)
        xhat = rng.uniform(0.05, 0.95, size=(4, 5))
        w = align.build_cost_bce(xhat, x)
        p, cost = align.hungarian(w)
        _, oracle_val = brute_force_best(xhat, x, align.BCE, all_perms(5))
        assert cost == pytest.approx(oracle_val, abs=1e-9)


def test_cost_shape_mismatch():
    with pytest.raises(ValueError):
        align.build_cost_se(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# Hungarian


def test_hungarian_all_zero_returns_identity():
    p, cost = align.hungarian(np.zeros((4, 4)))
    assert p == pm.identity(4)
    assert cost == 0.0


def test_hungarian_prefers_identity_on_tie():
    p, cost = align.hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert p == pm.identity(2)
    assert cost == 0.0


def test_hungarian_matches_brute_force_exactly():
    rng = np.random.default_rng(17)
    for _ in range(200):
        w = rng.uniform(size=(6, 6))
        p, cost = align.hungarian(w)
        best = min(
            sum(w[q[b], b] for b in range(6)) for q in itertools.permutations(range(6))
        )
        assert cost == pytest.approx(best, abs=1e-9)
        assert sum(w[p.mapping[b], b] for b in range(6)) == pytest.approx(cost, abs=1e-12)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        align.hungarian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        align.hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# best_perm


def _problem(xhat, x, loss, kind):
    return align.AlignmentProblem(np.asarray(xhat, float), np.asarray(x, float), loss, kind)


def test_best_perm_recovers_planted_shift():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(4, 5)).astype(float)
    rho2 = pm.rotation(5, 2)
    xhat = soften(x[:, list(rho2.mapping)])
    p, loss = align.best_perm(_problem(xhat, x, align.SE, pm.CYCLIC))
    _, oracle_val = brute_force_best(xhat, x, align.SE, pm.enumerate_cyclic(5).elements)
    assert loss == pytest.approx(oracle_val, abs=1e-12)
    assert align.permuted_loss(xhat, x, p, align.SE) == pytest.approx(oracle_val, abs=1e-12)


def test_best_perm_symmetric_equals_exhaustive_s6():
    rng = np.random.default_rng(11)
    for loss in (align.SE, align.BCE):
        for _ in range(20):
            x = rng.integers(0, 2, size=(3, 6)).astype(float)
            xhat = rng.uniform(0.05, 0.95, size=(3, 6))
            p, val = align.best_perm(_problem(xhat, x, loss, pm.SYMMETRIC))
            _, oracle_val = brute_force_best(xhat, x, loss, all_perms(6))
            assert val == pytest.approx(oracle_val, abs=1e-9)


def test_best_perm_dihedral_enumeration():
    rng = np.random.default_rng(13)
    x = rng.integers(0, 2, size=(2, 6)).astype(float)
    xhat = rng.uniform(0.05, 0.95, size=(2, 6))
    p, val = align.best_perm(_problem(xhat, x, align.SE, pm.DIHEDRAL))
    _, oracle_val = brute_force_best(xhat, x, align.SE, pm.enumerate_dihedral(6).elements)
    assert val == pytest.approx(oracle_val, abs=1e-12)


def test_best_perm_never_worse_than_identity():
    rng = np.random.default_rng(29)
    for kind, q in ((pm.SYMMETRIC, 5), (pm.CYCLIC, 7), (pm.DIHEDRAL, 6)):
        for loss in (align.SE, align.BCE):
            for _ in range(25):
                x = rng.integers(0, 2, size=(3, q)).astype(float)
                xhat = rng.uniform(0.01, 0.99, size=(3, q))
                _, val = align.best_perm(_problem(xhat, x, loss, kind))
                ident_val = align.permuted_loss(xhat, x, pm.identity(q), loss)
                assert val <= ident_val + 1e-12


@pytest.mark.parametrize("kind", [pm.SYMMETRIC, pm.CYCLIC, pm.DIHEDRAL])
def test_best_perm_rejects_non_finite_prediction(kind):
    xhat = np.full((2, 4), 0.5)
    xhat[1, 2] = np.nan
    for loss in (align.SE, align.BCE):
        with pytest.raises(ValueError, match="non-finite"):
            align.best_perm(_problem(xhat, np.zeros((2, 4)), loss, kind))


@pytest.mark.parametrize("kind, beyond", [(pm.CYCLIC, (1, 2, 3, 0)), (pm.DIHEDRAL, (1, 0, 3, 2))])
def test_enumerated_groups_share_the_tie_rule(kind, beyond):
    # The rotation (1, 2, 3, 0) costs 2e-14 less than the identity, inside
    # the relative 1e-12 tie tolerance: the lex-smallest mapping wins, as
    # for the symmetric group. A 2e-10 gap is beyond it, and of the group's
    # elements that reach the optimum the lex-smallest wins: a rotation in
    # the cyclic group, a reflection in the dihedral one.
    x = [[1.0, 0.0, 1.0, 0.0]]
    p, loss = align.best_perm(_problem([[0.5, 0.5, 0.5, 0.5 + 1e-14]], x, align.SE, kind))
    assert p == pm.identity(4)
    assert loss == align.permuted_loss(np.array([[0.5, 0.5, 0.5, 0.5 + 1e-14]]), np.array(x), p, align.SE)
    p, _ = align.best_perm(_problem([[0.5, 0.5, 0.5, 0.5 + 1e-10]], x, align.SE, kind))
    assert p.mapping == beyond


def test_enumerated_groups_are_built_once_per_degree(monkeypatch):
    # Each (kind, q) group is enumerated on its first alignment only; later
    # calls read the same table and still return Python-int mappings.
    calls = []

    def counted(name):
        real = getattr(pm, name)

        def enumerate_(q):
            calls.append((name, q))
            return real(q)

        return enumerate_

    for name in ("enumerate_cyclic", "enumerate_dihedral"):
        monkeypatch.setattr(pm, name, counted(name))
    align._group_table.cache_clear()
    rng = np.random.default_rng(11)
    for _ in range(3):
        for kind in (pm.CYCLIC, pm.DIHEDRAL):
            for q in (4, 5):
                x = rng.integers(0, 2, size=(3, q)).astype(float)
                p, _ = align.best_perm(_problem(rng.random((3, q)), x, align.SE, kind))
                assert all(type(m) is int for m in p.mapping)
    assert sorted(calls) == [
        ("enumerate_cyclic", 4),
        ("enumerate_cyclic", 5),
        ("enumerate_dihedral", 4),
        ("enumerate_dihedral", 5),
    ]


def test_best_perm_validates_problem():
    with pytest.raises(ValueError):
        _problem(np.zeros((2, 2)), np.zeros((2, 3)), align.SE, pm.CYCLIC)
    with pytest.raises(ValueError):
        _problem(np.zeros((2, 2)), np.zeros((2, 2)), "huber", pm.CYCLIC)
    with pytest.raises(ValueError):
        _problem(np.zeros((2, 2)), np.zeros((2, 2)), align.SE, "coxeter")


_LEX_REFINE = align._lex_refine


def _lex_reference(w):
    """The slot-by-slot lex refinement run on every matrix: the rule that
    hungarian's certified single solve must reproduce."""
    rows, cols = linear_sum_assignment(w)
    best = float(w[rows, cols].sum())
    return _LEX_REFINE(w, best, align._TIE_TOL * max(1.0, abs(best)))


@pytest.fixture
def fallbacks(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return _LEX_REFINE(*args)

    monkeypatch.setattr(align, "_lex_refine", counted)
    return calls


def test_certified_assignment_agrees_with_lex_refinement(fallbacks):
    rng = np.random.default_rng(2024)
    trials = 1050
    for t in range(trials):
        q = 2 + t % 7
        if t % 2:
            w = rng.integers(0, 3, size=(q, q)).astype(float)  # exact ties are common
        else:
            w = rng.uniform(size=(q, q))
        before = len(fallbacks)
        p, cost = align.hungarian(w)
        ref_p, ref_cost = _lex_reference(w)
        assert p.mapping == ref_p.mapping, (t, w)
        assert cost == ref_cost
        if not t % 2:
            assert len(fallbacks) == before, "a tie-free matrix was not certified"
    # Ties fell back to the refinement; everything else took one extra solve.
    assert 0 < len(fallbacks) < trials // 2


def test_near_tie_within_tolerance_takes_the_refinement(fallbacks):
    # The swap costs 1.0 and the identity 1.0 + 2e-13, inside the 1e-12 tie
    # tolerance: the solver finds the swap, the lex rule wants the identity.
    w = np.array([[0.5, 0.5], [0.5, 0.5 + 2e-13]])
    p, cost = align.hungarian(w)
    assert p == pm.identity(2) and cost == w[0, 0] + w[1, 1]
    assert fallbacks == [2]


def test_gap_beyond_tolerance_is_certified(fallbacks):
    w = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-12]])
    p, _ = align.hungarian(w)
    assert p.mapping == (1, 0)
    assert fallbacks == []
