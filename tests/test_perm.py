import numpy as np
import pytest

from symilp import perm as pm


def brute_compose(a, b, q):
    """Oracle: act a after b on a marker vector, then read the mapping off."""
    v = np.arange(q)
    return tuple(a.apply(b.apply(v)).tolist())


def check_group_axioms(group):
    mappings = {p.mapping for p in group.elements}
    ident = pm.identity(group.q)
    assert ident.mapping in mappings
    for a in group.elements:
        assert pm.inverse(a).mapping in mappings
        for b in group.elements:
            assert pm.compose(a, b).mapping in mappings


def test_identity_and_inverse():
    assert pm.inverse(pm.identity(5)) == pm.identity(5)
    p = pm.Permutation((2, 0, 1))
    assert pm.compose(p, pm.inverse(p)) == pm.identity(3)
    assert pm.compose(pm.identity(3), p) == p
    assert pm.compose(p, pm.identity(3)) == p


def test_compose_in_c3_gives_identity():
    rho = pm.rotation(3)
    rho2 = pm.compose(rho, rho)
    assert pm.compose(rho, rho2) == pm.identity(3)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = pm.Permutation(tuple(rng.permutation(5).tolist()))
        b = pm.Permutation(tuple(rng.permutation(5).tolist()))
        c = pm.compose(a, b)
        assert c.mapping == brute_compose(a, b, 5)


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        pm.compose(pm.identity(3), pm.identity(4))
    with pytest.raises(ValueError):
        pm.identity(3).apply([1, 2])


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        pm.Permutation((0, 0, 1))


def test_cyclic_enumeration():
    assert pm.enumerate_cyclic(1).elements == (pm.identity(1),)
    g = pm.enumerate_cyclic(3)
    assert len(g.elements) == 3
    rho = g.elements[1]
    assert rho.apply(np.array(["a", "b", "c"])).tolist() == ["b", "c", "a"]
    check_group_axioms(pm.enumerate_cyclic(12))
    with pytest.raises(ValueError):
        pm.enumerate_cyclic(0)


def test_dihedral_enumeration():
    assert len(pm.enumerate_dihedral(4).elements) == 8
    d3 = {p.mapping for p in pm.enumerate_dihedral(3).elements}
    s3 = {p.mapping for p in pm.enumerate_symmetric(3).elements}
    assert d3 == s3
    with pytest.raises(ValueError):
        pm.enumerate_dihedral(0)


def test_reflections_self_inverse():
    for q in (3, 5, 8):
        refl = pm.reflection(q)
        for k in range(q):
            r = pm.compose(refl, pm.rotation(q, k))
            assert pm.compose(r, r) == pm.identity(q)


@pytest.mark.parametrize("q", range(1, 17))
def test_group_axioms_cyclic_dihedral(q):
    check_group_axioms(pm.enumerate_cyclic(q))
    check_group_axioms(pm.enumerate_dihedral(q))
    assert len(pm.enumerate_cyclic(q).elements) == q
    if q >= 3:
        assert len(pm.enumerate_dihedral(q).elements) == 2 * q


def test_apply_then_inverse_restores():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        q = int(rng.integers(1, 12))
        p = pm.Permutation(tuple(rng.permutation(q).tolist()))
        v = rng.normal(size=q)
        assert np.array_equal(pm.inverse(p).apply(p.apply(v)), v)


def test_symmetric_enumeration_cap():
    assert len(pm.enumerate_symmetric(4).elements) == 24
    with pytest.raises(ValueError):
        pm.enumerate_symmetric(9)
