import numpy as np
import pytest

from symilp import perm as pm
from symilp.bench import binpack_instance, gen_golomb, gen_item_placement, gen_pesp
from symilp.graph import CON_FEATS, VAR_FEATS, encode
from symilp.instance import EQ, IlpInstance, Variable, instance_from_dict, instance_to_dict, make_constraint


def test_edge_count_matches_nonzeros():
    # Worked bin-packing example: 3 capacity rows with 4 nonzeros each and
    # 3 partition rows with 3 nonzeros each.
    inst = binpack_instance([1, 2, 3], 3, 3)
    g = encode(inst)
    nnz = sum(len(c.coeffs) for c in inst.constraints)
    assert nnz == 21
    assert g.edge_var.size == nnz
    assert g.var_feats.shape == (12, VAR_FEATS)
    assert g.con_feats.shape == (6, CON_FEATS)


def test_all_binary_flags():
    inst = binpack_instance([1, 2], 2, 3)
    g = encode(inst)
    assert np.all(g.var_feats[:, 0] == 1.0)
    assert np.all(g.var_feats[:, 1] == 0.0)


def test_eq_sense_one_hot():
    inst = IlpInstance(
        "eq_only",
        (Variable(0.0, 1.0, "binary", 0), Variable(0.0, 1.0, "binary", 1)),
        (0.0, 1.0),
        (make_constraint([(0, 1.0), (1, 1.0)], EQ, 1.0),),
        None,
        {},
    )
    g = encode(inst)
    assert g.con_feats[0, 1:].tolist() == [0.0, 0.0, 1.0]


def test_zero_objective_normalization_is_finite():
    g = encode(gen_golomb(3, 6))
    assert np.all(np.isfinite(g.var_feats))
    assert np.all(np.isfinite(g.con_feats))
    assert np.all(np.isfinite(g.edge_weight))


def test_all_zero_row_encodes_with_zero_weights():
    # A document may carry a row whose coefficients are all 0.0; it passes
    # the schema, and its edges weigh 0.0 instead of dividing by zero.
    inst = binpack_instance([1, 2, 3], 3, 3)
    doc = instance_to_dict(inst)
    row = doc["constraints"][0]["coeffs"]
    row[:] = [[idx, 0.0] for idx, _ in row]
    g, base = encode(instance_from_dict(doc)), encode(inst)
    zeroed = g.edge_con == 0
    assert zeroed.sum() == len(row)
    assert np.all(g.edge_weight[zeroed] == 0.0)
    assert g.edge_weight[~zeroed].tobytes() == base.edge_weight[~zeroed].tobytes()
    assert g.con_feats.tobytes() == base.con_feats.tobytes()


@pytest.mark.parametrize(
    "inst",
    [
        binpack_instance([2, 3, 1, 2], 3, 4),
        gen_item_placement(5, 3, 2, seed=0),
        gen_pesp(3, 2, 4, seed=1),
        gen_golomb(3, 6),
    ],
    ids=["binpack", "item_placement", "pesp", "golomb"],
)
def test_no_nan_inf_on_generator_output(inst):
    g = encode(inst)
    for arr in (g.var_feats, g.con_feats, g.edge_weight):
        assert np.all(np.isfinite(arr))


def _sigma(instance, p):
    grid = instance.symmetry.grid_array()
    sigma = np.arange(instance.num_vars, dtype=np.intp)
    sigma[grid] = grid[:, list(p.mapping)]
    return sigma


def _canonical_con_rows(g, var_map):
    rows = []
    for j in range(g.num_cons):
        mask = g.edge_con == j
        incid = sorted(
            (int(var_map[v]), round(float(w), 12))
            for v, w in zip(g.edge_var[mask], g.edge_weight[mask])
        )
        rows.append((tuple(np.round(g.con_feats[j], 12)), tuple(incid)))
    rows.sort()
    return rows


@pytest.mark.parametrize(
    "inst,elements",
    [
        (binpack_instance([1, 2, 3], 3, 3), pm.enumerate_symmetric(3).elements),
        (gen_pesp(3, 2, 4, seed=5), pm.enumerate_cyclic(4).elements),
        (gen_golomb(3, 6), pm.enumerate_dihedral(6).elements),
    ],
    ids=["binpack", "pesp", "golomb"],
)
def test_encoding_equivariance(inst, elements):
    # Relabeling the grid variable nodes by a group element leaves the
    # feature table and the incidence structure unchanged, apart from the
    # two slots derived from the variable position (pos/n and the
    # symmetry-breaking tag).
    g = encode(inst)
    ident = np.arange(inst.num_vars, dtype=np.intp)
    base_rows = _canonical_con_rows(g, ident)
    non_pos = [0, 1, 3, 4, 5]  # all var features except the position slots
    for p in elements:
        sigma = _sigma(inst, p)
        assert np.array_equal(g.var_feats[sigma][:, non_pos], g.var_feats[:, non_pos])
        assert _canonical_con_rows(g, sigma) == base_rows


@pytest.mark.parametrize(
    "inst",
    [
        binpack_instance([1, 2, 3], 3, 3),
        gen_item_placement(6, 5, 2, seed=0),
        gen_pesp(3, 2, 4, seed=5),
        gen_golomb(3, 6),
    ],
    ids=["binpack", "item_placement", "pesp", "golomb"],
)
def test_position_tag_separates_symmetric_columns(inst):
    g = encode(inst)
    tag = g.var_feats[:, VAR_FEATS - 1]
    assert np.all((tag >= 0.0) & (tag < 1.0))
    for row in inst.symmetry.grid_array():
        assert len(set(tag[row].tolist())) == len(row)


def test_position_tag_depends_on_position_only():
    small, large = encode(gen_golomb(3, 6)), encode(gen_item_placement(6, 5, 2, seed=0))
    n = small.num_vars
    assert np.array_equal(small.var_feats[:, -1], large.var_feats[:n, -1])


def test_encode_deterministic():
    inst = gen_item_placement(5, 3, 2, seed=9)
    a, b = encode(inst), encode(inst)
    assert a.var_feats.tobytes() == b.var_feats.tobytes()
    assert np.array_equal(a.con_feats, b.con_feats)
    assert np.array_equal(a.edge_weight, b.edge_weight)
