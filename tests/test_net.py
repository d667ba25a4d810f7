import numpy as np
import pytest

from _reference import reference_forward_tape
from symilp import graph, net, tape
from symilp.bench import binpack_instance, gen_binpack, gen_golomb, gen_item_placement, gen_pesp, gen_smsp
from symilp.graph import VAR_FEATS, BipartiteGraph, encode, incidence
from symilp.instance import IlpInstance, Variable


def small_graph():
    return encode(binpack_instance([1, 2, 3], 3, 3))


def empty_edge_graph(n=4):
    inst = IlpInstance(
        "free",
        tuple(Variable(0.0, 1.0, "binary", i) for i in range(n)),
        tuple([1.0] * n),
        (),
        None,
        {},
    )
    return encode(inst)


# ---------------------------------------------------------------------------
# init


def test_init_deterministic():
    cfg = net.GnnConfig(hidden=8, layers=2)
    a, b = net.init(cfg, seed=7), net.init(cfg, seed=7)
    assert a.param_names() == b.param_names()
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_init_seed_sensitivity():
    cfg = net.GnnConfig(hidden=8, layers=1)
    a, b = net.init(cfg, seed=1), net.init(cfg, seed=2)
    assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        net.GnnConfig(hidden=0, layers=1)
    with pytest.raises(ValueError):
        net.GnnConfig(hidden=4, layers=0)


# ---------------------------------------------------------------------------
# forward


def test_forward_outputs_in_unit_interval():
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=3)
    out = net.forward(model, small_graph())
    assert out.shape == (12,)
    assert np.all(out > 0) and np.all(out < 1)


def test_forward_zero_edges_depends_on_node_features_only():
    # With no edges there is no cross-node interaction: permuting the
    # variable feature rows permutes the outputs and nothing else.
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=3)
    g = empty_edge_graph()
    out = net.forward(model, g)
    assert out.shape == (4,)
    assert np.all((out > 0) & (out < 1))
    perm = np.array([2, 0, 3, 1])
    shuffled = BipartiteGraph(
        g.var_feats[perm], g.con_feats, g.edge_con, g.edge_var, g.edge_weight
    )
    assert np.array_equal(net.forward(model, shuffled), out[perm])


def test_forward_disjoint_copies_match():
    g = small_graph()
    n, m = g.num_vars, g.num_cons
    doubled = BipartiteGraph(
        np.vstack([g.var_feats, g.var_feats]),
        np.vstack([g.con_feats, g.con_feats]),
        np.concatenate([g.edge_con, g.edge_con + m]),
        np.concatenate([g.edge_var, g.edge_var + n]),
        np.concatenate([g.edge_weight, g.edge_weight]),
    )
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=5)
    out = net.forward(model, doubled)
    assert np.allclose(out[:n], out[n:], atol=1e-12)


# ---------------------------------------------------------------------------
# node-side messages


def _with_random_biases(model, seed):
    """Biases drawn from uniform(-0.1, 0.1) instead of zero, so that every
    bias takes part; weights keep their initialization, which keeps the
    outputs away from saturation."""
    rng = np.random.default_rng(seed)
    for name, arr in model.params.items():
        if name.split(".")[-1] in ("b", "b1", "b2"):
            model.params[name] = rng.uniform(-0.1, 0.1, size=arr.shape)
    return model


def _rel_err(a, ref):
    a, ref = np.asarray(a), np.asarray(ref)
    return float(np.max(np.abs(a - ref), initial=0.0) / max(np.max(np.abs(ref), initial=0.0), 1e-300))


FAMILY_INSTANCES = (
    gen_binpack(5, 3, 8, (1, 4), seed=1),
    gen_item_placement(4, 4, 2, seed=1),
    gen_smsp(4, 3, 2, seed=1),
    gen_pesp(4, 6, 5, seed=1),
    gen_golomb(3, 6, seed=1),
)


@pytest.mark.parametrize("inst", FAMILY_INSTANCES, ids=lambda inst: inst.name)
def test_messages_match_the_edge_side_reference(inst):
    # The reference gathers both endpoints per edge, runs the perceptron on
    # every edge and scatters; the network runs its matmuls on node
    # embeddings. Only the order of floating-point sums differs.
    g = encode(inst)
    model = _with_random_biases(net.init(net.GnnConfig(hidden=16, layers=2), seed=0), seed=1)
    assert _rel_err(net.forward(model, g), reference_forward_tape(model, g).probs()) <= 1e-12
    target = np.random.default_rng(2).integers(0, 2, size=inst.num_vars).astype(float)
    tidx = np.asarray(inst.binary_indices())
    for loss_kind in (net.BCE, net.SE):
        loss, grads = net.loss_and_grad(model, g, target, loss_kind, tidx)
        ref_fwd = reference_forward_tape(model, g)
        ref_loss, ref_grads = net.loss_and_grad(model, g, target, loss_kind, tidx, ref_fwd)
        assert _rel_err(loss, ref_loss) <= 1e-12
        for name in model.params:
            assert _rel_err(grads[name], ref_grads[name]) <= 1e-12, name


def _check_node_grads(make, inputs, seed, h=1e-6):
    """Every parent's gradient from make(*inputs)'s backward equals central
    differences of sum(out * r) in each input entry."""
    leaves = [tape.leaf(x) for x in inputs]
    out = make(*leaves)
    r = np.random.default_rng(seed).standard_normal(out.shape)
    analytic = out.grad_fn(r)
    assert len(analytic) == len(out.parents) == len(leaves)
    for pos, x in enumerate(inputs):
        numeric = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            vals = []
            for step in (h, -h):
                bumped = [leaf.data.copy() for leaf in leaves]
                bumped[pos][i] += step
                vals.append(np.sum(make(*(tape.leaf(b) for b in bumped)).data * r))
            numeric[i] = (vals[0] - vals[1]) / (2 * h)
        assert analytic[pos].shape == x.shape
        rel = np.abs(analytic[pos] - numeric) / np.maximum(np.abs(analytic[pos]) + np.abs(numeric), 1e-5)
        assert rel.max() <= 1e-6, pos


def test_message_nodes_match_central_differences():
    g = small_graph()
    hid = 4
    rng = np.random.default_rng(3)
    c = rng.standard_normal((g.num_cons, hid))
    v = rng.standard_normal((g.num_vars, hid))
    w1 = rng.standard_normal((2 * hid + 1, hid))
    b1 = rng.standard_normal(hid)
    _check_node_grads(lambda *p: tape.edge_hidden(*p, g), [c, v, w1, b1], seed=4)

    s = rng.standard_normal((g.num_vars, hid))
    w2 = rng.standard_normal((hid, hid))
    b2 = rng.standard_normal(hid)
    _check_node_grads(lambda *p: tape.summed_linear(*p, g.var_degree), [s, w2, b2], seed=5)


def test_isolated_nodes_receive_exactly_zero_messages():
    # Constraint 2 and variable 3 have no edges.
    rng = np.random.default_rng(6)
    g = BipartiteGraph(
        rng.random((4, VAR_FEATS)),
        rng.random((3, 4)),
        np.array([0, 1, 0, 1, 0], dtype=np.intp),
        np.array([0, 0, 1, 2, 2], dtype=np.intp),
        rng.uniform(-1, 1, size=5),
    )
    assert g.con_degree.tolist() == [3.0, 2.0, 0.0]
    assert g.var_degree.tolist() == [2.0, 1.0, 2.0, 0.0]
    model = _with_random_biases(net.init(net.GnnConfig(hidden=4, layers=1), seed=0), seed=7)
    p = {name: tape.leaf(arr) for name, arr in model.params.items()}
    c = tape.leaf(rng.standard_normal((3, 4)))
    v = tape.leaf(rng.standard_normal((4, 4)))
    agg_c = net._messages(p, "layer0.g_c", c, v, g, (g.edge_con, g.con_incidence, g.con_degree))
    agg_v = net._messages(p, "layer0.g_v", c, v, g, (g.edge_var, g.var_incidence, g.var_degree))
    assert np.all(agg_c.data[2] == 0.0) and np.all(agg_v.data[3] == 0.0)
    assert np.all(agg_c.data[:2] != 0.0) and np.all(agg_v.data[:3] != 0.0)


def test_sigmoid_keeps_its_three_exp_values_bit_for_bit():
    z = np.concatenate([
        [-50.0, -0.0, 0.0, 50.0, -1e-300, 1e-300, -745.0, 745.0, -1.0, 1.0],
        np.random.default_rng(8).standard_normal(200) * 20.0,
    ])
    three_exp = np.where(
        z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z)))
    )
    assert tape._sigmoid(z).tobytes() == three_exp.tobytes()


# ---------------------------------------------------------------------------
# incidence products


def _add_at(idx, rows, num_rows):
    """Reference row accumulation: out[idx[e]] += rows[e] in order of e."""
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def _check_against_add_at(idx, inc, width, seed):
    """scatter_add_rows and gather_rows's backward through inc equal the
    np.add.at reference bit for bit."""
    rng = np.random.default_rng(seed)
    idx = np.asarray(idx, dtype=np.intp)
    num_rows = inc.shape[0]
    assert inc.shape == (num_rows, idx.size)
    # Mixed magnitudes make the sum depend on its order; -0.0 checks signs.
    rows = rng.standard_normal((idx.size, width)) * 10.0 ** rng.integers(-8, 9, size=(idx.size, width))
    rows[:, 0] = -0.0
    expected = _add_at(idx, rows, num_rows)

    out = tape.scatter_add_rows(tape.leaf(rows), idx, inc)
    assert out.data.tobytes() == expected.tobytes()
    grad = rng.standard_normal((num_rows, width))
    assert out.grad_fn(grad)[0].tobytes() == grad[idx].tobytes()

    source = tape.leaf(rng.standard_normal((num_rows, width)))
    gathered = tape.gather_rows(source, idx, inc)
    assert gathered.data.tobytes() == source.data[idx].tobytes()
    assert gathered.grad_fn(rows)[0].tobytes() == expected.tobytes()


def test_incidence_products_match_add_at_bit_for_bit():
    # Repeated indices, out of order, with empty rows 2, 4 and 5.
    idx = [3, 0, 3, 3, 1, 0, 3, 1]
    _check_against_add_at(idx, incidence(idx, 6), 5, seed=1)
    rng = np.random.default_rng(2)
    for seed in range(3, 13):
        idx = rng.integers(0, 7, size=40)
        _check_against_add_at(idx, incidence(idx, 9), 32, seed)
    _check_against_add_at([], incidence([], 4), 3, seed=0)  # no edges: every row empty


def test_graph_incidences_match_add_at_bit_for_bit():
    # The constraint-free graph has no edges and no constraint rows.
    for g in (small_graph(), encode(gen_golomb(4, 7, seed=1)), empty_edge_graph()):
        assert g.con_incidence.shape == (g.num_cons, g.num_edges)
        assert g.var_incidence.shape == (g.num_vars, g.num_edges)
        _check_against_add_at(g.edge_con, g.con_incidence, 32, seed=1)
        _check_against_add_at(g.edge_var, g.var_incidence, 32, seed=2)


# ---------------------------------------------------------------------------
# gradients


def _finite_diff(model, g, target, loss_kind, tidx, h=1e-5):
    flat = net.flatten_params(model)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        net.unflatten_params(model, bumped)
        up = net.sample_loss(model, g, target, loss_kind, tidx)
        bumped[i] -= 2 * h
        net.unflatten_params(model, bumped)
        down = net.sample_loss(model, g, target, loss_kind, tidx)
        num[i] = (up - down) / (2 * h)
    net.unflatten_params(model, flat)
    return num


@pytest.mark.parametrize("loss_kind", [net.BCE, net.SE])
def test_gradient_matches_finite_differences(loss_kind):
    rng = np.random.default_rng(0)
    inst = binpack_instance([1, 2, 3], 3, 3)
    g = encode(inst)
    model = net.init(net.GnnConfig(hidden=4, layers=2), seed=1)
    for k in model.params:
        model.params[k] = rng.uniform(-0.5, 0.5, size=model.params[k].shape)
    target = rng.integers(0, 2, size=inst.num_vars).astype(float)
    tidx = np.asarray(inst.binary_indices())
    _, grads = net.loss_and_grad(model, g, target, loss_kind, tidx)
    analytic = np.concatenate([grads[k].reshape(-1) for k in model.param_names()])
    numeric = _finite_diff(model, g, target, loss_kind, tidx)
    # Denominator floored at 1e-5: entries below that only need absolute
    # agreement to 1e-9, which is above central-difference noise.
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-5)
    assert rel.max() <= 1e-4


def test_zero_edge_graph_message_grads_are_zero():
    g = empty_edge_graph()
    model = net.init(net.GnnConfig(hidden=4, layers=2), seed=2)
    target = np.array([1.0, 0.0, 1.0, 0.0])
    _, grads = net.loss_and_grad(model, g, target, net.BCE)
    for name, grad in grads.items():
        if ".g_c." in name or ".g_v." in name:
            assert np.all(grad == 0.0), name


def test_loss_and_grad_builds_no_sparse_matrix(monkeypatch):
    # The loss node reads its rows of the logits by index, so a call with
    # target_idx builds no incidence matrix.
    inst = binpack_instance([1, 2, 3], 3, 3)
    g = encode(inst)
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=2)
    target = np.zeros(inst.num_vars)
    tidx = np.asarray(inst.binary_indices())
    built = []
    real_csr_array = graph.csr_array

    def counting_csr_array(*args, **kwargs):
        built.append(args)
        return real_csr_array(*args, **kwargs)

    monkeypatch.setattr(graph, "csr_array", counting_csr_array)
    net.loss_and_grad(model, g, target, net.BCE, tidx)
    assert len(built) == 0


@pytest.mark.parametrize("rows", [np.array([3, 0, 5]), slice(None)])
def test_loss_nodes_match_closed_forms(rows):
    # Loss and logit gradient of both fused loss nodes against their closed
    # forms; rows the loss does not read get an exact zero gradient.
    rng = np.random.default_rng(3)
    z = rng.normal(0.0, 2.0, size=(7, 1))
    t = rng.integers(0, 2, size=(7, 1)).astype(float)[rows]
    zr = z[rows]
    s = 1.0 / (1.0 + np.exp(-zr))
    forms = {
        tape.bce_with_logits_mean: (-np.mean(t * np.log(s) + (1 - t) * np.log(1 - s)), (s - t) / t.size),
        tape.sigmoid_se_mean: (np.mean((s - t) ** 2), 2.0 * (s - t) * s * (1 - s) / t.size),
    }
    for node_fn, (loss, dz) in forms.items():
        logits = tape.leaf(z)
        node = node_fn(logits, rows, t)
        tape.backward(node)
        expected = np.zeros_like(z)
        expected[rows] = dz
        assert float(node.data) == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12, atol=1e-15)
        outside = np.ones(z.shape[0], dtype=bool)
        outside[rows] = False
        assert np.all(logits.grad[outside] == 0.0)


def test_bce_rejects_non_binary_target():
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=2)
    with pytest.raises(ValueError):
        net.loss_and_grad(model, small_graph(), np.full(12, 0.5), net.BCE)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_parameters():
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    net.adam_step(model, net.AdamState(lr=0.1), grads)
    for k in model.params:
        assert np.array_equal(model.params[k], before[k])


def test_adam_first_step_closed_form():
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    rng = np.random.default_rng(4)
    grads = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    state = net.AdamState(lr=0.01)
    net.adam_step(model, state, grads)
    for k, g in grads.items():
        expected = before[k] - state.lr * g / (np.abs(g) + net.ADAM_EPS)
        assert np.allclose(model.params[k], expected, atol=1e-12)


def test_adam_converges_on_quadratic_bowl():
    theta = np.array([3.0, -2.0])
    target = np.array([0.7, -0.3])
    model = net.GnnModel(net.GnnConfig(hidden=1, layers=1), {"theta": theta})
    state = net.AdamState(lr=0.01)
    for _ in range(2000):
        net.adam_step(model, state, {"theta": model.params["theta"] - target})
    assert np.max(np.abs(model.params["theta"] - target)) < 1e-6


def test_adam_shape_mismatch():
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=0)
    grads = {k: np.zeros(3) for k in model.params}
    with pytest.raises(ValueError):
        net.adam_step(model, net.AdamState(), grads)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = net.init(net.GnnConfig(hidden=6, layers=2), seed=9)
    path = str(tmp_path / "model.ckpt")
    net.save_checkpoint(model, path)
    back = net.load_checkpoint(path)
    assert back.cfg == model.cfg
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert (tmp_path / "model.ckpt.json").exists()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        net.load_checkpoint(str(path))


def test_checkpoint_rejects_other_feature_width(tmp_path, monkeypatch):
    # A model saved under an older encoding would otherwise load and then
    # fail inside the first matmul.
    path = str(tmp_path / "old.ckpt")
    with monkeypatch.context() as patch:
        patch.setattr(net, "VAR_FEATS", VAR_FEATS - 1)
        net.save_checkpoint(net.init(net.GnnConfig(hidden=6, layers=1), seed=0), path)
    with pytest.raises(ValueError, match="var_feats"):
        net.load_checkpoint(path)


def test_no_nan_over_many_epochs():
    # 50 epochs of single-sample updates on a small instance stay finite.
    inst = gen_golomb(3, 6)
    g = encode(inst)
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=0)
    state = net.AdamState(lr=1e-3)
    target = np.zeros(inst.num_vars)
    target[[0, 7, 14]] = 1.0
    for _ in range(50):
        loss, grads = net.loss_and_grad(model, g, target, net.BCE)
        assert np.isfinite(loss)
        net.adam_step(model, state, grads)
    out = net.forward(model, g)
    assert np.all((out > 0) & (out < 1))
