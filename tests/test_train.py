import collections
import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest

from symilp import align, bench, evalx, net, oracle, train
from symilp import perm as pm
from symilp.instance import permute_values

from _reference import reference_fit


def labeled_binpack(sizes=(1, 2, 3), bins=3, capacity=3, name="s"):
    inst = bench.binpack_instance(list(sizes), bins, capacity, name=name)
    res = oracle.solve_bb(inst)
    assert res.status == oracle.OPTIMAL
    return train.make_sample(name, inst, res.solution.values)


def small_dataset(count=6, seed=0):
    samples = []
    for i in range(count):
        inst = bench.gen_binpack(4, 3, 6, (1, 3), seed=seed * 100 + i)
        res = oracle.solve_bb(inst)
        samples.append(train.make_sample(inst.name, inst, res.solution.values))
    return samples


def test_make_sample_extracts_binary_grid():
    s = labeled_binpack()
    assert s.grid.shape == (4, 3)
    assert s.group_kind == pm.SYMMETRIC
    assert s.target_idx.tolist() == list(range(12))


def test_risk_classic_mean_semantics():
    model = net.init(net.GnnConfig(hidden=8, layers=1), seed=0)
    s = labeled_binpack()
    single = train.risk_classic(model, [s], "bce")
    doubled = train.risk_classic(model, [s, s], "bce")
    assert doubled == pytest.approx(single)
    assert single > 0


def test_risk_empty_set_raises():
    model = net.init(net.GnnConfig(hidden=4, layers=1), seed=0)
    with pytest.raises(ValueError):
        train.risk_classic(model, [], "bce")


def test_risk_symaware_identity_equals_classic():
    model = net.init(net.GnnConfig(hidden=8, layers=1), seed=1)
    samples = [labeled_binpack(name=f"s{i}") for i in range(3)]
    for s in samples:
        s.pi = pm.identity(3)
    assert train.risk_symaware(model, samples, "bce") == train.risk_classic(
        model, samples, "bce"
    )


def test_update_permutations_monotone_and_matches_brute_force():
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=2)
    samples = [labeled_binpack(name=f"s{i}") for i in range(4)]
    before = train.risk_symaware(model, samples, "bce")
    train.update_permutations(model, samples, "bce")
    after = train.risk_symaware(model, samples, "bce")
    assert after <= before + 1e-9
    # exhaustive S_3 oracle per sample
    for s in samples:
        probs = net.forward(model, s.graph)
        xhat = np.clip(probs[s.grid], align.BCE_CLIP, 1 - align.BCE_CLIP)
        x = s.label[s.grid]
        best = min(
            align.permuted_loss(xhat, x, pm.Permutation(p), "bce")
            for p in itertools.permutations(range(3))
        )
        got = align.permuted_loss(xhat, x, s.pi, "bce")
        assert got == pytest.approx(best, abs=1e-9)


def test_update_permutations_rejects_a_worse_alignment(monkeypatch):
    # A best_perm that returns the worst element must trip the monotonicity
    # check, which is an exception and so survives python -O.
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=2)
    s = labeled_binpack(name="worse")

    def worst_perm(problem):
        cands = [pm.Permutation(p) for p in itertools.permutations(range(problem.x.shape[1]))]
        losses = [align.permuted_loss(problem.xhat, problem.x, p, problem.loss) for p in cands]
        k = int(np.argmax(losses))
        return cands[k], losses[k]

    monkeypatch.setattr(align, "best_perm", worst_perm)
    with pytest.raises(RuntimeError, match="alignment increased the loss on worse"):
        train.update_permutations(model, [s], "bce")
    assert s.pi is None


def test_aligned_risk_plain_part_equals_risk_classic():
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=4)
    samples = small_dataset(4) + [labeled_binpack(sizes=(2,), bins=1, name="trivial")]
    r, r_s = train.aligned_risk(model, samples, "bce")
    assert r == train.risk_classic(model, samples, "bce")
    assert r_s <= r
    assert all(s.pi is None for s in samples)


def test_update_permutations_recovers_planted_shift():
    # Prediction equal to a rotated label: the update finds a loss-zeroing
    # rotation (up to ties).
    inst = bench.gen_pesp(3, 2, 4, seed=3)
    res = oracle.solve_bb(inst)
    s = train.make_sample("p", inst, res.solution.values)
    rho = pm.rotation(4, 1)
    rotated = permute_values(inst.symmetry, rho, s.label)
    # bypass the network: feed the rotated label as the "prediction"
    xhat = np.clip(rotated[s.grid], 0.01, 0.99)
    x = s.label[s.grid]
    p, loss = align.best_perm(align.AlignmentProblem(xhat, x, "se", pm.CYCLIC))
    direct = align.permuted_loss(xhat, x, rho, "se")
    assert loss <= direct + 1e-12


def test_fit_classic_and_symaware_identical_when_identity_forced():
    # Forcing every group to the identity makes the two modes the same
    # optimization problem; with equal seeds the runs coincide bit for bit.
    samples = small_dataset(5)
    base = dict(
        epochs=3, loss="bce", batch_size=2, lr=5e-3, seed=7, hidden=8, layers=1,
        force_identity=True,
    )
    r_classic = train.fit(samples, train.TrainConfig(mode="classic", **base))
    for s in samples:
        s.pi = None
    r_forced = train.fit(samples, train.TrainConfig(mode="symaware", **base))
    for a, b in zip(r_classic.curve, r_forced.curve):
        assert (a.r_tr, a.rs_tr, a.r_val, a.rs_val) == (b.r_tr, b.rs_tr, b.r_val, b.rs_val)
    for k in r_classic.model.params:
        assert np.array_equal(r_classic.model.params[k], r_forced.model.params[k])


def test_fit_selects_best_validation_epoch():
    samples = small_dataset(6)
    cfg = train.TrainConfig(epochs=5, mode="symaware", batch_size=3, lr=5e-3, seed=1, hidden=8, layers=1)
    result = train.fit(samples[:4], cfg, val_samples=samples[4:])
    vals = [e.rs_val for e in result.curve]
    assert result.best_val == pytest.approx(min(vals))
    assert result.curve[result.best_epoch - 1].rs_val == pytest.approx(result.best_val)


def test_fit_single_sample_trivial_group_matches_classic():
    inst = bench.binpack_instance([2], 1, 3, name="tiny")
    res = oracle.solve_bb(inst)
    sample = train.make_sample("tiny", inst, res.solution.values)
    assert sample.grid is None  # q=1: trivial group
    base = dict(epochs=2, loss="bce", batch_size=1, lr=1e-2, seed=0, hidden=6, layers=1)
    a = train.fit([sample], train.TrainConfig(mode="classic", **base))
    b = train.fit([sample], train.TrainConfig(mode="symaware", **base))
    for ea, eb in zip(a.curve, b.curve):
        assert ea.r_tr == eb.r_tr


def test_fit_writes_curve_and_checkpoints(tmp_path):
    samples = small_dataset(4)
    cfg = train.TrainConfig(epochs=2, mode="symaware", batch_size=2, lr=1e-3, seed=0, hidden=6, layers=1)
    result = train.fit(samples, cfg, out_dir=str(tmp_path))
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "best.ckpt").exists()
    header = (tmp_path / "curve.csv").read_text().splitlines()[0]
    assert header == "epoch,r_tr,rs_tr,r_val,rs_val,wall_ms"
    back = net.load_checkpoint(str(tmp_path / "best.ckpt"))
    for k in result.model.params:
        assert np.array_equal(back.params[k], result.model.params[k])


def test_duplicate_instances_with_permuted_labels_align_to_common_target():
    # Two identical instances whose labels differ by a group element: after
    # one alignment pass both targets coincide.
    s1 = labeled_binpack(name="a")
    inst = s1.instance
    swap = pm.Permutation((1, 0, 2))
    moved = permute_values(inst.symmetry, swap, s1.label)
    s2 = train.make_sample("b", inst, moved)
    assert not np.array_equal(s1.label, s2.label)
    model = net.init(net.GnnConfig(hidden=8, layers=2), seed=5)
    train.update_permutations(model, [s1, s2], "se")
    t1 = permute_values(inst.symmetry, s1.pi, s1.label)
    t2 = permute_values(inst.symmetry, s2.pi, s2.label)
    assert np.array_equal(t1, t2)


def test_proposition_one_separation_small():
    # Classic training cannot go below the analytic floor on a duplicated
    # pair with conflicting labels; aligned training drops below it. (The
    # full two-hundred-epoch experiment lives in the acceptance suite.)
    s1 = labeled_binpack(name="a")
    inst = s1.instance
    swap = pm.Permutation((1, 0, 2))
    s2 = train.make_sample("b", inst, permute_values(inst.symmetry, swap, s1.label))
    hamming = float(np.sum(np.abs(s1.label - s2.label)))
    floor = 0.25 * hamming / s1.target_idx.size
    base = dict(epochs=60, loss="se", batch_size=2, lr=1e-3, inner_steps=20, seed=1, hidden=16, layers=2)
    rc = train.fit([s1, s2], train.TrainConfig(mode="classic", **base))
    rs = train.fit([s1, s2], train.TrainConfig(mode="symaware", **base))
    assert rc.curve[-1].r_tr >= 0.9 * floor
    assert rs.curve[-1].rs_tr < 0.9 * floor


FIT_MODES = [("symaware", False), ("classic", False), ("symaware", True)]
# (batch_size, inner_steps, with a validation split): one batch and several
# batches per epoch, one and two Adam steps per batch.
FIT_SHAPES = list(itertools.product((8, 2), (1, 2), (True, False)))


def fit_data():
    trivial = labeled_binpack(sizes=(2,), bins=1, name="trivial")
    return small_dataset(4) + [trivial], small_dataset(2, seed=1)


def fit_config(mode, force_identity, batch_size, inner_steps, epochs=3, loss="bce"):
    return train.TrainConfig(
        epochs=epochs, mode=mode, loss=loss, batch_size=batch_size, inner_steps=inner_steps, lr=5e-3,
        seed=0, hidden=6, layers=1, force_identity=force_identity,
    )


@pytest.mark.parametrize("mode, force_identity", FIT_MODES)
def test_fit_runs_one_forward_pass_per_use(monkeypatch, mode, force_identity):
    # Every forward pass, tape forwards included, keyed by (sample, Adam
    # steps taken so far): the pairs are exactly the batch samples of each
    # step and every sample at each epoch's end, and none occurs twice.
    # A prediction (TapeForward.probs) is read once per pair that uses it:
    # the alignment's (symmetry-aware mode, first inner step) and the
    # epoch's risk terms; classic mode reads none at any other step.
    fit_samples, val_all = fit_data()
    forwards, probs = collections.Counter(), collections.Counter()
    tape_keys = {}
    steps = [0]
    real_forward_tape, real_adam_step, real_probs = net.forward_tape, net.adam_step, net.TapeForward.probs

    def counting_forward_tape(model, graph):
        forwards[id(graph), steps[0]] += 1
        fwd = real_forward_tape(model, graph)
        tape_keys[id(fwd)] = id(graph), steps[0]
        return fwd

    def counting_adam_step(*args):
        steps[0] += 1
        return real_adam_step(*args)

    def counting_probs(fwd):
        probs[tape_keys[id(fwd)]] += 1
        return real_probs(fwd)

    monkeypatch.setattr(net, "forward_tape", counting_forward_tape)
    monkeypatch.setattr(net, "adam_step", counting_adam_step)
    monkeypatch.setattr(net.TapeForward, "probs", counting_probs)
    symaware = mode == train.SYMMETRY_AWARE and not force_identity
    for batch_size, inner_steps, with_val in FIT_SHAPES:
        val_samples = val_all if with_val else []
        for s in fit_samples + val_samples:
            s.pi = None
        cfg = fit_config(mode, force_identity, batch_size, inner_steps)
        forwards.clear()
        probs.clear()
        steps[0] = 0
        train.fit(fit_samples, cfg, val_samples)

        expected, read, step = set(), set(), 0
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(fit_samples))
            for start in range(0, len(order), batch_size):
                for inner in range(inner_steps):
                    pairs = {(id(fit_samples[i].graph), step) for i in order[start : start + batch_size]}
                    expected |= pairs
                    if symaware and inner == 0:
                        read |= pairs
                    step += 1
            ends = {(id(s.graph), step) for s in fit_samples + val_samples}
            expected |= ends
            read |= ends
        shape = batch_size, inner_steps, with_val
        assert set(forwards) == expected, shape
        assert set(forwards.values()) == {1}, shape
        assert set(probs) == read, shape
        assert set(probs.values()) == {1}, shape


def fit_outputs(result, out_dir):
    files = {
        name: (out_dir / name).read_bytes()
        for name in sorted(os.listdir(out_dir))
        if name != "curve.csv"
    }
    return (
        [(e.epoch, e.r_tr, e.rs_tr, e.r_val, e.rs_val) for e in result.curve],
        result.best_epoch,
        result.best_val,
        {k: v.tobytes() for k, v in result.model.params.items()},
        [os.path.basename(p) for p in result.checkpoint_paths],
        files,
    )


@pytest.mark.parametrize("mode, force_identity", FIT_MODES)
def test_fit_reproduces_the_reference_loop(tmp_path, mode, force_identity):
    # fit shares forward passes between the alignment, the gradient step and
    # the epoch's risks; the plain loop in tests/_reference.py shares none.
    # Curves, selection, parameters, permutations and files agree bit for
    # bit, under both losses.
    fit_samples, val_all = fit_data()
    for loss, (batch_size, inner_steps, with_val) in itertools.product(("bce", "se"), FIT_SHAPES):
        val_samples = val_all if with_val else []
        cfg = fit_config(mode, force_identity, batch_size, inner_steps, epochs=4, loss=loss)
        runs = []
        for tag, run in (("fit", train.fit), ("reference", reference_fit)):
            for s in fit_samples + val_samples:
                s.pi = None
            out_dir = tmp_path / f"{tag}-{loss}-{batch_size}-{inner_steps}-{with_val}"
            result = run(fit_samples, cfg, val_samples, out_dir=str(out_dir))
            pis = [None if s.pi is None else s.pi.mapping for s in fit_samples]
            runs.append((fit_outputs(result, out_dir), pis))
        assert runs[0] == runs[1], (loss, batch_size, inner_steps, with_val)


def test_fit_raises_on_non_finite_batch_loss():
    samples = small_dataset(3)
    samples[1].graph.var_feats[0, 0] = np.nan
    cfg = train.TrainConfig(epochs=2, mode="classic", batch_size=2, seed=0, hidden=6, layers=1)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="epoch 1: batch loss"):
        train.fit(samples, cfg)


def test_fit_raises_on_non_finite_selection_risk():
    val = labeled_binpack(sizes=(2,), bins=1, name="trivial")
    val.graph.var_feats[0, 0] = np.nan
    cfg = train.TrainConfig(epochs=2, mode="symaware", batch_size=2, seed=0, hidden=6, layers=1)
    with pytest.raises(FloatingPointError, match="epoch 1: selection risk"):
        train.fit(small_dataset(3), cfg, [val])


def test_fit_symaware_stops_on_non_finite_alignment_cost():
    samples = small_dataset(3)
    samples[1].graph.var_feats[0, 0] = np.nan
    cfg = train.TrainConfig(epochs=2, mode="symaware", batch_size=4, seed=0, hidden=6, layers=1)
    with pytest.raises(ValueError, match="non-finite"):
        train.fit(samples, cfg)


def test_load_dataset_surfaces_bad_labels(tmp_path):
    spec = bench.GenSpec("binpack", 5, 2, {"items": 4, "bins": 3, "capacity": 6, "size_range": [1, 3]})
    manifest = bench.build_dataset(spec, str(tmp_path))
    name = manifest["train"][0]
    label_path = tmp_path / "labels" / f"{name}.json"
    import json

    label = json.loads(label_path.read_text())
    label["values"][0] = 1 - label["values"][0]
    label_path.write_text(json.dumps(label))
    with pytest.raises(ValueError, match="infeasible"):
        train.load_dataset(str(tmp_path))


def test_train_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        train.TrainConfig(epochs=1, mode="semi")
    # A negative lr would run gradient ascent; NaN compares False with everything.
    for lr in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            train.TrainConfig(epochs=1, lr=lr)


def params_sha256(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def orbit_data(tmp_path_factory):
    """perfbench's train shape (item_placement 4x4x2, 20 instances at seed
    7), and the same splits with each label replaced by a seeded random
    group element applied to it."""
    out = str(tmp_path_factory.mktemp("orbit"))
    bench.build_dataset(bench.GenSpec("item_placement", 20, 7, {"items": 4, "bins": 4, "resources": 2}), out)
    splits = train.load_dataset(out)
    rng = np.random.default_rng(31)
    moved = []
    for samples in splits:
        moved.append([])
        for s in samples:
            desc = s.instance.symmetry
            p = pm.Permutation(tuple(int(i) for i in rng.permutation(desc.q)))
            moved[-1].append(train.make_sample(s.name, s.instance, permute_values(desc, p, s.label)))
    return splits, moved


@pytest.mark.parametrize("loss", [net.BCE, net.SE])
def test_symaware_training_ignores_which_orbit_member_is_stored(orbit_data, loss):
    # SymILO's alignment is an argmin over the whole orbit of each label,
    # so a symmetry-aware fit sees the same aligned targets whichever
    # member is stored; a classic fit trains on the stored member.
    (fit_s, val_s, test_s), (fit_m, val_m, test_m) = orbit_data
    changed = sum(not np.array_equal(a.label, b.label) for a, b in zip(fit_s + val_s, fit_m + val_m))
    assert changed >= 14
    runs = {}
    for mode in train.MODES:
        cfg = train.TrainConfig(epochs=15, mode=mode, loss=loss, lr=5e-3, hidden=32, layers=2, seed=3)
        for which, (fit, val) in (("stored", (fit_s, val_s)), ("moved", (fit_m, val_m))):
            fresh = [dataclasses.replace(s, pi=None) for s in fit]
            runs[mode, which] = train.fit(fresh, cfg, [dataclasses.replace(s, pi=None) for s in val])
    a, b = runs[train.SYMMETRY_AWARE, "stored"], runs[train.SYMMETRY_AWARE, "moved"]
    assert params_sha256(a.model) == params_sha256(b.model)
    assert a.best_epoch == b.best_epoch
    assert [(e.rs_tr, e.rs_val) for e in a.curve] == [(e.rs_tr, e.rs_val) for e in b.curve]
    preds = [net.forward(a.model, s.graph) for s in test_s]
    assert [r.top_m for r in evalx.evaluate_predictions(test_s, preds)] == [
        r.top_m for r in evalx.evaluate_predictions(test_m, preds)
    ]
    assert params_sha256(runs[train.CLASSIC, "stored"].model) != params_sha256(runs[train.CLASSIC, "moved"].model)
