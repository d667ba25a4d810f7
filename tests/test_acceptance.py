"""Acceptance suite: one test per release criterion, printed pass/fail.

The heavyweight shared artifacts (the labeled item-placement dataset and the
ten trained models over five seeds) are session fixtures reused by the
end-to-end and downstream criteria. Every tolerance is pinned here, not
configured elsewhere.
"""

import itertools
import time

import numpy as np
import pytest

from symilp import align, bench, evalx, net, oracle, train
from symilp import perm as pm
from symilp.instance import (
    EQ,
    IlpInstance,
    Variable,
    apply_solution_permutation,
    check_symmetry,
    make_constraint,
)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared fixtures: dataset + trained models (criteria 7 and 8)

DATASET_SPEC = bench.GenSpec(
    "item_placement", 60, 20260810, {"items": 6, "bins": [4, 6], "resources": 2}
)
TRAIN_KW = dict(
    loss="bce", batch_size=16, epochs=120, lr=5e-3, hidden=32, layers=2, inner_steps=1
)
# Node budget for criterion 8's repairs; test_criterion_8 explains the choice.
DOWNSTREAM_LIMITS = oracle.SolveLimits(time_limit_ms=1500.0, node_limit=10)
PARAM_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


@pytest.fixture(scope="session")
def ip_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ipdata"))
    bench.build_dataset(DATASET_SPEC, out, oracle.SolveLimits(time_limit_ms=120_000))
    return out


@pytest.fixture(scope="session")
def ip_samples(ip_dataset):
    return train.load_dataset(ip_dataset)


@pytest.fixture(scope="session")
def trained_models(ip_samples):
    fit_s, val_s, _ = ip_samples
    models = {}
    for seed in SEEDS:
        for mode in (train.CLASSIC, train.SYMMETRY_AWARE):
            cfg = train.TrainConfig(mode=mode, seed=seed, **TRAIN_KW)
            models[(mode, seed)] = train.fit(fit_s, cfg, val_s)
    return models


# ---------------------------------------------------------------------------
# 1. Assignment-reduction exactness (both losses, q in 2..6)


def test_criterion_1_alignment_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    mismatches = 0
    trials = 0
    for loss in (align.SE, align.BCE):
        for q in range(2, 7):
            perms = [pm.Permutation(p) for p in itertools.permutations(range(q))]
            for _ in range(50):
                p_rows = int(rng.integers(2, 5))
                x = rng.integers(0, 2, size=(p_rows, q)).astype(float)
                xhat = rng.uniform(0.02, 0.98, size=(p_rows, q))
                got_p, got = align.best_perm(
                    align.AlignmentProblem(xhat, x, loss, pm.SYMMETRIC)
                )
                best = min(align.permuted_loss(xhat, x, p, loss) for p in perms)
                trials += 1
                if abs(got - best) > 1e-9:
                    mismatches += 1
    wall = time.perf_counter() - t0
    report(
        1,
        "assignment reduction equals exhaustive search",
        mismatches == 0 and wall < 30,
        f"({trials} trials, {mismatches} mismatches, {wall:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Group axioms for C_q and D_q, q in 1..16


def test_criterion_2_group_axioms():
    t0 = time.perf_counter()
    ok = True
    for q in range(1, 17):
        for group in (pm.enumerate_cyclic(q), pm.enumerate_dihedral(q)):
            mappings = {p.mapping for p in group.elements}
            ok &= pm.identity(q).mapping in mappings
            for a in group.elements:
                ok &= pm.inverse(a).mapping in mappings
                for b in group.elements:
                    ok &= pm.compose(a, b).mapping in mappings
        ok &= len(pm.enumerate_cyclic(q).elements) == q
        ok &= len(pm.enumerate_dihedral(q).elements) == (2 * q if q >= 3 else q)
    wall = time.perf_counter() - t0
    report(2, "group axioms hold exhaustively", ok and wall < 5, f"({wall:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Declared symmetry is real for every generator family


def _family_instances(n_seeds=20):
    for seed in range(n_seeds):
        yield bench.gen_binpack(5, 3, 6, (1, 3), seed=seed)
        yield bench.gen_item_placement(5, 4, 2, seed=seed)
        yield bench.gen_smsp(5, 3, 3, seed=seed)
        yield bench.gen_pesp(3, 3, 5, seed=seed)
        yield bench.gen_golomb(3, 6 + seed % 3, seed=seed)


def _elements_of(inst, cap=6):
    desc = inst.symmetry
    if desc.kind == pm.CYCLIC:
        return pm.enumerate_cyclic(desc.q).elements
    if desc.kind == pm.DIHEDRAL:
        return pm.enumerate_dihedral(desc.q).elements
    return pm.enumerate_symmetric(min(desc.q, cap)).elements if desc.q <= cap else ()


def test_criterion_3_symmetry_certification():
    t0 = time.perf_counter()
    checked = 0
    for inst in _family_instances():
        elements = _elements_of(inst)
        assert elements, f"no enumerable elements for {inst.name}"
        for p in elements:
            assert check_symmetry(inst, p), f"{inst.name}: {p.mapping} fails certificate"
        res = oracle.solve_bb(inst)
        assert res.status == oracle.OPTIMAL, f"{inst.name}: labeling failed"
        for p in elements:
            moved = apply_solution_permutation(inst, p, res.solution)
            assert oracle.check_feasible(inst, moved.values) == [], f"{inst.name} orbit"
            assert abs(moved.objective - res.solution.objective) <= 1e-9
        checked += 1
    wall = time.perf_counter() - t0
    report(
        3,
        "generator symmetry certified and label orbits feasible",
        checked == 100 and wall < 120,
        f"({checked} instances, {wall:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 4. Gradient correctness against central differences


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    from symilp.graph import encode

    builders = [
        lambda s: bench.gen_binpack(3, 3, 4, (1, 3), seed=s),
        lambda s: bench.gen_golomb(3, 5, seed=s),
        lambda s: bench.gen_pesp(2, 1, 4, seed=s),
    ]
    for trial in range(20):
        inst = builders[trial % 3](trial)
        g = encode(inst)
        model = net.init(net.GnnConfig(hidden=4, layers=2), seed=trial)
        for k in model.params:
            model.params[k] = rng.uniform(-0.5, 0.5, size=model.params[k].shape)
        target = rng.integers(0, 2, size=inst.num_vars).astype(float)
        tidx = np.asarray(inst.binary_indices())
        loss_kind = (net.BCE, net.SE)[trial % 2]
        _, grads = net.loss_and_grad(model, g, target, loss_kind, tidx)
        analytic = np.concatenate([grads[k].reshape(-1) for k in model.param_names()])

        flat = net.flatten_params(model)
        h = 1e-5
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += h
            net.unflatten_params(model, bumped)
            up = net.sample_loss(model, g, target, loss_kind, tidx)
            bumped[i] -= 2 * h
            net.unflatten_params(model, bumped)
            down = net.sample_loss(model, g, target, loss_kind, tidx)
            numeric[i] = (up - down) / (2 * h)
        net.unflatten_params(model, flat)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-5)
        worst = max(worst, float(rel.max()))
    wall = time.perf_counter() - t0
    report(
        4,
        "gradients match central differences",
        worst <= 1e-4 and wall < 60,
        f"(max rel err {worst:.2e}, {wall:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. Monotone alternation and identity-forced equality


def test_criterion_5_monotone_alternation_and_identity_mechanism():
    samples = []
    for i in range(12):
        inst = bench.gen_binpack(4, 3, 6, (1, 3), seed=300 + i)
        res = oracle.solve_bb(inst)
        samples.append(train.make_sample(inst.name, inst, res.solution.values))

    # The alternation asserts per-sample monotonicity at 1e-9 on every call;
    # a full run completing is the certificate. Spot-check batch risk too.
    model = net.init(net.GnnConfig(hidden=16, layers=2), seed=0)
    state = net.AdamState(lr=2e-3)
    rng = np.random.default_rng(0)
    monotone_ok = True
    for epoch in range(10):
        order = rng.permutation(len(samples))
        for start in range(0, len(order), 4):
            batch = [samples[i] for i in order[start : start + 4]]
            before = train.risk_symaware(model, batch, "bce")
            train.update_permutations(model, batch, "bce")
            after = train.risk_symaware(model, batch, "bce")
            monotone_ok &= after <= before + 1e-9
            _, grads = net.loss_and_grad(
                model, batch[0].graph, batch[0].label, "bce", batch[0].target_idx
            )
            net.adam_step(model, state, grads)

    base = dict(epochs=6, loss="bce", batch_size=4, lr=2e-3, seed=9, hidden=16, layers=1, force_identity=True)

    def fresh():
        out = []
        for s in samples:
            out.append(train.make_sample(s.name, s.instance, s.label))
        return out

    rc = train.fit(fresh(), train.TrainConfig(mode=train.CLASSIC, **base))
    rs = train.fit(fresh(), train.TrainConfig(mode=train.SYMMETRY_AWARE, **base))
    curves_equal = all(
        (a.r_tr, a.rs_tr, a.r_val, a.rs_val) == (b.r_tr, b.rs_tr, b.r_val, b.rs_val)
        for a, b in zip(rc.curve, rs.curve)
    )
    params_equal = all(
        np.array_equal(rc.model.params[k], rs.model.params[k]) for k in rc.model.params
    )
    report(
        5,
        "alternation monotone; identity-forced runs coincide",
        monotone_ok and curves_equal and params_equal,
        f"(curves_equal={curves_equal})",
    )


# ---------------------------------------------------------------------------
# 6. Duplicated-instance separation experiment


def test_criterion_6_duplicate_instance_separation():
    t0 = time.perf_counter()
    inst = bench.binpack_instance([1, 2, 3], 3, 3, name="dup")
    res = oracle.solve_bb(inst)
    label = np.asarray(res.solution.values)
    swap = pm.Permutation((1, 0, 2))
    from symilp.instance import permute_values

    moved = permute_values(inst.symmetry, swap, label)
    assert not np.array_equal(label, moved)
    hamming = float(np.sum(np.abs(label - moved)))
    floor = 0.25 * hamming / len(inst.binary_indices())

    def build():
        return [train.make_sample("a", inst, label), train.make_sample("b", inst, moved)]

    base = dict(
        epochs=200, loss="se", batch_size=2, lr=1e-3, inner_steps=20, seed=1,
        hidden=16, layers=2,
    )
    rc = train.fit(build(), train.TrainConfig(mode=train.CLASSIC, **base))
    rs = train.fit(build(), train.TrainConfig(mode=train.SYMMETRY_AWARE, **base))
    classic_ok = rc.curve[-1].r_tr >= 0.9 * floor
    sym_ok = rs.curve[-1].rs_tr < 1e-3
    wall = time.perf_counter() - t0
    report(
        6,
        "conflicting duplicate labels: floor vs collapse",
        classic_ok and sym_ok and wall < 120,
        f"(classic {rc.curve[-1].r_tr:.4f} >= {0.9 * floor:.4f}, "
        f"symmetry-aware {rs.curve[-1].rs_tr:.2e} < 1e-3, {wall:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 7. Desk-scale end-to-end comparison


def test_criterion_7_end_to_end_risks_and_errors(ip_samples, trained_models):
    _, _, test_s = ip_samples
    risk_wins = 0
    top_wins = 0
    details = []
    for seed in SEEDS:
        rc = trained_models[(train.CLASSIC, seed)]
        rs = trained_models[(train.SYMMETRY_AWARE, seed)]
        if rs.curve[-1].rs_tr < rc.curve[-1].r_tr:
            risk_wins += 1
        tc = float(
            np.mean(
                [
                    evalx.top_m_error(net.forward(rc.model, s.graph), s.label, s.instance, 50)
                    for s in test_s
                ]
            )
        )
        ts = float(
            np.mean(
                [
                    evalx.top_m_error(net.forward(rs.model, s.graph), s.label, s.instance, 50)
                    for s in test_s
                ]
            )
        )
        if ts < tc:
            top_wins += 1
        details.append(f"s{seed}: r {rc.curve[-1].r_tr:.3f}/{rs.curve[-1].rs_tr:.3f} top {tc:.2f}/{ts:.2f}")
    report(
        7,
        "end-to-end: aligned risk and top-50% error improve",
        risk_wins == 5 and top_wins >= 4,
        f"(risk {risk_wins}/5, top50 {top_wins}/5; " + "; ".join(details) + ")",
    )


# ---------------------------------------------------------------------------
# 8. Downstream repair comparison over the tuning grid


def _repair_gap(res, sample):
    """Primal gap of a solve against the label; a failed solve scores 1.0."""
    if res.solution is None:
        return 1.0
    return evalx.primal_gap(res.solution.objective, sample.instance.objective_value(sample.label))


def _grid_best_gap(task, samples, model, grid):
    best = None
    for param in grid:
        gaps = []
        for s in samples:
            pred = net.forward(model, s.graph)
            if task == "fix_opt":
                res = evalx.fix_and_optimize(s.instance, pred, param, DOWNSTREAM_LIMITS)
            else:
                res = evalx.local_branching(s.instance, pred, param, DOWNSTREAM_LIMITS)
            gaps.append(_repair_gap(res, s))
        mean_gap = float(np.mean(gaps))
        if best is None or mean_gap < best[1]:
            best = (param, mean_gap)
    return best


def test_criterion_8_downstream_directional(ip_samples, trained_models):
    """Repairs seeded by symmetry-aware models close more gap than classic ones.

    The control is the unaided solve_bb under DOWNSTREAM_LIMITS. A repair can
    only show an effect where the plain solver leaves a gap, so the criterion
    first asserts that the control misses the label's objective on at least
    half of the test instances. The budget is the largest of 10/20/30/50/75/
    100/150 nodes with that headroom, chosen from the control alone before any
    model comparison. Control on the test split, as instances missed out of
    12 and mean gap: 5 nodes 12, 1.0; 10 nodes 8, 0.50; 20 nodes 5, 0.086;
    30 nodes 3, 0.0015; 50 to 150 nodes 1, 6.6e-4. At 150 nodes the unaided
    solver already finds the optimum on 11 of 12 instances, and both models'
    repairs score exactly 0, which leaves the gain undefined.
    """
    _, _, test_s = ip_samples
    t0 = time.perf_counter()
    control = [_repair_gap(oracle.solve_bb(s.instance, DOWNSTREAM_LIMITS), s) for s in test_s]
    missed = sum(g > 0 for g in control)
    ok = 2 * missed >= len(test_s)
    summary = [f"control misses {missed}/{len(test_s)}, gap {float(np.mean(control)):.4f}"]
    for task in ("fix_opt", "local_branch"):
        gaps_c, gaps_s, gains = [], [], []
        for seed in SEEDS:
            _, gap_c = _grid_best_gap(task, test_s, trained_models[(train.CLASSIC, seed)].model, PARAM_GRID)
            _, gap_s = _grid_best_gap(
                task, test_s, trained_models[(train.SYMMETRY_AWARE, seed)].model, PARAM_GRID
            )
            gaps_c.append(gap_c)
            gaps_s.append(gap_s)
            g = evalx.gain(gap_c, gap_s)
            gains.append(0.0 if g is None else g)
        mean_c, mean_s, mean_gain = map(float, (np.mean(gaps_c), np.mean(gaps_s), np.mean(gains)))
        task_ok = mean_s <= mean_c and mean_gain > 0
        ok &= task_ok
        summary.append(f"{task}: gap {mean_c:.4f} vs {mean_s:.4f}, gain {mean_gain:.3f}")
    wall = time.perf_counter() - t0
    report(8, "repairs from aligned models close more gap", ok, f"({'; '.join(summary)}, {wall:.0f}s)")


# ---------------------------------------------------------------------------
# 9. Oracle soundness


def _random_binary_instance(rng):
    n_vars = int(rng.integers(8, 21))
    n_rows = int(rng.integers(3, 9))
    variables = tuple(Variable(0.0, 1.0, "binary", i) for i in range(n_vars))
    objective = tuple(float(c) for c in rng.integers(-5, 6, size=n_vars))
    cons = []
    for _ in range(n_rows):
        nnz = int(rng.integers(2, 6))
        idx = rng.choice(n_vars, size=nnz, replace=False)
        coeffs = [(int(i), float(rng.integers(-4, 5) or 1)) for i in idx]
        sense = ("LE", "GE", "EQ")[int(rng.integers(0, 3))]
        if sense == "EQ":
            point = rng.integers(0, 2, size=n_vars)
            rhs = float(sum(v * point[i] for i, v in coeffs))
        else:
            rhs = float(rng.integers(-3, 7))
        cons.append(make_constraint(coeffs, sense, rhs))
    return IlpInstance("rand", variables, objective, tuple(cons), None, {})


def test_criterion_9_oracle_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    agree = 0
    for _ in range(100):
        inst = _random_binary_instance(rng)
        bf = oracle.brute_force(inst)
        bb = oracle.solve_bb(inst)
        assert bb.status == bf.status, "status disagreement"
        if bf.status == oracle.OPTIMAL:
            assert bb.solution.objective == bf.solution.objective, "objective mismatch"
        agree += 1

    # Negative controls: flipping a variable that sits in an equality row
    # must be caught by the feasibility checker.
    rejected = 0
    controls = 0
    for inst in _family_instances(n_seeds=5):
        res = oracle.solve_bb(inst)
        eq_rows = [c for c in inst.constraints if c.sense == EQ]
        assert eq_rows
        idx = eq_rows[0].coeffs[0][0]
        mutated = list(res.solution.values)
        mutated[idx] = 1.0 - mutated[idx]
        controls += 1
        if oracle.check_feasible(inst, mutated):
            rejected += 1
    wall = time.perf_counter() - t0
    report(
        9,
        "solver agreement and negative controls",
        agree == 100 and rejected == controls and wall < 300,
        f"({agree}/100 solves agree, {rejected}/{controls} controls rejected, {wall:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 10. Metric identities


def test_criterion_10_metric_identities():
    from symilp.instance import permute_values

    ok = True
    # Orbit-zero for every family with enumerable groups; assignment-based
    # certificate for the symmetric case.
    cases = [
        bench.gen_pesp(3, 2, 5, seed=2),
        bench.gen_golomb(3, 6, seed=0),
        bench.binpack_instance([1, 2, 3], 3, 3),
    ]
    for inst in cases:
        res = oracle.solve_bb(inst)
        label = np.asarray(res.solution.values)
        for p in _elements_of(inst):
            pred = np.clip(permute_values(inst.symmetry, p, label), 0.01, 0.99)
            for m in (10, 30, 50, 70, 90, 100):
                ok &= evalx.top_m_error(pred, label, inst, m) == 0.0

    gap = evalx.primal_gap(110.0, 100.0)
    ok &= abs(gap - 0.1) < 1e-12

    g = evalx.gain(0.201, 0.124)
    # 38.3% exactly; the published table rounds its inputs and prints 38.4%.
    ok &= abs(g - 0.383) < 1e-3 and abs(g - 0.384) < 1.5e-3
    report(10, "metric identities", ok, f"(gap {gap}, gain {g:.4f})")
