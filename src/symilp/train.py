"""Training loops: classic risk minimization and symmetry-aware alternation.

The symmetry-aware mode treats the label of every sample as adjustable
within its instance's symmetry group. Each mini-batch first re-aligns the
labels to the current predictions (an exact per-sample argmin, so the batch
risk can only go down; this is checked at 1e-9 on every call) and then
takes the configured number of gradient steps against the aligned labels.
Classic mode is the same loop with the alignment switched off.

Per epoch both the plain risk r (labels as stored) and the aligned risk r_s
(labels re-aligned to the current model, not persisted) are recorded for the
training and validation splits, in both modes, so the two runs can be
compared on a common scale. Both come from one forward pass per sample.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import align, net
from . import perm as pm
from .graph import BipartiteGraph, encode
from .instance import IlpInstance, binary_grid, permute_values, read_json
from .oracle import check_feasible

CLASSIC = "classic"
SYMMETRY_AWARE = "symaware"
MODES = (CLASSIC, SYMMETRY_AWARE)

MONOTONE_TOL = 1e-9


@dataclass
class LabeledSample:
    name: str
    instance: IlpInstance
    graph: BipartiteGraph
    label: np.ndarray  # full-length solution values
    target_idx: np.ndarray  # binary variables: the prediction targets
    grid: np.ndarray | None  # binary-only grid rows, r x q, or None
    group_kind: str | None
    pi: pm.Permutation | None = None  # alternation state; None means identity


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    mode: str = SYMMETRY_AWARE
    loss: str = net.BCE
    batch_size: int = 16
    lr: float = 1e-3
    inner_steps: int = 1
    seed: int = 0
    hidden: int = 64
    layers: int = 2
    force_identity: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.inner_steps < 1 or self.batch_size < 1:
            raise ValueError("epochs, inner_steps and batch_size must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class EpochStats:
    epoch: int
    r_tr: float
    rs_tr: float
    r_val: float
    rs_val: float
    wall_ms: float


@dataclass
class FitResult:
    model: net.GnnModel
    curve: list[EpochStats]
    best_epoch: int
    best_val: float
    checkpoint_paths: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Samples and datasets


def make_sample(name: str, instance: IlpInstance, label_values) -> LabeledSample:
    label = np.asarray(label_values, dtype=float)
    if label.shape != (instance.num_vars,):
        raise ValueError(f"label for {name} has wrong length")
    target_idx = np.asarray(instance.binary_indices(), dtype=np.intp)
    grid = binary_grid(instance)
    kind = None if grid is None else instance.symmetry.kind
    return LabeledSample(name, instance, encode(instance), label, target_idx, grid, kind)


def load_dataset(data_dir: str):
    """Read manifest + instances + labels; returns (fit, val, test) sample lists.

    Label inconsistencies (wrong length, infeasible solution) are surfaced
    here, before any training starts.
    """
    manifest_path = os.path.join(data_dir, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    splits = {}
    for key in ("train", "val", "test"):
        names = manifest.get(key, [])
        samples = []
        for name in names:
            inst = read_json(os.path.join(data_dir, "instances", name + ".json"))
            with open(os.path.join(data_dir, "labels", name + ".json"), encoding="utf-8") as fh:
                lab = json.load(fh)
            violations = check_feasible(inst, lab["values"])
            if violations:
                raise ValueError(f"label for {name} infeasible: {violations[:3]}")
            samples.append(make_sample(name, inst, lab["values"]))
        splits[key] = samples
    val_names = set(manifest.get("val", []))
    fit_samples = [s for s in splits["train"] if s.name not in val_names]
    return fit_samples, splits["val"], splits["test"]


# ---------------------------------------------------------------------------
# Risks


def _target_values(sample: LabeledSample, aligned: bool) -> np.ndarray:
    if not aligned or sample.pi is None or sample.pi.is_identity():
        return sample.label
    return permute_values(sample.instance.symmetry, sample.pi, sample.label)


def _risk(model, samples, loss: str, aligned: bool) -> float:
    if not samples:
        raise ValueError("empty sample set")
    total = 0.0
    for s in samples:
        total += net.sample_loss(model, s.graph, _target_values(s, aligned), loss, s.target_idx)
    return total / len(samples)


def risk_classic(model: net.GnnModel, samples, loss: str = net.BCE) -> float:
    """Mean loss against the labels exactly as stored."""
    return _risk(model, samples, loss, aligned=False)


def risk_symaware(model: net.GnnModel, samples, loss: str = net.BCE) -> float:
    """Mean loss against the labels permuted by each sample's current state."""
    return _risk(model, samples, loss, aligned=True)


def _alignment(s: LabeledSample, probs: np.ndarray, loss: str) -> align.AlignmentProblem:
    return align.AlignmentProblem(probs[s.grid], s.label[s.grid], loss, s.group_kind)


def update_permutations(model: net.GnnModel, samples, loss: str = net.BCE) -> None:
    """Exact per-sample alignment update (the discrete half of the alternation).

    Each sample's permutation becomes the group element minimizing the loss
    between the current prediction and the permuted label. The minimized
    value can never exceed the previous one; a RuntimeError naming the
    sample is raised if it does.
    """
    for s in samples:
        if s.grid is None:
            continue
        problem = _alignment(s, net.forward(model, s.graph), loss)
        new_pi, new_loss = align.best_perm(problem)
        old_pi = s.pi if s.pi is not None else pm.identity(new_pi.degree)
        old_loss = align.permuted_loss(problem.xhat, problem.x, old_pi, loss)
        if not new_loss <= old_loss + MONOTONE_TOL:
            raise RuntimeError(f"alignment increased the loss on {s.name}: {old_loss} -> {new_loss}")
        s.pi = new_pi


def aligned_risk(model: net.GnnModel, samples, loss: str = net.BCE) -> tuple[float, float]:
    """Plain risk r and aligned risk r_s, from one forward pass per sample.

    r scores the labels as stored; r_s scores each label permuted by the
    group element best aligned to the same prediction. Sample state is
    untouched.
    """
    if not samples:
        raise ValueError("empty sample set")
    r = r_s = 0.0
    for s in samples:
        probs = net.forward(model, s.graph)
        plain = net.loss_from_probs(probs, s.label, loss, s.target_idx)
        r += plain
        if s.grid is None:
            r_s += plain
            continue
        pi, _ = align.best_perm(_alignment(s, probs, loss))
        target = permute_values(s.instance.symmetry, pi, s.label)
        r_s += net.loss_from_probs(probs, target, loss, s.target_idx)
    return r / len(samples), r_s / len(samples)


# ---------------------------------------------------------------------------
# Fitting


def _batch_step(model, state, batch, loss: str, aligned: bool) -> float:
    """One Adam step on the batch's mean gradient; returns the batch's mean loss."""
    scale = 1.0 / len(batch)
    acc: dict[str, np.ndarray] | None = None
    total = 0.0
    for s in batch:
        value, grads = net.loss_and_grad(model, s.graph, _target_values(s, aligned), loss, s.target_idx)
        total += value * scale
        if acc is None:
            acc = {k: g * scale for k, g in grads.items()}
        else:
            for k, g in grads.items():
                acc[k] += g * scale
    net.adam_step(model, state, acc)
    return total


def fit(
    train_samples,
    cfg: TrainConfig,
    val_samples=(),
    out_dir: str | None = None,
) -> FitResult:
    """Run one training according to cfg and return the best-validation model.

    In symmetry-aware mode the labels are re-aligned per mini-batch right
    before that batch's gradient steps. With force_identity (or trivial
    groups everywhere) the loop degrades to classic training exactly, step
    for step. A batch loss or selection risk that is not finite raises
    FloatingPointError naming the epoch.
    """
    if not train_samples:
        raise ValueError("training set is empty")
    model = net.init(net.GnnConfig(cfg.hidden, cfg.layers), cfg.seed)
    state = net.AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    selection = list(val_samples) if val_samples else list(train_samples)

    symaware = cfg.mode == SYMMETRY_AWARE and not cfg.force_identity

    curve: list[EpochStats] = []
    ckpts: list[str] = []
    best_val = np.inf
    best_epoch = 0
    best_params: dict[str, np.ndarray] | None = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    t0 = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_samples[i] for i in order[start : start + cfg.batch_size]]
            if symaware:
                update_permutations(model, batch, cfg.loss)
            for _ in range(cfg.inner_steps):
                if not np.isfinite(_batch_step(model, state, batch, cfg.loss, aligned=symaware)):
                    raise FloatingPointError(f"epoch {epoch}: batch loss is not finite")

        if cfg.force_identity:
            r_tr = rs_tr = risk_classic(model, train_samples, cfg.loss)
            r_val = rs_val = risk_classic(model, selection, cfg.loss)
        else:
            r_tr, rs_tr = aligned_risk(model, train_samples, cfg.loss)
            r_val, rs_val = aligned_risk(model, selection, cfg.loss)
        wall = (time.perf_counter() - t0) * 1e3
        curve.append(EpochStats(epoch, r_tr, rs_tr, r_val, rs_val, wall))

        sel = rs_val if symaware else r_val
        if not np.isfinite(sel):
            raise FloatingPointError(f"epoch {epoch}: selection risk is {sel}")
        if sel < best_val:
            best_val = sel
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
            if out_dir:
                path = os.path.join(out_dir, f"ckpt_ep{epoch:03d}.bin")
                net.save_checkpoint(model, path)
                ckpts.append(path)

    if best_params is not None:
        model.params = best_params
    if out_dir:
        best_path = os.path.join(out_dir, "best.ckpt")
        net.save_checkpoint(model, best_path)
        ckpts.append(best_path)
        write_curve(os.path.join(out_dir, "curve.csv"), curve)
    return FitResult(model, curve, best_epoch, float(best_val), ckpts)


def write_curve(path: str, curve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "r_tr", "rs_tr", "r_val", "rs_val", "wall_ms"])
        for row in curve:
            writer.writerow(
                [row.epoch, repr(row.r_tr), repr(row.rs_tr), repr(row.r_val), repr(row.rs_val), f"{row.wall_ms:.1f}"]
            )
