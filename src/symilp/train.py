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
compared on a common scale.

Each sample goes through the network once per weight state:
- a gradient step's tape forward (net.forward_tape) gives the prediction
  that the alignment update reads (symmetry-aware mode, first inner step),
  then the loss against the aligned label and the backward pass;
- when epoch e ends, epoch e+1's order is drawn and its first step runs at
  once, one tape at a time: its forwards also give epoch e's risk terms for
  that batch (r_s reuses the alignment's permutation), and only its loss
  and gradient are kept, for epoch e+1's first Adam update;
- net.forward scores the other training samples and the validation split,
  and epoch e's curve row, model selection and checkpoint complete.

Every risk is a mean over samples of one per-sample function, _risk_terms.
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

# _risk_terms's pi for the group element best aligned to the prediction.
_BEST = "best"


def _permuted_label(s: LabeledSample, pi) -> np.ndarray:
    """s's label permuted by pi; None or the identity leaves it as stored."""
    if pi is None or pi.is_identity():
        return s.label
    return permute_values(s.instance.symmetry, pi, s.label)


def risk_classic(model: net.GnnModel, samples, loss: str = net.BCE) -> float:
    """Mean loss against the labels exactly as stored."""
    return _means([_risk_terms(s, net.forward(model, s.graph), loss, None) for s in samples])[0]


def risk_symaware(model: net.GnnModel, samples, loss: str = net.BCE) -> float:
    """Mean loss against the labels permuted by each sample's current state."""
    return _means([_risk_terms(s, net.forward(model, s.graph), loss, s.pi) for s in samples])[1]


def _alignment(s: LabeledSample, probs: np.ndarray, loss: str) -> align.AlignmentProblem:
    return align.AlignmentProblem(probs[s.grid], s.label[s.grid], loss, s.group_kind)


def update_permutations(model: net.GnnModel, samples, loss: str = net.BCE, probs=None) -> None:
    """Exact per-sample alignment update (the discrete half of the alternation).

    Each sample's permutation becomes the group element minimizing the loss
    between the current prediction and the permuted label. `probs` holds
    each sample's prediction (net.forward's output at the model's current
    weights) when the caller already has it; otherwise it is computed here.
    The minimized value can never exceed the previous one; a RuntimeError
    naming the sample is raised if it does.
    """
    for k, s in enumerate(samples):
        if s.grid is None:
            continue
        pred = net.forward(model, s.graph) if probs is None else probs[k]
        problem = _alignment(s, pred, loss)
        new_pi, new_loss = align.best_perm(problem)
        old_pi = s.pi if s.pi is not None else pm.identity(new_pi.degree)
        old_loss = align.permuted_loss(problem.xhat, problem.x, old_pi, loss)
        if not new_loss <= old_loss + MONOTONE_TOL:
            raise RuntimeError(f"alignment increased the loss on {s.name}: {old_loss} -> {new_loss}")
        s.pi = new_pi


def _risk_terms(s: LabeledSample, probs: np.ndarray, loss: str, pi=_BEST) -> tuple[float, float]:
    """One sample's plain loss (its label as stored) and aligned loss (its
    label permuted by pi) for the prediction probs.

    pi is a group element, None for the identity, or _BEST for the element
    best aligned to probs. A sample without a grid scores its label as
    stored in both.
    """
    plain = net.loss_from_probs(probs, s.label, loss, s.target_idx)
    if s.grid is None:
        return plain, plain
    if pi is _BEST:
        pi, _ = align.best_perm(_alignment(s, probs, loss))
    return plain, net.loss_from_probs(probs, _permuted_label(s, pi), loss, s.target_idx)


def _means(terms) -> tuple[float, float]:
    """Mean plain and aligned risk, summed in sample order."""
    if not terms:
        raise ValueError("empty sample set")
    r = r_s = 0.0
    for plain, aligned in terms:
        r += plain
        r_s += aligned
    return r / len(terms), r_s / len(terms)


def aligned_risk(model: net.GnnModel, samples, loss: str = net.BCE) -> tuple[float, float]:
    """Plain risk r and aligned risk r_s, from one forward pass per sample.

    r scores the labels as stored; r_s scores each label permuted by the
    group element best aligned to the same prediction. Sample state is
    untouched.
    """
    return _means([_risk_terms(s, net.forward(model, s.graph), loss) for s in samples])


# ---------------------------------------------------------------------------
# Fitting


def _batch_grads(model, batch, loss: str, aligned: bool, see_probs=None):
    """The batch's mean loss and mean gradient, one forward pass per sample.

    see_probs(k, probs), when given, receives the prediction of batch[k]
    before its loss is taken, so it may realign the label the loss scores.
    """
    scale = 1.0 / len(batch)
    acc: dict[str, np.ndarray] | None = None
    total = 0.0
    for k, s in enumerate(batch):
        fwd = net.forward_tape(model, s.graph)
        if see_probs is not None:
            see_probs(k, fwd.probs())
        target = _permuted_label(s, s.pi if aligned else None)
        value, grads = net.loss_and_grad(model, s.graph, target, loss, s.target_idx, fwd)
        del fwd  # no tape outlives its backward pass
        total += value * scale
        if acc is None:
            acc = {name: g * scale for name, g in grads.items()}
        else:
            for name, g in grads.items():
                acc[name] += g * scale
    return total, acc


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

    Forward passes are shared as the module docstring says; each epoch's
    curve row, model selection and checkpoint complete when the epoch ends.
    """
    if not train_samples:
        raise ValueError("training set is empty")
    model = net.init(net.GnnConfig(cfg.hidden, cfg.layers), cfg.seed)
    state = net.AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    val_samples = list(val_samples)
    n = len(train_samples)

    symaware = cfg.mode == SYMMETRY_AWARE and not cfg.force_identity
    # Under force_identity the aligned risk scores the labels as stored.
    risk_pi = None if cfg.force_identity else _BEST

    curve: list[EpochStats] = []
    ckpts: list[str] = []
    best_val = np.inf
    best_epoch = 0
    best_params: dict[str, np.ndarray] | None = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def step(picked, realign: bool, terms=None):
        """Mean loss and gradient of the batch train_samples[picked]. With
        realign, each label is first aligned to its prediction (symmetry-aware
        mode) and its risk terms go to terms[index], when terms is given."""
        batch = [train_samples[i] for i in picked]

        def see_probs(k, probs):
            s = batch[k]
            if symaware:
                update_permutations(model, [s], cfg.loss, [probs])
            if terms is not None:
                terms[picked[k]] = _risk_terms(s, probs, cfg.loss, s.pi if symaware else risk_pi)

        return _batch_grads(model, batch, cfg.loss, symaware, see_probs if realign else None)

    def score(s):
        return _risk_terms(s, net.forward(model, s.graph), cfg.loss, risk_pi)

    t0 = time.perf_counter()
    order = rng.permutation(n)
    head = None  # this epoch's first step, taken when the previous epoch ended
    for epoch in range(1, cfg.epochs + 1):
        for start in range(0, n, cfg.batch_size):
            picked = order[start : start + cfg.batch_size]
            for inner in range(cfg.inner_steps):
                total, grads = head if head is not None else step(picked, inner == 0)
                head = None
                net.adam_step(model, state, grads)
                if not np.isfinite(total):
                    raise FloatingPointError(f"epoch {epoch}: batch loss is not finite")

        # This epoch's risks, at the weights it ended with. The next epoch's
        # first step scores its own batch; net.forward scores the rest.
        terms: list = [None] * n
        if epoch < cfg.epochs:
            order = rng.permutation(n)
            head = step(order[: cfg.batch_size], True, terms)
        r_tr, rs_tr = _means([t if t is not None else score(s) for t, s in zip(terms, train_samples)])
        r_val, rs_val = _means([score(s) for s in val_samples]) if val_samples else (r_tr, rs_tr)
        curve.append(EpochStats(epoch, r_tr, rs_tr, r_val, rs_val, (time.perf_counter() - t0) * 1e3))

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
