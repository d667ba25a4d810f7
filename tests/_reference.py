"""A plain reference loop for train.fit, for tests only.

It runs SymILO's alternation the straightforward way: per mini-batch, the
alignment update on its own forward passes, then one loss_and_grad per
sample, and after every epoch `aligned_risk` (or `risk_classic` under
force_identity) over each split. Every sample goes through the network up
to three times at the same weights. train.fit shares those forward passes
and must reproduce this loop bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from symilp import net, train
from symilp.instance import permute_values


def _target(s, aligned):
    if not aligned or s.pi is None or s.pi.is_identity():
        return s.label
    return permute_values(s.instance.symmetry, s.pi, s.label)


def _batch_step(model, state, batch, loss, aligned):
    scale = 1.0 / len(batch)
    acc = None
    total = 0.0
    for s in batch:
        value, grads = net.loss_and_grad(model, s.graph, _target(s, aligned), loss, s.target_idx)
        total += value * scale
        if acc is None:
            acc = {k: g * scale for k, g in grads.items()}
        else:
            for k, g in grads.items():
                acc[k] += g * scale
    net.adam_step(model, state, acc)
    return total


def reference_fit(train_samples, cfg, val_samples=(), out_dir=None):
    model = net.init(net.GnnConfig(cfg.hidden, cfg.layers), cfg.seed)
    state = net.AdamState(lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    selection = list(val_samples) if val_samples else list(train_samples)
    symaware = cfg.mode == train.SYMMETRY_AWARE and not cfg.force_identity

    curve, ckpts = [], []
    best_val, best_epoch, best_params = np.inf, 0, None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_samples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_samples[i] for i in order[start : start + cfg.batch_size]]
            if symaware:
                train.update_permutations(model, batch, cfg.loss)
            for _ in range(cfg.inner_steps):
                if not np.isfinite(_batch_step(model, state, batch, cfg.loss, symaware)):
                    raise FloatingPointError(f"epoch {epoch}: batch loss is not finite")

        if cfg.force_identity:
            r_tr = rs_tr = train.risk_classic(model, train_samples, cfg.loss)
            r_val = rs_val = train.risk_classic(model, selection, cfg.loss)
        else:
            r_tr, rs_tr = train.aligned_risk(model, train_samples, cfg.loss)
            r_val, rs_val = train.aligned_risk(model, selection, cfg.loss)
        curve.append(train.EpochStats(epoch, r_tr, rs_tr, r_val, rs_val, 0.0))

        sel = rs_val if symaware else r_val
        if not np.isfinite(sel):
            raise FloatingPointError(f"epoch {epoch}: selection risk is {sel}")
        if sel < best_val:
            best_val, best_epoch = sel, epoch
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
        train.write_curve(os.path.join(out_dir, "curve.csv"), curve)
    return train.FitResult(model, curve, best_epoch, float(best_val), ckpts)
