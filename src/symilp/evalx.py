"""Prediction metrics and downstream repair of predictions into solutions.

The error metrics compare a rounded prediction against the group-equivalent
label closest to the prediction (squared Euclidean distance), so a
prediction that nails any symmetric variant of the stored label scores
zero. Repair wraps the exact solver: fix-and-optimize pins the most
confident binaries, local branching restricts the search to a Hamming ball
around the rounded prediction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import align
from .instance import LE, IlpInstance, binary_grid, make_constraint, permute_values
from .oracle import ABS_GAP, INFEASIBLE, SolveLimits, SolveResult, solve_bb

DEFAULT_M_LIST = (10, 30, 50, 70, 90)
GAP_EPS = 1e-10


@dataclass
class MetricsRecord:
    name: str
    top_m: dict[int, float]
    gap: float | None
    wall_ms: float


def nearest_equivalent(pred: np.ndarray, label: np.ndarray, instance: IlpInstance) -> np.ndarray:
    """Group element of the label closest to the prediction (squared distance).

    Symmetric groups use the exact assignment reduction; cyclic and dihedral
    groups are enumerated. Without a nontrivial group the label is returned
    as-is.
    """
    grid = binary_grid(instance)
    if grid is None:
        return np.asarray(label, dtype=float)
    pred = np.asarray(pred, dtype=float)
    label = np.asarray(label, dtype=float)
    problem = align.AlignmentProblem(pred[grid], label[grid], align.SE, instance.symmetry.kind)
    pi, _ = align.best_perm(problem)
    return permute_values(instance.symmetry, pi, label)


def top_m_error(
    pred: np.ndarray,
    label: np.ndarray,
    instance: IlpInstance,
    m: float,
) -> float:
    """Rounding disagreement with the nearest equivalent label on m% of targets.

    The least confident m% of binary targets are scored: those with the
    largest rounding gap |Round(p)-p|.
    """
    pred = np.asarray(pred, dtype=float)
    (err,) = _top_m_errors(pred, nearest_equivalent(pred, label, instance), instance, (m,))
    return err


def _top_m_errors(pred: np.ndarray, tilde: np.ndarray, instance: IlpInstance, m_list) -> list[float]:
    """top_m_error for each m in m_list, against one already aligned label tilde."""
    for m in m_list:
        if not 0 < m <= 100:
            raise ValueError(f"m must be in (0, 100], got {m}")
    targets = np.asarray(instance.binary_indices(), dtype=np.intp)
    if targets.size == 0:
        return [0.0] * len(m_list)
    p = pred[targets]
    order = np.argsort(-np.abs(np.round(p) - p), kind="stable")
    chosen = targets[order]
    wrong = np.abs(np.round(pred[chosen]) - tilde[chosen])
    errs = []
    for m in m_list:
        keep = max(1, min(targets.size, int(round(m / 100.0 * targets.size))))
        errs.append(float(np.sum(wrong[:keep])))
    return errs


def primal_gap(obj: float, best_obj: float) -> float:
    """Relative distance of an objective to the best-known objective.

    The denominator is |best_obj| + GAP_EPS, so a zero best objective stays
    finite. Objectives that agree within the solver's tie tolerance
    (oracle.ABS_GAP, the gap below which branch and bound treats two
    objectives as one optimum) are the same optimum reached through
    different float round-off, so their gap is exactly 0.0 rather than
    noise that a later ratio (see gain) would amplify.
    """
    diff = abs(obj - best_obj)
    if diff <= ABS_GAP:
        return 0.0
    return diff / (abs(best_obj) + GAP_EPS)


def gain(gamma_r: float, gamma_rs: float) -> float | None:
    """Relative improvement of the symmetry-aware gap; None when undefined."""
    if gamma_r == 0:
        return None
    return (gamma_r - gamma_rs) / gamma_r


# ---------------------------------------------------------------------------
# Repair heuristics


def _confidence_order(pred: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Target indices sorted most-confident first (smallest rounding gap)."""
    p = pred[targets]
    gap = np.abs(np.round(p) - p)
    return targets[np.argsort(gap, kind="stable")]


def fix_and_optimize(
    instance: IlpInstance,
    pred: np.ndarray,
    alpha: float,
    limits: SolveLimits = SolveLimits(),
) -> SolveResult:
    """Pin the most confident rounded binaries and solve the rest exactly.

    alpha is the fraction of binary targets to fix. When the pinned
    assignment is proven infeasible, alpha is halved and the solve retried,
    up to five times.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    pred = np.asarray(pred, dtype=float)
    targets = np.asarray(instance.binary_indices(), dtype=np.intp)
    ordered = _confidence_order(pred, targets)
    result = None
    for _ in range(6):
        k = int(alpha * targets.size)
        fixed = {int(i): float(np.round(pred[i])) for i in ordered[:k]}
        result = solve_bb(instance, limits, fixed=fixed)
        if result.status != INFEASIBLE or k == 0:
            return result
        alpha = alpha / 2 if k > 1 else 0.0
    return result


def local_branching(
    instance: IlpInstance,
    pred: np.ndarray,
    beta: float,
    limits: SolveLimits = SolveLimits(),
) -> SolveResult:
    """Solve within a Hamming ball around the rounded prediction.

    The ball has radius floor(beta * #binaries) and is imposed by the single
    linear row sum_{xbar=0} x + sum_{xbar=1} (1 - x) <= radius. beta = 1
    makes the row vacuous.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0,1], got {beta}")
    pred = np.asarray(pred, dtype=float)
    targets = instance.binary_indices()
    xbar = {i: float(np.round(pred[i])) for i in targets}
    radius = int(np.floor(beta * len(targets)))
    coeffs = [(i, -1.0 if xbar[i] == 1.0 else 1.0) for i in targets]
    rhs = radius - sum(1 for i in targets if xbar[i] == 1.0)
    cut = make_constraint(coeffs, LE, rhs)
    return solve_bb(instance, limits, extra_constraints=(cut,))


# ---------------------------------------------------------------------------
# Dataset-level evaluation and reports


def evaluate_predictions(
    samples,
    predictions,
    m_list=DEFAULT_M_LIST,
) -> list[MetricsRecord]:
    """Top-m% errors per labeled sample; no solving involved.

    Each sample's nearest equivalent label is computed once and scored at
    every m.
    """
    records = []
    for sample, pred in zip(samples, predictions):
        pred = np.asarray(pred, dtype=float)
        tilde = nearest_equivalent(pred, sample.label, sample.instance)
        errs = _top_m_errors(pred, tilde, sample.instance, m_list)
        records.append(MetricsRecord(sample.name, dict(zip(map(int, m_list), errs)), None, 0.0))
    return records


def write_metrics_csv(path: str, records, m_list=DEFAULT_M_LIST) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance"] + [f"top{int(m)}" for m in m_list] + ["gap", "wall_ms"])
        for r in records:
            row = [r.name] + [repr(r.top_m[int(m)]) for m in m_list]
            row += ["" if r.gap is None else repr(r.gap), f"{r.wall_ms:.1f}"]
            writer.writerow(row)


def write_summary_json(path: str, records, m_list=DEFAULT_M_LIST) -> dict:
    summary = {"count": len(records)}
    for m in m_list:
        vals = np.asarray([r.top_m[int(m)] for r in records])
        summary[f"top{int(m)}_mean"] = float(vals.mean())
        summary[f"top{int(m)}_std"] = float(vals.std())
    gaps = [r.gap for r in records if r.gap is not None]
    if gaps:
        summary["gap_mean"] = float(np.mean(gaps))
        summary["gap_std"] = float(np.std(gaps))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary
