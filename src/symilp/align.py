"""Optimal label alignment within a column-symmetry group.

Given a prediction matrix Xhat (p x q, entries in (0,1)) and a 0/1 label
matrix X on the same grid, we look for the group element pi minimizing the
loss between Xhat and the column-permuted label [X[:,pi(0)], ..., X[:,pi(q-1)]].

Both supported losses are sums of per-column terms cost(source column a ->
target slot b), so each group element's loss sums q entries of one column
cost matrix. Cyclic and dihedral groups score their q (resp. 2q) elements
on it directly, from a table of mappings built once per degree; for the
symmetric group the search over q! permutations collapses to a linear
assignment problem. Its LP relaxation has a totally unimodular constraint
matrix, hence an integral optimum; we solve it with the Hungarian method,
which is exact. A brute force path over S_q exists in the test suite as an
independent oracle.

In every group, ties between equal-cost optima (within a relative 1e-12)
go to the lexicographically smallest mapping, so repeated runs are
deterministic. For the symmetric group a second assignment solve, with the
found matching's edges raised by that tolerance, certifies in the common
case that no tie exists (Burkard, Dell'Amico & Martello, "Assignment
Problems", 2009); only when it cannot does a slot-by-slot refinement with
O(q^2) further solves run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import perm as pm

SE = "se"
BCE = "bce"
LOSS_KINDS = (SE, BCE)

BCE_CLIP = 1e-7
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AlignmentProblem:
    xhat: np.ndarray  # p x q prediction on the grid
    x: np.ndarray  # p x q 0/1 label on the grid
    loss: str  # "se" or "bce"
    group_kind: str  # perm.SYMMETRIC / CYCLIC / DIHEDRAL

    def __post_init__(self):
        if self.xhat.shape != self.x.shape:
            raise ValueError(f"shape mismatch {self.xhat.shape} vs {self.x.shape}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.group_kind not in pm.GROUP_KINDS:
            raise ValueError(f"unknown group kind {self.group_kind!r}")


def column_loss_matrix(xhat: np.ndarray, x: np.ndarray, loss: str) -> np.ndarray:
    """The alignment loss's column cost matrix; for BCE the predictions are
    first clipped into [BCE_CLIP, 1 - BCE_CLIP]."""
    if loss == SE:
        return build_cost_se(xhat, x)
    if loss == BCE:
        return build_cost_bce(np.clip(xhat, BCE_CLIP, 1.0 - BCE_CLIP), x)
    raise ValueError(f"unknown loss {loss!r}")


def build_cost_se(xhat, x) -> np.ndarray:
    """W[a, b] = squared error of putting label column a at prediction slot b.

    Summing W over an assignment pi (slot b receives column pi(b)) gives the
    full squared-error loss of the permuted label, so minimizing the
    assignment minimizes the loss.
    """
    xhat = np.asarray(xhat, dtype=float)
    x = np.asarray(x, dtype=float)
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch {xhat.shape} vs {x.shape}")
    # (p,q,1) label columns against (p,1,q) prediction columns -> (q_src, q_dst)
    diff = xhat[:, None, :] - x[:, :, None]
    return np.einsum("pab,pab->ab", diff, diff)


def build_cost_bce(xhat, x) -> np.ndarray:
    """W[a, b] = binary cross-entropy of label column a against prediction slot b."""
    xhat = np.asarray(xhat, dtype=float)
    x = np.asarray(x, dtype=float)
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch {xhat.shape} vs {x.shape}")
    if np.any(xhat <= 0.0) or np.any(xhat >= 1.0):
        raise ValueError("BCE cost needs predictions strictly inside (0,1)")
    log_p = np.log(xhat)
    log_q = np.log1p(-xhat)
    # W[a,b] = -sum_p x[p,a]*log(xhat[p,b]) + (1-x[p,a])*log(1-xhat[p,b])
    return -(x.T @ log_p + (1.0 - x).T @ log_q)


def permuted_loss(xhat, x, p: pm.Permutation, loss: str) -> float:
    """The loss against the column-permuted label: p's q entries of the column cost matrix, summed."""
    w = column_loss_matrix(xhat, x, loss)
    return float(w[list(p.mapping), range(p.degree)].sum())


def _assignment_cost(w: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(w)
    return float(w[rows, cols].sum())


def hungarian(w: np.ndarray) -> tuple[pm.Permutation, float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns the permutation pi with slot b assigned source pi(b) and the
    matching's total cost. Among optima within the tie tolerance of the
    best cost, the lexicographically smallest mapping is returned.

    One solve finds an optimum; a second solve, with that matching's q
    edges raised by the tolerance, certifies that no other matching comes
    within the tolerance. Only when it cannot be certified does the greedy
    slot-by-slot refinement run.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"cost matrix must be square, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("cost matrix has non-finite entries")
    q = w.shape[0]
    rows, cols = linear_sum_assignment(w)
    best = float(w[rows, cols].sum())
    tol = _TIE_TOL * max(1.0, abs(best))
    raised = w.copy()
    raised[rows, cols] += tol
    # Any other matching keeps at most q - 2 of the raised edges, so it
    # gains at most (q - 2) * tol. If nothing undercuts best + (q - 0.5) * tol
    # on the raised matrix, every other matching costs at least
    # best + 1.5 * tol, beyond the refinement's tie tolerance; the half-tol
    # margins on both sides absorb rounding.
    if _assignment_cost(raised) >= best + (q - 0.5) * tol:
        mapping = np.empty(q, dtype=np.intp)
        mapping[cols] = rows
        return pm.Permutation(tuple(mapping.tolist())), float(w[mapping, range(q)].sum())
    return _lex_refine(w, best, tol)


def _lex_refine(w: np.ndarray, best: float, tol: float) -> tuple[pm.Permutation, float]:
    """Lexicographically smallest matching of cost <= best + tol: slot by
    slot, the smallest source whose optimal completion keeps the optimum."""
    q = w.shape[0]
    mapping: list[int] = []
    free_sources = list(range(q))
    fixed_cost = 0.0
    for b in range(q):
        chosen = None
        for a in free_sources:
            cand_fixed = fixed_cost + w[a, b]
            rest_src = [s for s in free_sources if s != a]
            if rest_src:
                rest = _assignment_cost(w[np.ix_(rest_src, range(b + 1, q))])
            else:
                rest = 0.0
            if cand_fixed + rest <= best + tol:
                chosen = a
                fixed_cost = cand_fixed
                break
        if chosen is None:
            raise RuntimeError("assignment refinement lost the optimum")
        mapping.append(chosen)
        free_sources.remove(chosen)
    return pm.Permutation(tuple(mapping)), float(w[mapping, range(q)].sum())


def _enumerated_best(w: np.ndarray, table: np.ndarray) -> tuple[pm.Permutation, float]:
    """The table row of least cost on the column cost matrix w, and its
    cost; among rows within the tie tolerance of the least, the first,
    which is the lexicographically smallest mapping."""
    costs = w[table, np.arange(w.shape[1])].sum(axis=1)
    if not np.all(np.isfinite(costs)):
        raise ValueError("alignment loss is non-finite")
    best = costs.min()
    tied = np.flatnonzero(costs <= best + _TIE_TOL * max(1.0, abs(best)))
    return pm.Permutation(tuple(table[tied[0]].tolist())), float(costs[tied[0]])


def best_perm(problem: AlignmentProblem) -> tuple[pm.Permutation, float]:
    """Loss-minimizing group element and its loss.

    Every group is scored on the column cost matrix: symmetric groups go
    through the assignment reduction, cyclic and dihedral groups are
    enumerated exhaustively. The loss is read off that matrix (the chosen
    element's q entries, summed), exactly as permuted_loss reads it.
    """
    q = problem.x.shape[1]
    w = column_loss_matrix(problem.xhat, problem.x, problem.loss)
    if problem.group_kind == pm.SYMMETRIC:
        return hungarian(w)
    return _enumerated_best(w, pm.group_table(problem.group_kind, q))
