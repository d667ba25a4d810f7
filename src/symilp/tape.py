"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Covers exactly the operations the message-passing network needs: affine
maps of constant inputs, two-layer perceptrons as one node, ReLU, sigmoid,
row gather and scatter-add as products with 0/1 incidence matrices,
concatenation, and fused mean losses. Gradients accumulate in a fixed
reverse-topological order, so a fixed computation produces bit-identical
gradients on every run.
"""

from __future__ import annotations

import itertools

import numpy as np


class Node:
    __slots__ = ("data", "grad", "parents", "grad_fn")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.parents = parents
        self.grad_fn = grad_fn  # maps upstream grad -> tuple of parent grads

    @property
    def shape(self):
        return self.data.shape


def leaf(data) -> Node:
    return Node(data)


def affine(x: np.ndarray, w: Node, b: Node) -> Node:
    """x @ W + b for a constant input x; no gradient flows into x."""
    return Node(x @ w.data + b.data, (w, b), lambda g: (x.T @ g, g.sum(axis=0)))


def perceptron(x: Node, w1: Node, b1: Node, w2: Node, b2: Node) -> Node:
    """Two-layer perceptron relu(x @ W1 + b1) @ W2 + b2 as one node."""
    pre = x.data @ w1.data + b1.data
    mask = pre > 0
    h = pre * mask

    def back(g):
        gh = (g @ w2.data.T) * mask
        return (gh @ w1.data.T, x.data.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0))

    return Node(h @ w2.data + b2.data, (x, w1, b1, w2, b2), back)


def relu(a: Node) -> Node:
    mask = a.data > 0
    return Node(a.data * mask, (a,), lambda g: (g * mask,))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails.
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def sigmoid(a: Node) -> Node:
    out = _sigmoid(a.data)
    return Node(out, (a,), lambda g: (g * out * (1.0 - out),))


def concat_cols(nodes: list[Node]) -> Node:
    datas = [n.data for n in nodes]
    bounds = [0, *itertools.accumulate(d.shape[1] for d in datas)]

    def back(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    return Node(np.concatenate(datas, axis=1), tuple(nodes), back)


def gather_rows(a: Node, idx: np.ndarray, incidence) -> Node:
    """out[e] = a[idx[e]]; incidence is graph.incidence(idx, a's row count)."""
    idx = np.asarray(idx, dtype=np.intp)
    return Node(a.data[idx], (a,), lambda g: (incidence @ g,))


def scatter_add_rows(a: Node, idx: np.ndarray, incidence) -> Node:
    """out[r] = sum of a's rows e with idx[e] == r, in order of e; empty rows
    are zero. incidence is graph.incidence(idx, number of output rows)."""
    idx = np.asarray(idx, dtype=np.intp)
    return Node(incidence @ a.data, (a,), lambda g: (g[idx],))


def se_mean(pred: Node, target: np.ndarray) -> Node:
    """Mean squared error over all entries; target is a constant."""
    diff = pred.data - target
    count = max(1, diff.size)
    return Node(
        np.sum(diff * diff) / count,
        (pred,),
        lambda g: (g * 2.0 * diff / count,),
    )


def bce_with_logits_mean(logits: Node, target: np.ndarray) -> Node:
    """Mean binary cross-entropy computed from logits (softplus form)."""
    z = logits.data
    count = max(1, z.size)
    loss = np.sum(np.logaddexp(0.0, z) - target * z) / count
    sig = _sigmoid(z)
    return Node(loss, (logits,), lambda g: (g * (sig - target) / count,))


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every reachable node."""
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError("backward needs a scalar root")
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.grad_fn is None or node.grad is None:
            continue
        for parent, grad in zip(node.parents, node.grad_fn(node.grad)):
            # No op writes into a gradient, so the first one is stored as is.
            if parent.grad is None:
                parent.grad = grad
            else:
                parent.grad = parent.grad + grad
