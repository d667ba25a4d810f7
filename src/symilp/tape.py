"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Covers exactly the operations the message-passing network needs: affine
maps, ReLU, sigmoid, row gather/scatter-add, concatenation, and fused mean
losses. Gradients accumulate in a fixed reverse-topological order, so a
fixed computation produces bit-identical gradients on every run.
"""

from __future__ import annotations

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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that were broadcast so grad matches the parent shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a: Node, b: Node) -> Node:
    out_data = a.data + b.data
    return Node(
        out_data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def matmul(a: Node, b: Node) -> Node:
    return Node(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


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
    widths = [d.shape[1] for d in datas]
    splits = np.cumsum(widths)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=1))

    return Node(np.concatenate(datas, axis=1), tuple(nodes), back)


def gather_rows(a: Node, idx: np.ndarray) -> Node:
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return Node(a.data[idx], (a,), back)


def scatter_add_rows(a: Node, idx: np.ndarray, num_rows: int) -> Node:
    """out[r] = sum of a's rows whose index maps to r; empty rows are zero."""
    idx = np.asarray(idx, dtype=np.intp)
    out = np.zeros((num_rows, a.data.shape[1]))
    np.add.at(out, idx, a.data)
    return Node(out, (a,), lambda g: (g[idx],))


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
            if parent.grad is None:
                parent.grad = grad.copy()
            else:
                parent.grad = parent.grad + grad
