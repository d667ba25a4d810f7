"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Covers exactly the operations the message-passing network needs: affine
maps of constant inputs, two-layer perceptrons as one node, ReLU, row
gather and scatter-add as products with 0/1 incidence matrices,
concatenation, and mean losses that read their own rows of the logits. A
message perceptron over the edges of a bipartite graph is split in three
nodes: `edge_hidden` (its first layer and ReLU), `scatter_add_rows` (the
sum into receiving nodes) and `summed_linear` (its second layer, applied
after the sum). Every matmul in them runs on node embeddings; only
gathers, adds, the ReLU and the scatter work per edge. Each node records
its creation order, which is a topological order; backward runs in reverse
creation order, so a fixed computation produces bit-identical gradients on
every run.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np


_creation = itertools.count()  # a topological order: parents exist before their node


class Node:
    __slots__ = ("data", "grad", "parents", "grad_fn", "seq")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.parents = parents
        self.grad_fn = grad_fn  # maps upstream grad -> tuple of parent grads
        self.seq = next(_creation)

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


def edge_hidden(c: Node, v: Node, w1: Node, b1: Node, graph) -> Node:
    """relu([c[j], v[k], a_jk] @ W1 + b1) for every edge e = (j, k) of graph,
    a BipartiteGraph, as one E x hidden node.

    W1's rows split into a block for c, a block for v and a last row for the
    edge weight. The blocks multiply the node embeddings, and the products
    are gathered per edge, so matmul work scales with nodes, not edges. The
    backward pass likewise sums each edge's gradient into its endpoints
    with the incidence matrices before any matmul.
    """
    hc = c.shape[1]
    wc, wv, ww = w1.data[:hc], w1.data[hc:-1], w1.data[-1]
    weight = graph.edge_weight
    # b1 joins the constraint-side projection, one add per node rather than
    # per edge; its gradient is then the column sum of the constraint side's.
    pre = (c.data @ wc + b1.data).take(graph.edge_con, axis=0)
    pre += (v.data @ wv).take(graph.edge_var, axis=0)
    pre += np.multiply.outer(weight, ww)
    h = np.maximum(pre, 0.0, out=pre)

    def back(g):
        gp = g * (h > 0)
        gc = graph.con_incidence @ gp
        gv = graph.var_incidence @ gp
        gw1 = np.concatenate([c.data.T @ gc, v.data.T @ gv, (weight @ gp)[None]])
        return (gc @ wc.T, gv @ wv.T, gw1, gc.sum(axis=0))

    return Node(h, (c, v, w1, b1), back)


def summed_linear(s: Node, w: Node, b: Node, count: np.ndarray) -> Node:
    """s @ W + count ⊗ b, where row r of s sums count[r] inputs: a linear
    layer applied to each input and summed over them, computed once per row."""
    return Node(
        s.data @ w.data + count[:, None] * b.data,
        (s, w, b),
        lambda g: (g @ w.data.T, s.data.T @ g, count @ g),
    )


def relu(a: Node) -> Node:
    mask = a.data > 0
    return Node(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp only ever sees a non-positive argument.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def concat_cols(nodes: list[Node]) -> Node:
    datas = [n.data for n in nodes]
    bounds = [0, *itertools.accumulate(d.shape[1] for d in datas)]

    def back(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    return Node(np.concatenate(datas, axis=1), tuple(nodes), back)


def scatter_add_rows(a: Node, idx: np.ndarray, incidence) -> Node:
    """out[r] = sum of a's rows e with idx[e] == r, in order of e; empty rows
    are zero. incidence is graph.incidence(idx, number of output rows)."""
    idx = np.asarray(idx, dtype=np.intp)
    return Node(incidence @ a.data, (a,), lambda g: (g[idx],))


def _rows_loss(logits: Node, rows, loss, dz) -> Node:
    """A scalar loss of logits[rows], with dz(g) its gradient in those rows.
    rows is distinct indices or a slice, so the gradient is assigned back."""

    def back(g):
        grad = np.zeros_like(logits.data)
        grad[rows] = dz(g)
        return (grad,)

    return Node(loss, (logits,), back)


def bce_with_logits_mean(logits: Node, rows, target: np.ndarray) -> Node:
    """Mean binary cross-entropy of logits[rows] against a constant target,
    computed from the logits (softplus form)."""
    z = logits.data[rows]
    count = max(1, z.size)
    loss = np.sum(np.logaddexp(0.0, z) - target * z) / count
    sig = sigmoid(z)
    return _rows_loss(logits, rows, loss, lambda g: g * (sig - target) / count)


def sigmoid_se_mean(logits: Node, rows, target: np.ndarray) -> Node:
    """Mean squared error of sigmoid(logits[rows]) against a constant target."""
    out = sigmoid(logits.data[rows])
    diff = out - target
    count = max(1, diff.size)
    loss = np.sum(diff * diff) / count
    return _rows_loss(logits, rows, loss, lambda g: g * 2.0 * diff / count * out * (1.0 - out))


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every reachable node, in
    reverse creation order: a node's consumers all come before it."""
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError("backward needs a scalar root")
    root.grad = np.ones_like(root.data)
    # Only nodes with a gradient function have anything to pass on.
    pending = [(-root.seq, root)] if root.grad_fn is not None else []
    while pending:
        _, node = heapq.heappop(pending)
        for parent, grad in zip(node.parents, node.grad_fn(node.grad)):
            # No op writes into a gradient, so the first one is stored as is.
            if parent.grad is None:
                parent.grad = grad
                if parent.grad_fn is not None:
                    heapq.heappush(pending, (-parent.seq, parent))
            else:
                parent.grad = parent.grad + grad
