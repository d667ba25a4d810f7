"""Message-passing network over the bipartite encoding, with Adam training.

Each layer runs two directed passes. The constraint side first aggregates a
learned message from every incident edge (sum over edges, no degree
normalization) and mixes it with its previous embedding; the variable side
then does the same against the already-updated constraint embeddings. A
final two-layer head with a sigmoid turns variable embeddings into values
in (0,1), interpreted as probabilities for binary variables.

A message is a two-layer perceptron of [c_j, v_k, a_jk] on edge (j, k).
Both of its layers are linear maps, so they commute with the gather and the
sum (as in the bipartite convolution of Gasse, Chételat, Ferroni, Charlin
& Lodi, NeurIPS 2019): the first layer projects node embeddings before
they are gathered per edge, and the second layer maps each node's sum of
hidden rows once, with its bias counted once per edge. The result equals
the per-edge composition up to the order of floating-point sums.

All tensors are float64 and every reduction runs in a fixed order, so a
fixed seed and data order reproduce training bit-for-bit. Checkpoints are a
versioned binary file (flat little-endian float64 parameter dump) plus a
JSON sidecar describing shapes and configuration.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tape
from .graph import CON_FEATS, VAR_FEATS, BipartiteGraph

SE = "se"
BCE = "bce"

CHECKPOINT_MAGIC = b"GNN1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class GnnConfig:
    hidden: int = 64
    layers: int = 2

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ValueError("hidden width and layer count must be >= 1")


@dataclass
class GnnModel:
    cfg: GnnConfig
    params: dict[str, np.ndarray]  # name -> float64 array, insertion-ordered

    def param_names(self) -> list[str]:
        return list(self.params.keys())


def _mlp_shapes(d_in: int, d_hidden: int, d_out: int):
    return [("W1", (d_in, d_hidden)), ("b1", (d_hidden,)), ("W2", (d_hidden, d_out)), ("b2", (d_out,))]


def _param_layout(cfg: GnnConfig) -> list[tuple[str, tuple]]:
    h = cfg.hidden
    layout: list[tuple[str, tuple]] = [
        ("emb_v.W", (VAR_FEATS, h)),
        ("emb_v.b", (h,)),
        ("emb_c.W", (CON_FEATS, h)),
        ("emb_c.b", (h,)),
    ]
    for l in range(cfg.layers):
        for block, d_in in (
            (f"layer{l}.g_c", 2 * h + 1),
            (f"layer{l}.f_c", 2 * h),
            (f"layer{l}.g_v", 2 * h + 1),
            (f"layer{l}.f_v", 2 * h),
        ):
            for suffix, shape in _mlp_shapes(d_in, h, h):
                layout.append((f"{block}.{suffix}", shape))
    for suffix, shape in _mlp_shapes(h, h, 1):
        layout.append((f"out.{suffix}", shape))
    return layout


def init(cfg: GnnConfig, seed: int) -> GnnModel:
    """Deterministic He-style uniform initialization; biases start at zero.

    Second layers of every perceptron start damped by 1/4: sum aggregation
    over a node's incident edges grows activations by roughly the typical
    degree per pass, and without the damping the output logits saturate the
    sigmoid at initialization.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_layout(cfg):
        if name.endswith(".b1") or name.endswith(".b2") or name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / shape[0])
            if name.endswith(".W2"):
                bound /= 4.0
            params[name] = rng.uniform(-bound, bound, size=shape)
    return GnnModel(cfg, params)


def _mlp(params, prefix: str, x: tape.Node) -> tape.Node:
    w1, b1, w2, b2 = (params[prefix + suffix] for suffix in (".W1", ".b1", ".W2", ".b2"))
    return tape.perceptron(x, w1, b1, w2, b2)


@dataclass
class TapeForward:
    """One forward pass held on the tape: the logits node and the parameter
    leaves. loss_and_grad's backward consumes it; hold it no longer."""

    logits: tape.Node
    leaves: dict[str, tape.Node]

    def probs(self) -> np.ndarray:
        """Predicted values in (0,1), one per variable node."""
        return tape._sigmoid(self.logits.data).reshape(-1)


def _messages(p, prefix: str, c: tape.Node, v: tape.Node, graph: BipartiteGraph, to) -> tape.Node:
    """Per receiving node, the sum of message perceptron `prefix` over its
    edges; `to` is the receiving side's (edge index, incidence, degree)."""
    idx, inc, degree = to
    hidden = tape.edge_hidden(c, v, p[prefix + ".W1"], p[prefix + ".b1"], graph)
    summed = tape.scatter_add_rows(hidden, idx, inc)
    return tape.summed_linear(summed, p[prefix + ".W2"], p[prefix + ".b2"], degree)


def forward_tape(model: GnnModel, graph: BipartiteGraph) -> TapeForward:
    """Build the forward graph at the model's current weights."""
    p = {name: tape.leaf(arr) for name, arr in model.params.items()}
    v = tape.relu(tape.affine(graph.var_feats, p["emb_v.W"], p["emb_v.b"]))
    c = tape.relu(tape.affine(graph.con_feats, p["emb_c.W"], p["emb_c.b"]))
    to_cons = (graph.edge_con, graph.con_incidence, graph.con_degree)
    to_vars = (graph.edge_var, graph.var_incidence, graph.var_degree)

    for l in range(model.cfg.layers):
        agg_c = _messages(p, f"layer{l}.g_c", c, v, graph, to_cons)
        c = _mlp(p, f"layer{l}.f_c", tape.concat_cols([c, agg_c]))
        agg_v = _messages(p, f"layer{l}.g_v", c, v, graph, to_vars)
        v = _mlp(p, f"layer{l}.f_v", tape.concat_cols([v, agg_v]))

    return TapeForward(_mlp(p, "out", v), p)


def forward(model: GnnModel, graph: BipartiteGraph) -> np.ndarray:
    """Predicted values in (0,1), one per variable node."""
    return forward_tape(model, graph).probs()


def loss_and_grad(
    model: GnnModel,
    graph: BipartiteGraph,
    target: np.ndarray,
    loss_kind: str = BCE,
    target_idx: np.ndarray | None = None,
    fwd: TapeForward | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss (mean over predicted variables) and its gradient in parameters.

    `target_idx` restricts both prediction and target to a subset of
    variables; the default covers every variable node. `fwd` is
    forward_tape(model, graph) at the current weights, when the caller has
    already run it (to read the prediction before choosing the target);
    otherwise the forward pass runs here.
    """
    if fwd is None:
        fwd = forward_tape(model, graph)
    logits, p = fwd.logits, fwd.leaves
    rows = slice(None) if target_idx is None else np.asarray(target_idx, dtype=np.intp)
    t = np.asarray(target, dtype=float)[rows].reshape(-1, 1)
    if logits.data[rows].shape != t.shape:
        raise ValueError(f"target shape {t.shape} incompatible with {logits.data[rows].shape}")
    if loss_kind == BCE:
        if np.any((t != 0.0) & (t != 1.0)):
            raise ValueError("BCE target must be binary")
        loss = tape.bce_with_logits_mean(logits, rows, t)
    elif loss_kind == SE:
        loss = tape.sigmoid_se_mean(logits, rows, t)
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    tape.backward(loss)
    grads = {
        name: (node.grad if node.grad is not None else np.zeros_like(node.data))
        for name, node in p.items()
    }
    return float(loss.data), grads


def sample_loss(
    model: GnnModel,
    graph: BipartiteGraph,
    target: np.ndarray,
    loss_kind: str = BCE,
    target_idx: np.ndarray | None = None,
) -> float:
    """Loss only (no tape kept beyond the call); clipped as in loss_from_probs."""
    return loss_from_probs(forward(model, graph), target, loss_kind, target_idx)


def loss_from_probs(
    probs: np.ndarray,
    target: np.ndarray,
    loss_kind: str = BCE,
    target_idx: np.ndarray | None = None,
) -> float:
    """Mean loss of predicted values (forward's output) against a target,
    over target_idx or every variable.

    BCE clips the probabilities to [1e-12, 1 - 1e-12]. Once a logit passes
    +-27.6 this differs from the unclipped logit form that loss_and_grad
    trains on, so risks computed here are not the trained loss there.
    """
    t = np.asarray(target, dtype=float)
    if target_idx is not None:
        idx = np.asarray(target_idx, dtype=np.intp)
        probs, t = probs[idx], t[idx]
    if loss_kind == SE:
        d = probs - t
        return float(np.mean(d * d))
    if loss_kind == BCE:
        ph = np.clip(probs, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(t * np.log(ph) + (1.0 - t) * np.log1p(-ph)))
    raise ValueError(f"unknown loss kind {loss_kind!r}")


# ---------------------------------------------------------------------------
# Adam (Kingma & Ba's default moments and epsilon)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(model: GnnModel, state: AdamState, grads: dict[str, np.ndarray]) -> GnnModel:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for name, param in model.params.items():
        g = grads[name]
        if g.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros_like(param))
        v = state.v.setdefault(name, np.zeros_like(param))
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        param -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model


# ---------------------------------------------------------------------------
# Flat parameter views and checkpoints


def flatten_params(model: GnnModel) -> np.ndarray:
    return np.concatenate([model.params[name].reshape(-1) for name in model.param_names()])


def unflatten_params(model: GnnModel, flat: np.ndarray) -> None:
    off = 0
    for name in model.param_names():
        size = model.params[name].size
        model.params[name][...] = flat[off : off + size].reshape(model.params[name].shape)
        off += size
    if off != flat.size:
        raise ValueError("flat vector size mismatch")


def save_checkpoint(model: GnnModel, path: str) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "config": {
            "hidden": model.cfg.hidden,
            "layers": model.cfg.layers,
            "var_feats": VAR_FEATS,
            "con_feats": CON_FEATS,
        },
        "params": [[name, list(model.params[name].shape)] for name in model.param_names()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    flat = flatten_params(model).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(flat.tobytes())
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> GnnModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        version, blob_len = struct.unpack("<II", fh.read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(blob_len).decode("utf-8"))
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    for key, current in (("var_feats", VAR_FEATS), ("con_feats", CON_FEATS)):
        stored = header["config"][key]
        if stored != current:
            raise ValueError(
                f"checkpoint was trained on {stored} {key} per node but the graph "
                f"encoding now produces {current}; retrain the model"
            )
    cfg = GnnConfig(header["config"]["hidden"], header["config"]["layers"])
    model = init(cfg, seed=0)
    expected = [[name, list(model.params[name].shape)] for name in model.param_names()]
    if expected != header["params"]:
        raise ValueError("checkpoint parameter layout mismatch")
    unflatten_params(model, flat)
    return model
