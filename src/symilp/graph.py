"""Bipartite-graph encoding of an ILP for the prediction model.

Variables and constraints become the two node sets; every nonzero
coefficient A_jk becomes a weighted edge. Feature layout:

  variable node: [is_binary, is_integer, pos/n, lb, ub, c_k / max|c|, r_pos]
  constraint node: [rhs / max(1, max|b|), sense one-hot (LE, GE, EQ)]

Edge weights are the raw coefficients scaled by the per-row max amplitude.
Each side also gets a 0/1 incidence matrix over the edges, so the network
sums per-edge messages into nodes with one sparse product, and a degree
per node (its number of edges).

r_pos is a symmetry-breaking tag: a uniform [0, 1) draw from a fixed-seed
stream, indexed by variable position. Message passing cannot tell apart
variables that a symmetry maps onto each other when their features agree
(Chen, Liu, Wang & Yin, "On representations of mixed-integer linear
programs by graph neural networks", ICLR 2023), and pos/n alone separates
adjacent columns by only 1/n. Their remedy is a random feature per
variable; drawing it from a fixed seed keeps the encoding a pure function
of the instance, and the stream's prefix property gives position k the same
tag in every instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .instance import BINARY, EQ, GE, INTEGER, LE, IlpInstance

VAR_FEATS = 7
CON_FEATS = 4
POSITION_TAG_SEED = 20230501

_SENSE_SLOT = {LE: 1, GE: 2, EQ: 3}


@dataclass(frozen=True)
class BipartiteGraph:
    var_feats: np.ndarray  # n x VAR_FEATS
    con_feats: np.ndarray  # m x CON_FEATS
    edge_con: np.ndarray  # (E,) constraint index per edge
    edge_var: np.ndarray  # (E,) variable index per edge
    edge_weight: np.ndarray  # (E,)
    # Built from the edge lists at construction: entry (j, e) is 1 when edge
    # e touches constraint j (resp. variable k). A product sums each row's
    # edges in edge order, so it equals a per-edge accumulation bit for bit.
    con_incidence: csr_array = field(init=False, repr=False, compare=False)  # m x E
    var_incidence: csr_array = field(init=False, repr=False, compare=False)  # n x E
    # Edges per node as float64, the incidences' row sums.
    con_degree: np.ndarray = field(init=False, repr=False, compare=False)  # (m,)
    var_degree: np.ndarray = field(init=False, repr=False, compare=False)  # (n,)

    def __post_init__(self):
        con_inc = incidence(self.edge_con, self.num_cons)
        var_inc = incidence(self.edge_var, self.num_vars)
        object.__setattr__(self, "con_incidence", con_inc)
        object.__setattr__(self, "var_incidence", var_inc)
        object.__setattr__(self, "con_degree", np.diff(con_inc.indptr).astype(float))
        object.__setattr__(self, "var_degree", np.diff(var_inc.indptr).astype(float))

    @property
    def num_vars(self) -> int:
        return self.var_feats.shape[0]

    @property
    def num_cons(self) -> int:
        return self.con_feats.shape[0]


def incidence(idx: np.ndarray, num_rows: int) -> csr_array:
    """num_rows x len(idx) 0/1 matrix with a 1 at (idx[e], e) for every e."""
    idx = np.asarray(idx, dtype=np.intp)
    indptr = np.zeros(num_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(idx, minlength=num_rows), out=indptr[1:])
    columns = np.argsort(idx, kind="stable")  # each row's edges in edge order
    return csr_array((np.ones(idx.size), columns, indptr), shape=(num_rows, idx.size))


def encode(instance: IlpInstance) -> BipartiteGraph:
    n = instance.num_vars
    m = instance.num_constraints
    obj = np.asarray(instance.objective, dtype=float)
    obj_scale = float(np.max(np.abs(obj))) if n and np.any(obj) else 1.0
    tags = np.random.default_rng(POSITION_TAG_SEED).random(n)

    var_feats = np.zeros((n, VAR_FEATS))
    for i, v in enumerate(instance.vars):
        var_feats[i] = (
            1.0 if v.kind == BINARY else 0.0,
            1.0 if v.kind == INTEGER else 0.0,
            v.pos / max(1, n),
            v.lb,
            v.ub,
            obj[i] / obj_scale,
            tags[v.pos],
        )

    rhs_scale = max(1.0, max((abs(c.rhs) for c in instance.constraints), default=1.0))
    con_feats = np.zeros((m, CON_FEATS))
    edge_con: list[int] = []
    edge_var: list[int] = []
    edge_weight: list[float] = []
    for j, con in enumerate(instance.constraints):
        con_feats[j, 0] = con.rhs / rhs_scale
        con_feats[j, _SENSE_SLOT[con.sense]] = 1.0
        # An empty or all-zero row keeps scale 1.0: its edges weigh 0.0.
        row_scale = max((abs(v) for _, v in con.coeffs), default=0.0) or 1.0
        for idx, val in con.coeffs:
            edge_con.append(j)
            edge_var.append(idx)
            edge_weight.append(val / row_scale)

    return BipartiteGraph(
        var_feats,
        con_feats,
        np.asarray(edge_con, dtype=np.intp),
        np.asarray(edge_var, dtype=np.intp),
        np.asarray(edge_weight, dtype=float),
    )
