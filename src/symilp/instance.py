"""ILP data model with symmetry descriptors, validation and JSON serialization.

An instance is min c.x subject to rows A_j x {<=,>=,=} b_j with box bounds
and integrality marks per variable. A symmetry descriptor arranges a subset
of the variables on a p x q grid; the declared group permutes the q columns.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import perm as pm

LE = "LE"
GE = "GE"
EQ = "EQ"
SENSES = (LE, GE, EQ)

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"
VAR_KINDS = (BINARY, INTEGER, CONTINUOUS)

FEAS_TOL = 1e-6

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Instance or label file does not match the expected JSON schema."""


@dataclass(frozen=True)
class Variable:
    lb: float
    ub: float
    kind: str
    pos: int

    def is_integral(self) -> bool:
        return self.kind in (BINARY, INTEGER)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[int, float], ...]  # sparse (index, value), sorted by index
    sense: str
    rhs: float


@dataclass(frozen=True)
class SymmetryDescriptor:
    kind: str  # one of perm.GROUP_KINDS
    grid: tuple[tuple[int, ...], ...]  # p rows x q columns of variable indices

    @property
    def q(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def grid_array(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=np.intp)

    def grid_indices(self) -> list[int]:
        return [i for row in self.grid for i in row]


@dataclass(frozen=True)
class IlpInstance:
    name: str
    vars: tuple[Variable, ...]
    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...]
    symmetry: SymmetryDescriptor | None = None
    meta: dict = field(default_factory=dict, compare=True)

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def objective_value(self, values) -> float:
        return float(np.dot(np.asarray(self.objective), np.asarray(values, dtype=float)))

    def binary_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.vars) if v.kind == BINARY]


@dataclass(frozen=True)
class Solution:
    values: tuple[float, ...]
    objective: float


def binary_grid(instance: IlpInstance) -> np.ndarray | None:
    """Symmetry-grid rows whose variables are all binary, as an r x q index
    array; None without a nontrivial group (q < 2) or without such a row."""
    desc = instance.symmetry
    if desc is None or desc.q < 2:
        return None
    rows = [row for row in desc.grid if all(instance.vars[i].kind == BINARY for i in row)]
    return np.asarray(rows, dtype=np.intp) if rows else None


def make_constraint(coeffs: Iterable[tuple[int, float]], sense: str, rhs) -> Constraint:
    merged: dict[int, float] = {}
    for idx, val in coeffs:
        if val == 0:
            continue
        merged[int(idx)] = merged.get(int(idx), 0.0) + float(val)
    items = tuple(sorted((i, v) for i, v in merged.items() if v != 0))
    return Constraint(items, sense, float(rhs))


# ---------------------------------------------------------------------------
# Validation


def validate(instance: IlpInstance) -> list[str]:
    """Return all invariant violations; an empty list means the instance is valid."""
    out: list[str] = []
    n = instance.num_vars
    if len(instance.objective) != n:
        out.append(f"objective length {len(instance.objective)} != num_vars {n}")
    for i, v in enumerate(instance.vars):
        if v.kind not in VAR_KINDS:
            out.append(f"var {i}: unknown kind {v.kind!r}")
        if v.lb > v.ub:
            out.append(f"var {i}: lb {v.lb} > ub {v.ub}")
        if v.kind == BINARY and (v.lb, v.ub) != (0.0, 1.0):
            out.append(f"var {i}: binary bounds must be [0,1], got [{v.lb},{v.ub}]")
        if v.pos != i:
            out.append(f"var {i}: position index {v.pos} != slot {i}")
    for j, row in enumerate(instance.constraints):
        if row.sense not in SENSES:
            out.append(f"constraint {j}: unknown sense {row.sense!r}")
        seen: set[int] = set()
        for idx, val in row.coeffs:
            if not (0 <= idx < n):
                out.append(f"constraint {j}: index {idx} out of range")
            if idx in seen:
                out.append(f"constraint {j}: duplicate index {idx}")
            seen.add(idx)
            if not np.isfinite(val):
                out.append(f"constraint {j}: non-finite coefficient at {idx}")
        if not np.isfinite(row.rhs):
            out.append(f"constraint {j}: non-finite rhs")
    desc = instance.symmetry
    if desc is not None:
        if desc.kind not in pm.GROUP_KINDS:
            out.append(f"symmetry: unknown group kind {desc.kind!r}")
        widths = {len(row) for row in desc.grid}
        if len(widths) > 1:
            out.append("symmetry: ragged grid")
        flat = desc.grid_indices()
        if len(set(flat)) != len(flat):
            out.append("symmetry: grid not injective")
        if any(not (0 <= i < n) for i in flat):
            out.append("symmetry: grid index out of range")
        if len(flat) > n:
            out.append(f"symmetry: grid size {len(flat)} exceeds num_vars {n}")
    return out


# ---------------------------------------------------------------------------
# Group action on solutions


def permute_values(desc: SymmetryDescriptor, p: pm.Permutation, values) -> np.ndarray:
    """Permute grid columns of a full-length value vector; non-grid entries unchanged.

    Column j of the permuted grid is column p(j) of the original grid.
    """
    if p.degree != desc.q:
        raise ValueError(f"permutation degree {p.degree} != group degree {desc.q}")
    vals = np.asarray(values, dtype=float)
    return vals[_induced_variable_map(desc, p, vals.size)]


def apply_solution_permutation(
    instance: IlpInstance, p: pm.Permutation, solution: Solution
) -> Solution:
    """Apply a group element to a solution and recompute its objective."""
    desc = instance.symmetry
    if desc is None:
        raise ValueError(f"instance {instance.name!r} has no symmetry descriptor")
    if len(solution.values) != instance.num_vars:
        raise ValueError("solution length mismatch")
    vals = permute_values(desc, p, solution.values)
    return Solution(tuple(vals.tolist()), instance.objective_value(vals))


def _induced_variable_map(desc: SymmetryDescriptor, p: pm.Permutation, n: int) -> np.ndarray:
    """sigma over all n variables: sigma(grid[r][j]) = grid[r][p(j)], identity elsewhere."""
    sigma = np.arange(n, dtype=np.intp)
    grid = desc.grid_array()
    sigma[grid] = grid[:, list(p.mapping)]
    return sigma


def _canonical_rows(constraints, sigma: np.ndarray) -> list[tuple]:
    """Canonical sortable key per row, with indices pushed through sigma."""
    rows = []
    for con in constraints:
        items = [(int(sigma[idx]), round(val, 12)) for idx, val in con.coeffs]
        items.sort()
        rows.append((con.sense, round(con.rhs, 12), tuple(items)))
    rows.sort()
    return rows


def check_symmetry(instance: IlpInstance, *perms: pm.Permutation) -> bool:
    """Syntactic symmetry certificate for one or more group elements.

    True iff permuting the grid columns by each element (a) leaves the
    objective vector unchanged, (b) leaves variable bounds and integrality
    marks unchanged, and (c) maps the constraint-row multiset onto itself.
    This is sufficient for the element to map the feasible set onto itself
    with equal objective values; passing a generating set certifies the
    whole group. The identity's canonical rows are built once per call.
    """
    desc = instance.symmetry
    if desc is None:
        raise ValueError(f"instance {instance.name!r} has no symmetry descriptor")
    if not perms:
        raise ValueError("no group element given")
    for p in perms:
        if p.degree != desc.q:
            raise ValueError(f"permutation degree {p.degree} != group degree {desc.q}")
    n = instance.num_vars
    obj = np.asarray(instance.objective)
    identity_rows = None
    for p in perms:
        sigma = _induced_variable_map(desc, p, n)
        if not np.array_equal(obj[sigma], obj):
            return False
        for i in range(n):
            a, b = instance.vars[i], instance.vars[int(sigma[i])]
            if (a.lb, a.ub, a.kind) != (b.lb, b.ub, b.kind):
                return False
        if identity_rows is None:
            identity_rows = _canonical_rows(instance.constraints, np.arange(n))
        if _canonical_rows(instance.constraints, sigma) != identity_rows:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON serialization
#
# Stable field names:
#   {"name", "vars": [{"lb","ub","kind","pos"}], "objective": [...],
#    "constraints": [{"coeffs": [[idx,val],...], "sense", "rhs"}],
#    "symmetry": {"kind", "grid"} | null, "meta": {...}}
# Numbers are plain JSON; Python's float round-trip is exact, so
# read(write(x)) == x bit-for-bit.


def instance_to_dict(instance: IlpInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": instance.name,
        "vars": [
            {"lb": v.lb, "ub": v.ub, "kind": v.kind, "pos": v.pos} for v in instance.vars
        ],
        "objective": list(instance.objective),
        "constraints": [
            {
                "coeffs": [[idx, val] for idx, val in con.coeffs],
                "sense": con.sense,
                "rhs": con.rhs,
            }
            for con in instance.constraints
        ],
        "symmetry": None
        if instance.symmetry is None
        else {
            "kind": instance.symmetry.kind,
            "grid": [list(row) for row in instance.symmetry.grid],
        },
        "meta": instance.meta,
    }


def instance_from_dict(data: dict) -> IlpInstance:
    if not isinstance(data, dict):
        raise SchemaError("instance document must be a JSON object")
    if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise SchemaError(f"schema_version {data['schema_version']!r} is not {SCHEMA_VERSION}")
    for key in ("name", "vars", "objective", "constraints"):
        if key not in data:
            raise SchemaError(f"missing required field {key!r}")
    try:
        variables = tuple(
            Variable(float(v["lb"]), float(v["ub"]), str(v["kind"]), int(v["pos"]))
            for v in data["vars"]
        )
        objective = tuple(float(x) for x in data["objective"])
        constraints = tuple(
            Constraint(
                tuple((int(i), float(x)) for i, x in con["coeffs"]),
                str(con["sense"]),
                float(con["rhs"]),
            )
            for con in data["constraints"]
        )
        sym = data.get("symmetry")
        desc = None
        if sym is not None:
            desc = SymmetryDescriptor(
                str(sym["kind"]), tuple(tuple(int(i) for i in row) for row in sym["grid"])
            )
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise SchemaError("meta must be an object")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed instance document: {exc}") from exc
    inst = IlpInstance(str(data["name"]), variables, objective, constraints, desc, meta)
    problems = validate(inst)
    if problems:
        raise SchemaError("invalid instance: " + "; ".join(problems))
    return inst


def write_json(instance: IlpInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path) -> IlpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)  # raises json.JSONDecodeError on malformed input
    return instance_from_dict(data)
