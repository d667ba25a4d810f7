"""Instance generators for the four symmetry families, labeling, datasets.

Every generator declares its symmetry as a p x q grid of variable indices
whose columns the group permutes. The formulations are arranged so that the
declared group is a genuine symmetry of the emitted constraint system: all
variables indexed by the permuted axis sit inside the grid, and auxiliary
variables kept outside the grid take values invariant under the group
action. This makes the syntactic certificate (instance.check_symmetry) pass
for every group element and guarantees that permuting a feasible solution's
grid columns yields another feasible solution with equal objective.

Families:

  binpack        identical bins; symmetric group over bin columns
  item_placement identical bins with per-resource balance terms; symmetric
  smsp           identical slabs with weight levels and color caps; symmetric
  pesp           periodic timetabling, one-hot times; cyclic group over the
                 period columns
  golomb         ticks on a circle with pairwise-distinct circular
                 distances; dihedral group over the position columns

The module also labels instances with the exact oracle and writes dataset
directories (instances/, labels/, manifest.json) with an 80/20 train/test
split and a 30% validation carve-out from the training part.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import perm as pm
from .instance import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    LE,
    Constraint,
    IlpInstance,
    SymmetryDescriptor,
    Variable,
    make_constraint,
    validate,
    write_json,
)
from .oracle import INFEASIBLE, OPTIMAL, UNBOUNDED, SolveLimits, check_feasible, solve_bb

log = logging.getLogger(__name__)

BINARY_VAR_CAP = 400

FAMILIES = ("binpack", "item_placement", "smsp", "pesp", "golomb")

PERTURB_MODES = ("none", "literal", "centered")


@dataclass(frozen=True)
class GenSpec:
    """What to generate: family, how many instances, seed and size parameters.

    params is family-specific:
      binpack:        items, bins, capacity, size_range (lo, hi)
      item_placement: items, resources, bins (single int or [lo, hi] range)
      smsp:           orders, slabs, colors
      pesp:           events, activities, period
      golomb:         ticks, circumference (single int or [lo, hi] range)
    """

    family: str
    count: int
    seed: int
    params: dict
    perturb: str = "none"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.perturb not in PERTURB_MODES:
            raise ValueError(f"unknown perturb mode {self.perturb!r}")
        if self.perturb != "none" and self.family != "pesp":
            raise ValueError("perturbation applies to the pesp family only")


def _cap_binaries(n_bin: int, family: str) -> None:
    if n_bin > BINARY_VAR_CAP:
        raise ValueError(f"{family}: {n_bin} binary variables exceed the cap {BINARY_VAR_CAP}")


def _binary_vars(n: int) -> list[Variable]:
    return [Variable(0.0, 1.0, BINARY, i) for i in range(n)]


def _validated(inst: IlpInstance) -> IlpInstance:
    problems = validate(inst)
    if problems:
        raise ValueError(f"generated instance {inst.name} is invalid: " + "; ".join(problems))
    return inst


# ---------------------------------------------------------------------------
# Bin packing


def binpack_instance(sizes, bins: int, capacity, name: str = "binpack") -> IlpInstance:
    """Pack items of the given sizes into identical bins, minimizing used bins.

    Variables: y_j (bin j used) at index j, then x_ij (item i in bin j) at
    index J + i*J + j. Per-bin capacity rows and per-item partition rows.
    The symmetric group permutes the bin columns of the (items+1) x bins grid
    whose first row holds the y variables.
    """
    sizes = [float(a) for a in sizes]
    items = len(sizes)
    n = bins * (items + 1)
    _cap_binaries(n, "binpack")
    variables = _binary_vars(n)

    def x(i, j):
        return bins + i * bins + j

    objective = [1.0] * bins + [0.0] * (items * bins)
    cons = []
    for j in range(bins):
        coeffs = [(x(i, j), sizes[i]) for i in range(items)] + [(j, -float(capacity))]
        cons.append(make_constraint(coeffs, LE, 0.0))
    for i in range(items):
        cons.append(make_constraint([(x(i, j), 1.0) for j in range(bins)], EQ, 1.0))

    grid = [tuple(range(bins))] + [tuple(x(i, j) for j in range(bins)) for i in range(items)]
    desc = SymmetryDescriptor(pm.SYMMETRIC, tuple(grid))
    meta = {"family": "binpack", "sizes": sizes, "capacity": float(capacity), "bins": bins}
    inst = IlpInstance(name, tuple(variables), tuple(objective), tuple(cons), desc, meta)
    return _validated(inst)


def gen_binpack(items: int, bins: int, capacity, size_range, seed: int) -> IlpInstance:
    rng = np.random.default_rng(seed)
    lo, hi = size_range
    sizes = rng.integers(lo, hi + 1, size=items).tolist()
    return binpack_instance(sizes, bins, capacity, name=f"binpack_{seed}")


# ---------------------------------------------------------------------------
# Item placement


def gen_item_placement(items: int, bins: int, resources: int, seed: int) -> IlpInstance:
    """Spread items over identical bins while tracking per-resource imbalance.

    Binary x_ij assigns item i to bin j; continuous y_jk >= 0 absorbs the
    shortfall of normalized resource k in bin j, and continuous z_k tracks
    the worst bin. Both y and z live in [0,1]: the shortfall of a normalized
    resource never exceeds 1, so the cap cuts no optimum. The symmetry grid
    stacks the item rows of x and the resource rows of y over the bin
    columns; z is bin-independent and stays outside.
    """
    i_n, j_n, k_n = items, bins, resources
    _cap_binaries(i_n * j_n, "item_placement")
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 11, size=(i_n, k_n)).astype(float)
    totals = a.sum(axis=0)
    d = np.round(a / totals, 6)
    b = np.maximum(np.ceil(1.6 * totals / j_n), a.max(axis=0))
    alpha = np.round(rng.uniform(0.5, 2.0, size=k_n), 3)
    beta = np.round(rng.uniform(0.5, 2.0, size=k_n), 3)

    def x(i, j):
        return i * j_n + j

    def y(j, k):
        return i_n * j_n + j * k_n + k

    def z(k):
        return i_n * j_n + j_n * k_n + k

    n = i_n * j_n + j_n * k_n + k_n
    variables = _binary_vars(i_n * j_n)
    variables += [Variable(0.0, 1.0, CONTINUOUS, y(j, k)) for j in range(j_n) for k in range(k_n)]
    variables += [Variable(0.0, 1.0, CONTINUOUS, z(k)) for k in range(k_n)]

    objective = [0.0] * n
    for j in range(j_n):
        for k in range(k_n):
            objective[y(j, k)] = float(alpha[k])
    for k in range(k_n):
        objective[z(k)] = float(beta[k])

    cons = []
    for i in range(i_n):
        cons.append(make_constraint([(x(i, j), 1.0) for j in range(j_n)], EQ, 1.0))
    for j in range(j_n):
        for k in range(k_n):
            cons.append(
                make_constraint([(x(i, j), float(a[i, k])) for i in range(i_n)], LE, float(b[k]))
            )
    for j in range(j_n):
        for k in range(k_n):
            coeffs = [(x(i, j), float(d[i, k])) for i in range(i_n)] + [(y(j, k), 1.0)]
            cons.append(make_constraint(coeffs, GE, 1.0))
    for j in range(j_n):
        for k in range(k_n):
            cons.append(make_constraint([(y(j, k), 1.0), (z(k), -1.0)], LE, 0.0))

    grid = [tuple(x(i, j) for j in range(j_n)) for i in range(i_n)]
    grid += [tuple(y(j, k) for j in range(j_n)) for k in range(k_n)]
    desc = SymmetryDescriptor(pm.SYMMETRIC, tuple(grid))
    meta = {"family": "item_placement", "items": i_n, "bins": j_n, "resources": k_n}
    inst = IlpInstance(
        f"itemplace_{seed}", tuple(variables), tuple(objective), tuple(cons), desc, meta
    )
    return _validated(inst)


# ---------------------------------------------------------------------------
# Steel mill slab


def gen_smsp(orders: int, slabs: int, colors: int, seed: int) -> IlpInstance:
    """Assign orders to identical slabs; each slab picks a weight level.

    Binary x_os places order o on slab s, y_qs selects slab s's weight level
    from a fixed ladder (level 0 marks an unused slab), z_cs flags color c on
    slab s with at most two colors per slab. Minimizes the total selected
    weight. The grid stacks order rows, level rows and color rows over the
    slab columns. Requires colors <= 2*slabs so a feasible packing exists.
    """
    o_n, s_n, c_n = orders, slabs, colors
    if c_n > 2 * s_n:
        raise ValueError("need colors <= 2*slabs for guaranteed feasibility")
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 5, size=o_n).astype(float)
    color_of = rng.integers(0, c_n, size=o_n)
    total = float(w.sum())
    levels = sorted({0.0, math.ceil(total / 3), math.ceil(2 * total / 3), total})
    q_n = len(levels)
    _cap_binaries((o_n + q_n + c_n) * s_n, "smsp")

    def x(o, s):
        return o * s_n + s

    def y(q, s):
        return o_n * s_n + q * s_n + s

    def z(c, s):
        return (o_n + q_n) * s_n + c * s_n + s

    n = (o_n + q_n + c_n) * s_n
    variables = _binary_vars(n)
    objective = [0.0] * n
    for q in range(q_n):
        for s in range(s_n):
            objective[y(q, s)] = levels[q]

    cons = []
    for o in range(o_n):
        cons.append(make_constraint([(x(o, s), 1.0) for s in range(s_n)], EQ, 1.0))
    for s in range(s_n):
        cons.append(make_constraint([(y(q, s), 1.0) for q in range(q_n)], EQ, 1.0))
    for s in range(s_n):
        coeffs = [(x(o, s), float(w[o])) for o in range(o_n)]
        coeffs += [(y(q, s), -levels[q]) for q in range(q_n)]
        cons.append(make_constraint(coeffs, LE, 0.0))
    for o in range(o_n):
        for s in range(s_n):
            cons.append(make_constraint([(x(o, s), 1.0), (z(int(color_of[o]), s), -1.0)], LE, 0.0))
    for s in range(s_n):
        cons.append(make_constraint([(z(c, s), 1.0) for c in range(c_n)], LE, 2.0))

    grid = [tuple(x(o, s) for s in range(s_n)) for o in range(o_n)]
    grid += [tuple(y(q, s) for s in range(s_n)) for q in range(q_n)]
    grid += [tuple(z(c, s) for s in range(s_n)) for c in range(c_n)]
    desc = SymmetryDescriptor(pm.SYMMETRIC, tuple(grid))
    meta = {
        "family": "smsp",
        "weights": w.tolist(),
        "colors": color_of.tolist(),
        "levels": levels,
    }
    inst = IlpInstance(f"smsp_{seed}", tuple(variables), tuple(objective), tuple(cons), desc, meta)
    return _validated(inst)


# ---------------------------------------------------------------------------
# Periodic event scheduling


def gen_pesp(events: int, activities: int, period: int, seed: int) -> IlpInstance:
    """Periodic timetabling with one-hot event times over a cyclic period.

    Binary x_ik puts event i at time k. For each activity a=(i,j) a one-hot
    block s over the allowed slack window encodes the periodic difference
    (t_j - t_i) mod T; pair rows forbid differences outside the window and
    link rows force the indicator of the realized difference. The objective
    charges w_a * (slack + lower bound) through the s block only, so rotating
    all event times together changes nothing: the cyclic group acts on the
    time columns of the events x period grid while every s value is
    rotation-invariant. Instances are feasible by construction (the windows
    are drawn around a hidden reference timetable).
    """
    e_n, t_n = events, period
    _cap_binaries(e_n * t_n, "pesp")
    if activities > e_n * (e_n - 1):
        raise ValueError("too many activities for distinct ordered event pairs")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(e_n) for j in range(e_n) if i != j]
    sel = rng.choice(len(pairs), size=activities, replace=False)
    acts = [pairs[int(s)] for s in sel]
    t_ref = rng.integers(0, t_n, size=e_n)
    deltas = [(int(t_ref[j] - t_ref[i]) % t_n) for i, j in acts]
    widths = [min(t_n - 1, d + int(rng.integers(0, 3))) for d in deltas]
    lowers = [int(rng.integers(0, 4)) for _ in acts]
    weights = [round(float(rng.uniform(0.5, 3.0)), 3) for _ in acts]

    def x(i, k):
        return i * t_n + k

    s_offsets = []
    off = e_n * t_n
    for wd in widths:
        s_offsets.append(off)
        off += wd + 1
    n = off
    _cap_binaries(n, "pesp")
    variables = _binary_vars(n)

    objective = [0.0] * n
    for a, (wd, lo, wt) in enumerate(zip(widths, lowers, weights)):
        for delta in range(wd + 1):
            objective[s_offsets[a] + delta] = round(wt * (delta + lo), 9)

    cons = []
    for i in range(e_n):
        cons.append(make_constraint([(x(i, k), 1.0) for k in range(t_n)], EQ, 1.0))
    for a, wd in enumerate(widths):
        cons.append(
            make_constraint([(s_offsets[a] + d, 1.0) for d in range(wd + 1)], EQ, 1.0)
        )
    for a, ((i, j), wd) in enumerate(zip(acts, widths)):
        for delta in range(t_n):
            for k in range(t_n):
                k2 = (k + delta) % t_n
                if delta <= wd:
                    coeffs = [(x(i, k), 1.0), (x(j, k2), 1.0), (s_offsets[a] + delta, -1.0)]
                else:
                    coeffs = [(x(i, k), 1.0), (x(j, k2), 1.0)]
                cons.append(make_constraint(coeffs, LE, 1.0))

    grid = [tuple(x(i, k) for k in range(t_n)) for i in range(e_n)]
    desc = SymmetryDescriptor(pm.CYCLIC, tuple(grid))
    meta = {
        "family": "pesp",
        "events": e_n,
        "period": t_n,
        "activities": [list(a) for a in acts],
        "weights": weights,
        "lowers": lowers,
        "widths": widths,
        "s_offsets": s_offsets,
    }
    inst = IlpInstance(f"pesp_{seed}", tuple(variables), tuple(objective), tuple(cons), desc, meta)
    return _validated(inst)


def perturb_pesp(inst: IlpInstance, seed: int, centered: bool = False) -> IlpInstance:
    """New pesp instance with Gaussian-perturbed activity weights.

    The default draws the noise with mean equal to the weight itself and
    standard deviation a tenth of it, so weights roughly double on average;
    `centered` draws zero-mean noise of the same spread instead. Constraints
    and the symmetry descriptor are untouched; only the objective moves.
    """
    meta = inst.meta
    if meta.get("family") != "pesp":
        raise ValueError("perturbation needs a pesp-family instance")
    rng = np.random.default_rng(seed)
    weights = meta["weights"]
    noise_mean = np.zeros(len(weights)) if centered else np.asarray(weights, dtype=float)
    noise = rng.normal(noise_mean, 0.1 * np.asarray(weights, dtype=float))
    new_weights = [round(float(w + n), 6) for w, n in zip(weights, noise)]

    objective = list(inst.objective)
    for a, (wd, lo, wt) in enumerate(zip(meta["widths"], meta["lowers"], new_weights)):
        for delta in range(wd + 1):
            objective[meta["s_offsets"][a] + delta] = round(wt * (delta + lo), 9)
    new_meta = dict(meta)
    new_meta["weights"] = new_weights
    return IlpInstance(
        f"{inst.name}_p{seed}",
        inst.vars,
        tuple(objective),
        inst.constraints,
        inst.symmetry,
        new_meta,
    )


# ---------------------------------------------------------------------------
# Circular ruler with distinct distances


def _circ_dist(a: int, b: int, t_n: int) -> int:
    d = abs(a - b) % t_n
    return min(d, t_n - d)


def gen_golomb(ticks: int, circumference: int, seed: int = 0) -> IlpInstance:
    """Place ticks on a circle so all pairwise circular distances differ.

    Binary z_ip puts tick i at integer position p (one-hot per tick). For
    every two distinct tick pairs and every distance value v, conflict rows
    forbid both pairs from realizing v simultaneously, enumerated over all
    position combinations at circular distance v (with shared ticks pinned
    to a common position). Distances are invariant under rotating or
    reflecting the circle, so the dihedral group acting on the position
    columns of the ticks x circumference grid is a symmetry of the system.
    The objective is zero: any feasible placement is optimal. The structure
    is fully determined by (ticks, circumference); the seed only names the
    instance.
    """
    r_n, t_n = ticks, circumference
    _cap_binaries(r_n * t_n, "golomb")
    if r_n < 2:
        raise ValueError("need at least two ticks")

    def z(i, p):
        return i * t_n + p

    n = r_n * t_n
    variables = _binary_vars(n)
    objective = [0.0] * n

    cons = []
    for i in range(r_n):
        cons.append(make_constraint([(z(i, p), 1.0) for p in range(t_n)], EQ, 1.0))

    tick_pairs = [(i, j) for i in range(r_n) for j in range(i + 1, r_n)]
    seen_rows: set[tuple] = set()
    for e1 in range(len(tick_pairs)):
        for e2 in range(e1 + 1, len(tick_pairs)):
            i1, j1 = tick_pairs[e1]
            i2, j2 = tick_pairs[e2]
            for p1 in range(t_n):
                for q1 in range(t_n):
                    v = _circ_dist(p1, q1, t_n)
                    for p2 in range(t_n):
                        for q2 in range(t_n):
                            if _circ_dist(p2, q2, t_n) != v:
                                continue
                            placement = {}
                            ok = True
                            for tick, pos in ((i1, p1), (j1, q1), (i2, p2), (j2, q2)):
                                if placement.get(tick, pos) != pos:
                                    ok = False
                                    break
                                placement[tick] = pos
                            if not ok or len(placement) < 3:
                                continue
                            lits = tuple(sorted(z(t, p) for t, p in placement.items()))
                            if lits in seen_rows:
                                continue
                            seen_rows.add(lits)
                            cons.append(
                                make_constraint(
                                    [(lit, 1.0) for lit in lits], LE, float(len(lits) - 1)
                                )
                            )

    grid = [tuple(z(i, p) for p in range(t_n)) for i in range(r_n)]
    desc = SymmetryDescriptor(pm.DIHEDRAL, tuple(grid))
    meta = {"family": "golomb", "ticks": r_n, "circumference": t_n}
    inst = IlpInstance(
        f"golomb_{r_n}x{t_n}_{seed}",
        tuple(variables),
        tuple(objective),
        tuple(cons),
        desc,
        meta,
    )
    return _validated(inst)


# ---------------------------------------------------------------------------
# Dataset pipeline


def generate_instances(spec: GenSpec) -> list[IlpInstance]:
    """Deterministic instance list for a generation spec."""
    master = np.random.default_rng(spec.seed)
    # Arithmetic child seeds: unique by construction, stable across runs.
    seeds = [(spec.seed * 1_000_003 + i) % (2**31 - 1) for i in range(spec.count)]
    p = spec.params
    out: list[IlpInstance] = []

    if spec.family == "pesp" and spec.perturb != "none":
        base = gen_pesp(p["events"], p["activities"], p["period"], spec.seed)
        return [perturb_pesp(base, s, centered=spec.perturb == "centered") for s in seeds]

    bins_choice = None
    if spec.family == "item_placement" and isinstance(p["bins"], (list, tuple)):
        lo, hi = p["bins"]
        bins_choice = master.integers(lo, hi + 1, size=spec.count)

    for idx, seed in enumerate(seeds):
        if spec.family == "binpack":
            inst = gen_binpack(p["items"], p["bins"], p["capacity"], tuple(p["size_range"]), seed)
        elif spec.family == "item_placement":
            bins = int(bins_choice[idx]) if bins_choice is not None else p["bins"]
            inst = gen_item_placement(p["items"], bins, p["resources"], seed)
        elif spec.family == "smsp":
            inst = gen_smsp(p["orders"], p["slabs"], p["colors"], seed)
        elif spec.family == "pesp":
            inst = gen_pesp(p["events"], p["activities"], p["period"], seed)
        elif spec.family == "golomb":
            circ = p["circumference"]
            if isinstance(circ, (list, tuple)):
                circ = circ[0] + idx % (circ[1] - circ[0] + 1)
            inst = gen_golomb(p["ticks"], circ, seed)
        else:  # pragma: no cover
            raise ValueError(spec.family)
        out.append(inst)
    return out


def _label_one(args):
    inst, limits = args
    return solve_bb(inst, limits)


def label_instances(instances, limits: SolveLimits, workers: int = 1):
    """Solve every instance; returns a list of SolveResult in instance order."""
    if workers <= 1:
        return [solve_bb(inst, limits) for inst in instances]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_label_one, [(inst, limits) for inst in instances]))


def build_dataset(
    spec: GenSpec,
    out_dir: str,
    limits: SolveLimits = SolveLimits(),
    workers: int = 1,
) -> dict:
    """Generate, label, filter and split a dataset; returns the manifest.

    Instances the oracle proves infeasible or cannot finish within limits are
    dropped (and logged). The manifest is a pure function of the spec and
    limits, so re-running with the same arguments reproduces it byte for
    byte.
    """
    instances = generate_instances(spec)
    results = label_instances(instances, limits, workers)

    os.makedirs(os.path.join(out_dir, "instances"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "labels"), exist_ok=True)
    kept: list[str] = []
    dropped: list[list[str]] = []
    for inst, res in zip(instances, results):
        if res.status != OPTIMAL or res.solution is None:
            reason = res.status if res.status in (INFEASIBLE, UNBOUNDED) else "limit"
            dropped.append([inst.name, reason])
            log.warning("dropping %s (%s)", inst.name, reason)
            continue
        violations = check_feasible(inst, res.solution.values)
        if violations:  # pragma: no cover - solver contract
            dropped.append([inst.name, "label_infeasible"])
            continue
        write_json(inst, os.path.join(out_dir, "instances", inst.name + ".json"))
        values = [
            int(round(v)) if inst.vars[i].is_integral() else float(v)
            for i, v in enumerate(res.solution.values)
        ]
        label = {
            "values": values,
            "objective": res.solution.objective,
            "status": res.status,
        }
        with open(os.path.join(out_dir, "labels", inst.name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(label, fh, sort_keys=True)
            fh.write("\n")
        kept.append(inst.name)

    n_test = int(round(0.2 * len(kept)))
    train_names = kept[: len(kept) - n_test]
    test_names = kept[len(kept) - n_test :]
    n_val = int(round(0.3 * len(train_names)))
    val_names = train_names[len(train_names) - n_val :]

    manifest = {
        **asdict(spec),
        "train": train_names,
        "val": val_names,
        "test": test_names,
        "dropped": dropped,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
