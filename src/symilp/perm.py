"""Permutations and finite-group enumeration for column symmetries.

A permutation of degree q is stored as a mapping vector: entry i holds the
source index pi(i), 0-based. Acting on a vector v produces w with
w[i] = v[pi(i)], so a cyclic shift rho with rho(i) = i+1 mod q rotates the
vector one slot to the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations as _all_permutations

import numpy as np

SYMMETRIC = "symmetric"
CYCLIC = "cyclic"
DIHEDRAL = "dihedral"

GROUP_KINDS = (SYMMETRIC, CYCLIC, DIHEDRAL)

# Enumerating q! elements is only ever sensible for verification runs.
MAX_ENUMERATED_SYMMETRIC_DEGREE = 8


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..q-1}; mapping[i] = pi(i)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        q = len(self.mapping)
        if sorted(self.mapping) != list(range(q)):
            raise ValueError(f"mapping {self.mapping} is not a bijection on 0..{q - 1}")

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def is_identity(self) -> bool:
        return all(m == i for i, m in enumerate(self.mapping))

    def apply(self, values):
        """Return values rearranged: out[i] = values[pi(i)]."""
        arr = np.asarray(values)
        if arr.shape[0] != self.degree:
            raise ValueError(f"vector length {arr.shape[0]} != degree {self.degree}")
        return arr[list(self.mapping)]


@dataclass(frozen=True)
class GroupElements:
    """Explicitly materialized group (cyclic/dihedral only in library paths)."""

    kind: str
    q: int
    elements: tuple[Permutation, ...]


def identity(q: int) -> Permutation:
    if q < 1:
        raise ValueError("degree must be >= 1")
    return Permutation(tuple(range(q)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Permutation acting like b first, then a: (a*b).apply(v) == a.apply(b.apply(v))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(b.mapping[i] for i in a.mapping))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.degree
    for i, m in enumerate(a.mapping):
        inv[m] = i
    return Permutation(tuple(inv))


def rotation(q: int, shift: int = 1) -> Permutation:
    """Left rotation by `shift`: pi(i) = (i + shift) mod q."""
    if q < 1:
        raise ValueError("degree must be >= 1")
    return Permutation(tuple((i + shift) % q for i in range(q)))


def reflection(q: int) -> Permutation:
    """Order reversal: pi(i) = q - 1 - i."""
    if q < 1:
        raise ValueError("degree must be >= 1")
    return Permutation(tuple(q - 1 - i for i in range(q)))


def enumerate_cyclic(q: int) -> GroupElements:
    """All q rotations: powers of rho with rho(i) = i+1 mod q."""
    if q < 1:
        raise ValueError("cyclic group needs q >= 1")
    elements = tuple(rotation(q, k) for k in range(q))
    return GroupElements(CYCLIC, q, elements)


def enumerate_dihedral(q: int) -> GroupElements:
    """q rotations plus q reflected rotations (2q distinct elements for q >= 3)."""
    if q < 1:
        raise ValueError("dihedral group needs q >= 1")
    refl = reflection(q)
    elements: list[Permutation] = []
    seen: set[tuple[int, ...]] = set()
    for k in range(q):
        for p in (rotation(q, k), compose(refl, rotation(q, k))):
            if p.mapping not in seen:
                seen.add(p.mapping)
                elements.append(p)
    return GroupElements(DIHEDRAL, q, tuple(elements))


def enumerate_symmetric(q: int) -> GroupElements:
    """All q! permutations. Verification helper only; hard-capped degree."""
    if q < 1:
        raise ValueError("symmetric group needs q >= 1")
    if q > MAX_ENUMERATED_SYMMETRIC_DEGREE:
        raise ValueError(
            f"refusing to enumerate S_{q} ({q}! elements); cap is "
            f"{MAX_ENUMERATED_SYMMETRIC_DEGREE}"
        )
    elements = tuple(Permutation(p) for p in _all_permutations(range(q)))
    return GroupElements(SYMMETRIC, q, elements)


@cache
def group_table(kind: str, q: int) -> np.ndarray:
    """The cyclic or dihedral group's element mappings, one per row in
    lexicographic order; built once per (kind, q) and read-only."""
    group = enumerate_cyclic(q) if kind == CYCLIC else enumerate_dihedral(q)
    table = np.array(sorted(p.mapping for p in group.elements), dtype=np.intp)
    table.setflags(write=False)
    return table
