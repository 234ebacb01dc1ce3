"""Matrices of the saff_n generators, built from the entries that
`affrep.matmodel.affine_basis` lists, for tests and references that need
a generator as a matrix."""

from __future__ import annotations

from affrep.linalg import SMat
from affrep.matmodel import affine_basis


def basis_matrices(n: int, size: int) -> dict[str, SMat]:
    """The size x size matrix of every generator of `affine_basis(n)` whose
    entries fit: size n gives the sl_n generators in the defining
    representation, size n + 1 every generator in the affine one."""
    out = {}
    for key, entries in affine_basis(n):
        if all(a < size and b < size for a, b, _ in entries):
            out[key] = m = SMat(size, size)
            for a, b, v in entries:
                m.add_entry(a, b, v)
    return out
