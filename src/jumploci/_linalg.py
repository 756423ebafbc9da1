"""Exact linear algebra over Q and Q(zeta_m), shared by the invariant computations.

Every elimination goes through the sparse kernel `echelon_insert`, which keeps
a row echelon basis.  Rational rows (entries `int` or `Fraction`) are stored as
primitive integer rows and reduced fraction-free, so no division over Q
happens; cyclotomic rows (entries `CyclotomicElement`) are scaled to 1 at
their pivot by one inversion of the pivot.  A row of any other entries, a
float among them, is refused.  `reduced` turns a rational basis into its
reduced echelon form over Q, and `kernel` reads the nullspace off that form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .laurent import CyclotomicElement

__all__ = [
    "rank",
    "echelon_insert",
    "reduced",
    "kernel",
]


_RATIONAL = {int, bool, Fraction}


def _primitive(vec, types):
    """A new rational row (entry types `types`) scaled to integers and divided by their content."""
    if types - {int}:
        den = lcm(*(x.denominator for x in vec.values()))
        vec = {k: x.numerator * (den // x.denominator) for k, x in vec.items()}
    else:
        vec = dict(vec)
    g = gcd(*vec.values())
    if g > 1:
        for k in vec:
            vec[k] //= g
    return vec


def echelon_insert(basis, vec):
    """Reduce a sparse row against a row echelon basis; insert it if new.

    `vec` maps ordered keys (column indices, tensor words, ...) to nonzero
    entries.  `basis` maps each pivot key to its row, whose least key is the
    pivot; a basis holds rows of one kind.  A rational `vec` (every entry of
    type `int` or `Fraction`) is scaled to a primitive integer row and reduced
    fraction-free: at a pivot holding `a` in its row and `c` in `vec`,
    vec <- (a/g) vec - (c/g) row with g = gcd(a, c).  A cyclotomic `vec`
    (every entry a `CyclotomicElement`) is reduced over Q(zeta_m) against
    rows that hold 1 at their pivot; any other `vec` raises TypeError.  Only
    the pivots that `vec` meets are visited, least first, and the other rows
    are never touched.  An independent `vec` is stored with its pivot
    `min(vec)` (primitive with a positive pivot entry, or scaled to 1 there)
    and its pivot is returned.  A dependent `vec` leaves `basis` unchanged
    and gives None.
    """
    types = set(map(type, vec.values()))
    rational = types <= _RATIONAL
    if rational:
        vec = _primitive(vec, types) if vec else {}
    elif types == {CyclotomicElement}:
        vec = dict(vec)
    else:
        names = sorted(t.__name__ for t in types)
        raise TypeError(f"row entries must be all rational or all cyclotomic, got {names}")
    heap = [k for k in vec if k in basis]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = vec.get(p)
        if c is None:  # a duplicate entry, already cleared
            continue
        row = basis[p]
        if rational:
            a = row[p]
            g = gcd(a, c)
            if g != a:
                s = a // g
                for k in vec:
                    vec[k] *= s
            c //= g
        m = -c
        for k, v in row.items():
            old = vec.get(k)
            if old is None:
                vec[k] = m * v
                if k in basis:
                    heappush(heap, k)
            else:
                s = old + m * v
                if s:
                    vec[k] = s
                else:
                    del vec[k]
    if not vec:
        return None
    pivot = min(vec)
    if rational:
        g = gcd(*vec.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            for k in vec:
                vec[k] //= g
    else:
        inv = vec[pivot].inverse()
        vec = {k: v * inv for k, v in vec.items()}
    basis[pivot] = vec
    return pivot


def reduced(basis):
    """Reduced echelon form over Q of a rational basis kept by `echelon_insert`.

    Returns a new map from each pivot to a `Fraction` row that holds 1 at
    its pivot and 0 at every other pivot; it is determined by the span.
    """
    out = {}
    for p in sorted(basis, reverse=True):
        row = basis[p]
        a = row[p]
        r = {k: Fraction(v, a) for k, v in row.items()}
        for q in [k for k in r if k != p and k in out]:
            c = r.get(q)
            if c:
                for k, v in out[q].items():
                    s = r.get(k, 0) - c * v
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        out[p] = r
    return {p: out[p] for p in sorted(out)}


def rank(rows):
    """Rank of a matrix given as dense rows."""
    basis = {}
    for row in rows:
        echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
    return len(basis)


def kernel(basis, n):
    """Nullspace over Q of a rational echelon system on columns 0..n-1.

    `basis` is as kept by `echelon_insert`; its `reduced` form is read.  Each
    free column f gives one vector: 1 at f, -row[f] at each pivot, 0
    elsewhere; these vectors form a basis of the nullspace, returned in
    free-column order.  Every entry is a `Fraction`, the 0 and 1 entries
    too, so reducing the vectors again stays exact.
    """
    basis = reduced(basis)
    vecs = []
    for f in range(n):
        if f in basis:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for pivot, row in basis.items():
            c = row.get(f)
            if c:
                v[pivot] = -c
        vecs.append(tuple(v))
    return vecs
