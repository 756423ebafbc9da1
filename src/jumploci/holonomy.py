"""Graded ranks of holonomy Lie algebras presented by quadratic relations.

The input is the number of degree-1 generators together with relation vectors
in wedge-square coordinates (basis e_i ^ e_j, i < j, ordered lexicographically).
For the cup form of a closed oriented 3-manifold the relation space is spanned
by the contractions of the form against the coordinate functionals; this
convention is pinned by the surface case, where the single relation restricted
to the surface directions is the symplectic class sum [x_1,y_1]+...+[x_g,y_g].

Ranks are computed per degree.  The relation ideal in degree d is spanned by
the relations for d = 2 and by the brackets [e_i, b] of the generators with
a basis of the ideal in degree d - 1 above, formed in tensor coordinates.  A
Lie element of degree d is determined by its coefficients on the Lyndon
words of length d (the standard bracketing of a Lyndon word is that word
plus lexicographically larger words), so each bracket is reduced on those
coordinates only.  Those coordinates are read straight from b, one pass over
its words, and only the brackets found independent are built in full and
kept, unreduced, for the next degree.  A tensor word w = (w_0, ..., w_{d-1})
is keyed by the integer sum_k w_k n^(d-1-k), the word read as a number in
base n.  Words of one length d have codes in [0, n^d), and two of them
compare as integers exactly as they compare lexicographically (the first
differing letter decides), so the echelon kernel, which orders its keys,
meets the pivots of the lexicographic order.  The ideal's dimension is an
exact rank over Q, and the quotient dimension is the free Lie algebra's
(Witt's formula, the number of Lyndon words of length d) minus that rank.
No bracketed Hall basis is built, and a request beyond `MAX_LIE_DIMENSION`
is refused before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._limits import DEFAULT_DEGREE_CAP, MAX_DEGREE_CAP, LimitError
from ._linalg import _moebius, echelon_insert, reduced
from .resonance import _integer_contraction

__all__ = [
    "QuadraticData",
    "GradedRanks",
    "wedge_basis",
    "holonomy_from_threeform",
    "lie_ranks",
    "lyndon_words",
    "DEFAULT_DEGREE_CAP",
    "MAX_LIE_DIMENSION",
    "MAX_DEGREE_CAP",
]

# a larger free Lie dimension at the top degree is refused before any work.
# It admits Sigma_3 x S^1 at degree 6 (n = 7, dimension 19544: 0.4-0.6 s,
# 29 MiB peak RSS on a 2-CPU Xeon with Python 3.11.7); one dense relation,
# all 21 coordinates 1, takes 1.5-1.6 s and 84 MiB, and one with random
# entries in [-3, 3] 1.3-1.5 s and 72 MiB
MAX_LIE_DIMENSION = 20000


def wedge_basis(n):
    """Index pairs (i, j), i < j, in the fixed lexicographic order."""
    return list(combinations(range(n), 2))


@dataclass(frozen=True)
class QuadraticData:
    """Degree-1 generator count plus relation vectors in wedge coordinates.

    The relations are kept as the canonical basis of their span, the reduced
    echelon rows over Q as `_linalg.reduced` gives them: primitive integer
    tuples with a positive pivot, independent, equal for equal spans.
    """

    n: int
    relations: tuple

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise TypeError(f"generator count must be int, got {self.n!r}")
        if self.n < 0:
            raise ValueError("generator count must be non-negative")
        m = self.n * (self.n - 1) // 2
        basis = {}
        for r in map(tuple, self.relations):
            if len(r) != m:
                raise ValueError(f"relation vector must have length {m}")
            if not all(isinstance(c, (int, Fraction)) for c in r):
                raise TypeError(f"relation entries must be int or Fraction, got {r!r}")
            echelon_insert(basis, {q: c for q, c in enumerate(r) if c})
        rows = tuple(tuple(row.get(q, 0) for q in range(m)) for row in reduced(basis).values())
        object.__setattr__(self, "relations", rows)


@dataclass(frozen=True)
class GradedRanks:
    """ranks[i] is the dimension in degree i + 1; degree-1 rank is n."""

    ranks: tuple


def holonomy_from_threeform(eta):
    """Quadratic relation data of the holonomy Lie algebra of a 3-manifold form.

    The relation span is the image of the duality pairing inside the wedge
    square: for each coordinate index k, the contraction with coefficients
    eta(e_i, e_j, e_k) on the pair (i, j), which is the upper triangle of
    the contraction matrix A(e_k).  Each is read from the integer A(e_k) of
    `resonance._integer_contraction`, which is scaled by eta's common
    denominator; that leaves the span unchanged, and `QuadraticData` keeps
    its canonical basis.
    """
    n = eta.n
    triangles = (_integer_contraction(eta, [int(t == k) for t in range(n)])[0] for k in range(n))
    return QuadraticData(n, [[v for i, row in enumerate(a) for v in row[i + 1:]] for a in triangles])


# ---------------------------------------------------------------------------
# Lyndon words: their count is the free Lie algebra's dimension in each degree
# ---------------------------------------------------------------------------

def _witt(n, d):
    """Witt's formula (1/d) sum_{k | d} mu(k) n^(d/k): the number of Lyndon words of length d."""
    return sum(s * n ** (d // k) for s, k in _moebius(d)) // d


def lyndon_words(n, d):
    """All Lyndon words of length d over the alphabet 0..n-1, in lexicographic order.

    Duval's algorithm generates the Lyndon words of length at most d in
    lexicographic order, so those of length d come out sorted.
    """
    if d < 1 or n < 1:
        return []
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == d:
            out.append(tuple(w))
        while len(w) < d:
            w.append(w[-m])
        while w and w[-1] == n - 1:
            w.pop()
    return out


def _lyndon_codes(n, d):
    """The codes of `lyndon_words(n, d)`, in the same (increasing) order."""
    out = []
    for word in lyndon_words(n, d):
        code = 0
        for x in word:
            code = code * n + x
        out.append(code)
    return out


def _ad_generator(i, vec, n, size):
    """[e_i, v] in tensor coordinates, for v of a degree with `size` words.

    A word w of v is sent to the words (i, w) and (w, i), whose codes are
    i * size + w and w * n + i.
    """
    lead = i * size
    out = {lead + w: c for w, c in vec.items()}
    for w, c in vec.items():
        key = w * n + i
        s = out.get(key, 0) - c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _ad_lyndon(i, vec, n, size, lyndon):
    """The entries of `_ad_generator(i, vec, n, size)` on the codes in `lyndon`.

    One pass over `vec` tests the codes of (i, w) and (w, i) for each word w;
    the full bracket is never built.  A Lyndon word of length at least 2
    begins with its least letter and ends in a larger one.  So (i, w), which
    needs i <= w_0, and (w, i), which needs w_0 < i, are never both Lyndon,
    and the words where the full bracket adds up or cancels two entries,
    (i, w) = (w', i), begin and end with i and are never Lyndon: each Lyndon
    code receives at most one entry, and it is nonzero.
    """
    lead = i * size
    out = {}
    for w, c in vec.items():
        key = lead + w
        if key in lyndon:
            out[key] = c
        else:
            key = w * n + i
            if key in lyndon:
                out[key] = -c
    return out


def lie_ranks(q, up_to, degree_cap=DEFAULT_DEGREE_CAP):
    """Graded dimensions of Lie(n)/ideal(relations) for degrees 1..up_to.

    Every tensor word of length d is keyed by its base-n code (the module
    docstring), so the pair (i, j) is i * n + j.  The relations of `q`,
    independent integer rows, are the degree-2 basis on the words (i, j)
    and (j, i) as given.  Each degree d >= 3 pairs every kept row b of
    degree d - 1 with each generator e_i, reads the entries of [e_i, b] on
    the codes of the Lyndon words of length d in one pass over b
    (`_ad_lyndon`), and inserts them into a fresh echelon basis.  Only a
    bracket found independent below the top degree is then built in full
    tensor coordinates and kept; a dependent one, and every one at the top
    degree, is never built.  Codes of one length order as the words do, so
    the pivots are those of the lexicographic order.  The projection is
    injective on Lie elements, so the rank is the ideal's dimension, and
    the top degree keeps no rows.  The quotient is generated in degree 1,
    so every degree above one of rank 0 has rank 0 and forms no bracket.
    Exact integer arithmetic throughout; degrees beyond `degree_cap` are
    refused because free Lie dimensions grow quickly, and a free Lie
    dimension above `MAX_LIE_DIMENSION` with LimitError.
    """
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    if up_to > degree_cap:
        raise ValueError(f"degree {up_to} exceeds the cap {degree_cap}")
    n = q.n
    top = _witt(n, up_to)
    if top > MAX_LIE_DIMENSION:
        raise LimitError(f"the free Lie algebra on {n} generators has dimension {top} in "
                         f"degree {up_to}, above MAX_LIE_DIMENSION = {MAX_LIE_DIMENSION}")
    ranks = [n]
    pairs = wedge_basis(n)
    # the relations are independent, so they are the degree-2 basis
    basis = rows = [{k: v for (i, j), c in zip(pairs, r) if c
                     for k, v in ((i * n + j, c), (j * n + i, -c))} for r in q.relations]
    for d in range(2, up_to + 1):
        if not ranks[-1]:
            break
        if d > 2:
            lyndon = set(_lyndon_codes(n, d)) if rows else ()
            size = n ** (d - 1)
            prev, basis, rows = rows, {}, []
            for b in prev:
                for i in range(n):
                    coords = _ad_lyndon(i, b, n, size, lyndon)
                    if echelon_insert(basis, coords) is not None and d < up_to:
                        rows.append(_ad_generator(i, b, n, size))
        ranks.append(_witt(n, d) - len(basis))
    ranks += [0] * (up_to - len(ranks))
    return GradedRanks(ranks=tuple(ranks))
