"""Exact linear algebra over Q and Q(zeta_m), shared by the invariant computations.

Every elimination over Q goes through the sparse kernel `echelon_insert`: it
keeps a row echelon basis of rational rows, stored as primitive integer rows
and reduced fraction-free so that nothing is divided, and refuses any other
row.  `reduced` gives the reduced echelon form over Q and `kernel` reads the
nullspace off it.  `rank(rows, order=m)` takes rows of values in Z[zeta_m],
each the tuple of phi(m) integer coefficients that `laurent.evaluate` gives;
its rank over Q(zeta_m) is certified from ranks over F_p (`_cyclotomic_rank`)
and inverts nothing in the field.  Every Moebius sum in the package
(Phi_m, Euler's phi, Witt's formula) reads mu from `_moebius`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, count
from math import gcd, lcm, prod
from operator import mul

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
    pivot.  `vec` must be rational (every entry of type `int` or `Fraction`);
    any other `vec` raises TypeError.  It is scaled to a primitive integer
    row and reduced fraction-free: at a pivot holding `a` in its row and `c`
    in `vec`, vec <- (a/g) vec - (c/g) row with g = gcd(a, c).  Only the
    pivots that `vec` meets are visited, least first, and the other rows are
    never touched.  An independent `vec` is stored with its pivot `min(vec)`,
    primitive with a positive pivot entry, and its pivot is returned.  A
    dependent `vec` leaves `basis` unchanged and gives None.
    """
    types = set(map(type, vec.values()))
    if not types <= _RATIONAL:
        names = sorted(t.__name__ for t in types)
        raise TypeError(f"row entries must be int or Fraction, got {names}")
    vec = _primitive(vec, types) if vec else {}
    heap = [k for k in vec if k in basis]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = vec.get(p)
        if c is None:  # a duplicate entry, already cleared
            continue
        row = basis[p]
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
    g = gcd(*vec.values())
    if vec[pivot] < 0:
        g = -g
    if g != 1:
        for k in vec:
            vec[k] //= g
    basis[pivot] = vec
    return pivot


def reduced(basis):
    """Reduced echelon form over Q of a rational basis kept by `echelon_insert`.

    The stored rows are inserted again into a new basis, largest pivot
    first, so each is cleared at every larger pivot already there.  Returns
    that basis in pivot order: primitive integer rows with a positive entry
    at their pivot and 0 at every other pivot, determined by the span.
    """
    out = {}
    for p in sorted(basis, reverse=True):
        echelon_insert(out, basis[p])
    return dict(sorted(out.items()))


def rank(rows, order=None):
    """Rank of dense rows over Q, or with an order m over Q(zeta_m).

    Over Q(zeta_m) every entry must be a tuple of phi(m) ints, the
    coefficients of a value in Z[zeta_m]; any other entry raises TypeError.
    """
    if order is not None:
        return _cyclotomic_rank(rows, order)
    basis = {}
    for row in rows:
        echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
    return len(basis)


def kernel(basis, n):
    """Nullspace over Q of a rational echelon system on columns 0..n-1.

    `basis` is as kept by `echelon_insert`; its `reduced` form is read.  Each
    free column f gives one vector: 1 at f, -row[f]/row[pivot] at each
    pivot, 0 elsewhere; these vectors form a basis of the nullspace,
    returned in free-column order.  Every entry is a `Fraction`, the 0 and
    1 entries too, so reducing the vectors again stays exact.
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
                v[pivot] = Fraction(-c, row[pivot])
        vecs.append(tuple(v))
    return vecs


# ---------------------------------------------------------------------------
# rank over Q(zeta_m) from ranks over F_p
# ---------------------------------------------------------------------------

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin with the first 12 primes as bases: deterministic below 3.3 * 10^24."""
    if n < 2 or any(n % b == 0 for b in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _WITNESSES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _prime_factors(m):
    """The distinct primes dividing m, ascending."""
    return [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]


def _moebius(m):
    """The pairs (mu(d), d) over the squarefree divisors d of m; a float or bool m raises TypeError."""
    if type(m) is not int:
        raise TypeError(f"a divisor sum needs an int, got {m!r}")
    if m < 1:
        raise ValueError(f"a divisor sum needs a positive int, got {m}")
    pairs = [(1, 1)]
    for q in _prime_factors(m):
        pairs += [(-s, d * q) for s, d in pairs]
    return pairs


@lru_cache(maxsize=None)
def _modular_root(m, i):
    """(p, w): the i-th prime p = 1 (mod m) below 2^61, counting down, and w of order m in F_p."""
    p = _modular_root(m, i - 1)[0] - m if i else ((1 << 61) - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    factors = _prime_factors(m)
    for w in (pow(a, (p - 1) // m, p) for a in count(2)):
        if all(pow(w, m // q, p) != 1 for q in factors):
            return p, w


def _rank_mod(rows, p):
    """Rank over F_p of dense rows of residues, by fraction-free elimination."""
    r = 0
    while rows:
        pivot = rows.pop()
        c = next((j for j, x in enumerate(pivot) if x), None)
        if c is not None:
            r += 1
            rows = [[(pivot[c] * x - row[c] * y) % p for x, y in zip(row, pivot)] for row in rows]
    return r


def _cyclotomic_rank(rows, m):
    """Rank over Q(zeta_m) of rows of values in Z[zeta_m], from ranks over F_p.

    Each entry is the tuple of its phi(m) integer coefficients in the power
    basis.  Each prime (p, zeta - w^k) of Z[zeta_m], for p = 1 (mod m), w of
    order m in F_p and k prime to m, maps the rows to F_p.  A minor nonzero
    there is nonzero, so the largest modular rank r is a lower bound.  It is
    exact once r = min(rows, cols), or once the product of the norms p used,
    squared, exceeds (H^2)^phi(m), H^2 being the product of the r + 1 largest
    row weights sum_j |a_ij|_1^2: by Hadamard's bound every (r+1)-minor mu
    has |N(mu)| <= H^phi(m), and the product divides N(mu), so mu = 0.  A
    zero matrix needs no prime.
    """
    units = [k for k in range(m) if gcd(k, m) == 1]
    phi = len(units)
    for row in rows:
        for x in row:
            if type(x) is not tuple or len(x) != phi or not all(type(c) is int for c in x):
                raise TypeError(f"row entries must be tuples of phi({m}) = {phi} ints")
    weights = sorted((sum(sum(map(abs, v)) ** 2 for v in row) for row in rows), reverse=True)
    if not any(weights):
        return 0
    full = min(len(rows), len(rows[0]))
    r, norms = 0, 1
    for i in count():
        p, w = _modular_root(m, i)
        for k in units:
            z = pow(w, k, p)
            powers = list(accumulate(range(1, phi), lambda x, _: x * z % p, initial=1))
            images = [[sum(map(mul, v, powers)) % p for v in row] for row in rows]
            r = max(r, _rank_mod(images, p))
            norms *= p
            if r == full or norms ** 2 > prod(weights[:r + 1]) ** phi:
                return r
