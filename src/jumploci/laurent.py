"""Exact arithmetic in the Laurent polynomial ring Z[t1^{±1}, ..., tn^{±1}].

`LaurentPoly` stores a canonical term map (exponent tuple -> nonzero integer
coefficient), so two values are equal exactly when their term maps agree.
The module supplies the project-wide unit normalization, gcds up to units,
and exact evaluation at finite-order characters.  At a character of order
m, `evaluate` gives the value of p in Z[zeta_m] as the tuple of its phi(m)
integer coefficients in the power basis, reduced modulo the monic m-th
cyclotomic polynomial without division, so zero-testing is exact.  A value
has no arithmetic: ranks over Q(zeta_m) are taken from these integers
modulo primes (`_linalg.rank`).  `fold(p, m)` reduces every exponent mod
m, which keeps the value of p at every character of order m.

Which constructors check their input: the public ones (`LaurentPoly(n,
terms)`, `zero`, `one`, `constant`, `variable`, `monomial`, `shift` and
`**`, and `Character(order, exponents)`) read exponents, coefficients,
powers, orders and the variable count with `operator.index` or a type test,
so a float or a `Fraction` raises `TypeError` rather than being truncated.
The private `LaurentPoly._of(n, terms)` and `Character._of(order, exps)`
trust data the package built itself: a term dict of int exponent tuples of
length n mapped to nonzero ints, taken over without a copy, and an int
order with int exponents.  The ring operations, `normalize_unit`,
`try_divide`, `gcd_all` and `fold` build their results that way, and so
does `_folded_mul`, the product of two polynomials folded to m that reduces
each exponent mod m as it multiplies.  Only `laurent`, `presentation` and
`alexander` call them.

Unit-normalization convention, fixed once for the whole project: the
canonical associate of p is u*p, where u is the unique +/- monomial making
the minimal exponent of every variable equal to 0 and the lexicographically
leading coefficient positive.  The theory only ever determines these
elements up to units, so all comparisons go through `normalize_unit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, index, mul, sub
from types import MappingProxyType

from ._linalg import _moebius

_set = object.__setattr__

__all__ = [
    "LaurentPoly",
    "Character",
    "normalize_unit",
    "gcd_all",
    "evaluate",
    "fold",
    "try_divide",
    "poly_to_string",
    "cyclotomic_polynomial",
    "euler_phi",
]


# ---------------------------------------------------------------------------
# raw term-dict helpers (exponent tuple -> int coefficient, no zero values)
# ---------------------------------------------------------------------------

def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _dict_neg(a):
    return {e: -c for e, c in a.items()}


def _dict_sub(a, b):
    return _dict_add(a, _dict_neg(b))


def _dict_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class LaurentPoly:
    """Immutable multivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("_num_vars", "_terms", "_hash")

    def __init__(self, num_vars, terms=None):
        num_vars = index(num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clean = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(map(index, exps))
            if len(e) != num_vars:
                raise ValueError(
                    f"exponent vector {e} has length {len(e)}, expected {num_vars}"
                )
            c = clean.get(e, 0) + index(coeff)
            if c:
                clean[e] = c
            else:
                clean.pop(e, None)
        object.__setattr__(self, "_num_vars", num_vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, num_vars, terms):
        """Trusted: `terms` maps int tuples of length num_vars to nonzero ints.

        The dict is kept, not copied, so the caller must not change it.
        """
        p = object.__new__(cls)
        _set(p, "_num_vars", num_vars)
        _set(p, "_terms", terms)
        _set(p, "_hash", None)
        return p

    @classmethod
    def zero(cls, num_vars):
        return cls(num_vars, {})

    @classmethod
    def one(cls, num_vars):
        return cls.constant(num_vars, 1)

    @classmethod
    def constant(cls, num_vars, c):
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars, i):
        """The generator t_{i+1} (0-based index i)."""
        i = index(i)
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range for {num_vars} variables")
        e = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, {e: 1})

    @classmethod
    def monomial(cls, num_vars, exps, coeff=1):
        return cls(num_vars, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------------

    @property
    def num_vars(self):
        return self._num_vars

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_one(self):
        return self._terms == {(0,) * self._num_vars: 1}

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        if not self._terms:
            return (0,) * self._num_vars
        return tuple(min(e[i] for e in self._terms) for i in range(self._num_vars))

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other._num_vars != self._num_vars:
                raise ValueError(
                    f"variable-count mismatch: {self._num_vars} vs {other._num_vars}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self._num_vars, other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._of(self._num_vars, _dict_add(self._terms, q._terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self._num_vars, _dict_neg(self._terms))

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._of(self._num_vars, _dict_sub(self._terms, q._terms))

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._of(self._num_vars, _dict_sub(q._terms, self._terms))

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return LaurentPoly._of(self._num_vars, _dict_mul(self._terms, q._terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        k = index(k)
        if k < 0:
            raise ValueError("negative powers are only defined for unit monomials")
        result = LaurentPoly.one(self._num_vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, exps):
        """Multiply by the monomial with the given exponent vector."""
        e0 = tuple(map(index, exps))
        if len(e0) != self._num_vars:
            raise ValueError("exponent vector length mismatch")
        return LaurentPoly._of(
            self._num_vars,
            {tuple(map(add, e, e0)): c for e, c in self._terms.items()},
        )

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self._num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._num_vars == other._num_vars and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self._num_vars, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return poly_to_string(self)

    def __repr__(self):
        return f"LaurentPoly({self._num_vars}, {poly_to_string(self)!r})"


# ---------------------------------------------------------------------------
# unit normalization
# ---------------------------------------------------------------------------

def _at_origin(p):
    """(mins, terms): the minimal exponents of p and its terms shifted by -mins."""
    mins = p.min_exponents()
    return mins, {tuple(map(sub, e, mins)): c for e, c in p.terms.items()}


def normalize_unit(p):
    """Canonical associate of p: minimal exponents 0, lex-leading coefficient > 0.

    Idempotent, and constant on classes p ~ (+/- monomial) * p.  Maps 0 to 0.
    """
    if p.is_zero:
        return p
    shifted = _at_origin(p)[1]
    lead = max(shifted)
    if shifted[lead] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return LaurentPoly._of(p.num_vars, shifted)


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------

def _dict_divexact(a, b):
    """Exact division of term dicts (raises ArithmeticError if b does not divide a)."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = {}
    r = dict(a)
    blead = max(b)
    bc = b[blead]
    while r:
        rlead = max(r)
        rc = r[rlead]
        e = tuple(x - y for x, y in zip(rlead, blead))
        if any(x < 0 for x in e) or rc % bc:
            raise ArithmeticError("not exactly divisible")
        m = {e: rc // bc}
        q = _dict_add(q, m)
        r = _dict_sub(r, _dict_mul(m, b))
    return q


def _split_main(a):
    """Group an n-variable term dict by the exponent of the last variable."""
    out = {}
    for e, c in a.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return out


def _main_deg(a):
    return max(e[-1] for e in a)


def _main_lc(a):
    """Leading coefficient w.r.t. the last variable, as a full-width dict."""
    d = _main_deg(a)
    return {e[:-1] + (0,): c for e, c in a.items() if e[-1] == d}


def _shift_main(a, k):
    return {e[:-1] + (e[-1] + k,): c for e, c in a.items()}


def _prem(f, g):
    """Pseudo-remainder of f by g w.r.t. the last variable."""
    dg = _main_deg(g)
    glc = _main_lc(g)
    while f and _main_deg(f) >= dg:
        df = _main_deg(f)
        flc = _main_lc(f)
        f = _dict_sub(_dict_mul(glc, f), _dict_mul(_shift_main(flc, df - dg), g))
    return f


def _content_and_pp(a, n):
    """Content (w.r.t. the last variable) and primitive part of a term dict."""
    parts = _split_main(a)
    cont = {}
    for coeff in parts.values():
        cont = _poly_gcd(cont, coeff, n - 1)
    cont_full = {e + (0,): c for e, c in cont.items()}
    return cont_full, _dict_divexact(a, cont_full)


def _poly_gcd(a, b, n):
    """Gcd of term dicts with non-negative exponents over Z, up to sign.

    Primitive pseudo-remainder sequences with content/primitive-part recursion
    on the variable count; the integer base case keeps integer content.
    """
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    if n == 0:
        return {(): math.gcd(a[()], b[()])}
    ca, pa = _content_and_pp(a, n)
    cb, pb = _content_and_pp(b, n)
    cg_low = _poly_gcd(
        {e[:-1]: c for e, c in ca.items()},
        {e[:-1]: c for e, c in cb.items()},
        n - 1,
    )
    cg = {e + (0,): c for e, c in cg_low.items()}
    f, g = (pa, pb) if _main_deg(pa) >= _main_deg(pb) else (pb, pa)
    while g:
        r = _prem(f, g)
        if r:
            _, r = _content_and_pp(r, n)
        f, g = g, r
    return _dict_mul(cg, f)


def gcd_all(ps):
    """Greatest common divisor in Z[t1^{±1},...,tn^{±1}], unit-normalized.

    The integer content is retained (gcd(2(t-1), 4(t-1)^2) = 2(t-1)); the
    gcd of a list of zeros is 0.  Inputs are taken fewest terms first and the
    loop stops once the running gcd is +/-1; the normalized result does not
    depend on the order.
    """
    ps = list(ps)
    if not ps:
        raise ValueError("gcd_all needs at least one polynomial")
    n = ps[0].num_vars
    if any(p.num_vars != n for p in ps):
        raise ValueError("variable-count mismatch in gcd_all")
    units = ({(0,) * n: 1}, {(0,) * n: -1})
    g = {}
    for p in sorted(ps, key=lambda p: len(p.terms)):
        if g in units:
            break
        if p.is_zero:
            continue
        g = _poly_gcd(g, _at_origin(p)[1], n)
    return normalize_unit(LaurentPoly._of(n, g))


def try_divide(p, d):
    """Exact quotient p/d in the Laurent ring, or None when d does not divide p."""
    if d.num_vars != p.num_vars:
        raise ValueError("variable-count mismatch")
    if d.is_zero:
        return None if not p.is_zero else LaurentPoly.zero(p.num_vars)
    if p.is_zero:
        return p
    mp, sp = _at_origin(p)
    md, sd = _at_origin(d)
    try:
        q = _dict_divexact(sp, sd)
    except ArithmeticError:
        return None
    return LaurentPoly._of(p.num_vars, q).shift(tuple(map(sub, mp, md)))



# ---------------------------------------------------------------------------
# cyclotomic fields and characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic.

    Phi_m = prod_{d | m} (x^k - 1)^mu(d), k = m/d, by Moebius inversion of
    x^m - 1 = prod_{d | m} Phi_d.  The factors with mu(d) = 1 multiply in,
    p_i <- p_{i-k} - p_i; those with mu(d) = -1 then divide out exactly,
    q_i = q_{i-k} - p_i.  The cache is typed, so 12.0 reaches `_moebius`
    and raises TypeError even once 12 is cached.
    """
    poly = [1]
    for s, d in sorted(_moebius(m), reverse=True):
        k = m // d
        if s > 0:
            out = [0] * k + poly
            for i, c in enumerate(poly):
                out[i] -= c
        else:
            out = []
            for i in range(len(poly) - k):
                out.append((out[i - k] if i >= k else 0) - poly[i])
        poly = out
    return tuple(poly)


def euler_phi(m):
    """Euler's phi, sum_{d | m} mu(d) m/d: the degree of Phi_m."""
    return sum(s * (m // d) for s, d in _moebius(m))


@dataclass(frozen=True)
class Character:
    """Finite-order character on the torus (C*)^n: t_i -> zeta_m^{exponents[i]}.

    The order and the exponents must be of type `int`; anything else, a float
    or a bool among them, raises TypeError.
    """

    order: int
    exponents: tuple

    def __post_init__(self):
        exps = tuple(self.exponents)
        if type(self.order) is not int or not all(type(e) is int for e in exps):
            raise TypeError(
                f"character order and exponents must be int, got {self.order!r} and {exps!r}"
            )
        if self.order < 1:
            raise ValueError("character order must be a positive integer")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _of(cls, order, exps):
        """Trusted: an int order >= 1 and a tuple of int exponents."""
        chi = object.__new__(cls)
        _set(chi, "order", order)
        _set(chi, "exponents", exps)
        return chi

    @property
    def is_identity(self):
        return all(e % self.order == 0 for e in self.exponents)

    def __str__(self):
        return f"{self.order}:{','.join(str(e) for e in self.exponents)}"


def _reduce_mod_cyclotomic(order, coeffs):
    """Remainder of sum(coeffs[i] x^i) modulo Phi_order: a tuple of phi(order) ints.

    Phi_m is monic with integer coefficients, so each step subtracts an
    integer multiple of a shifted Phi_m and nothing is divided.
    """
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    tail = [(j, c) for j, c in enumerate(phi[:d]) if c]
    r = list(coeffs)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            base = i - d
            for j, pj in tail:
                r[base + j] -= c * pj
    del r[d:]
    r += [0] * (d - len(r))
    return tuple(r)


def evaluate(p, chi):
    """Exact image of p under t_i -> zeta_m^{chi.exponents[i]}, m = chi.order.

    The value lies in Z[zeta_m] and is returned as the tuple of its phi(m)
    integer coefficients in the power basis 1, zeta_m, ..., zeta_m^{phi(m)-1}:
    the coefficients of p are summed by exponent residue mod m and reduced
    modulo the monic m-th cyclotomic polynomial without division.  A value
    is zero exactly when all its coefficients are, so `not any(value)` is an
    exact vanishing test.
    """
    m = chi.order
    xs = chi.exponents
    if len(xs) != p.num_vars:
        raise ValueError(
            f"character has {len(xs)} exponents, polynomial has {p.num_vars} variables"
        )
    acc = [0] * m
    for exps, c in p.terms.items():
        acc[sum(map(mul, exps, xs)) % m] += c
    return _reduce_mod_cyclotomic(m, acc)


def fold(p, m):
    """p with every exponent reduced mod m: the same value as p at every character of order m.

    A character of order m sends t_i to a power of zeta_m, and zeta_m^e depends
    only on e mod m, so evaluating the folded polynomial (at most m^n terms)
    gives exactly `evaluate(p, chi)` for every chi with chi.order == m.
    """
    m = index(m)
    if m < 1:
        raise ValueError("order must be positive")
    terms = {}
    for exps, c in p.terms.items():
        key = tuple([e % m for e in exps])
        terms[key] = terms.get(key, 0) + c
    return LaurentPoly._of(p.num_vars, {e: c for e, c in terms.items() if c})


def _folded_mul(p, q, m):
    """fold(p * q, m) for p and q folded to m, reduced mod m as it multiplies.

    `fold` is a ring map, so folding each product of two terms gives the
    same polynomial, and the unfolded product, of up to (2m - 1)^n terms, is
    never formed.
    """
    out = {}
    get = out.get
    for ea, ca in p._terms.items():
        for eb, cb in q._terms.items():
            e = tuple([(x + y) % m for x, y in zip(ea, eb)])
            out[e] = get(e, 0) + ca * cb
    return LaurentPoly._of(p._num_vars, {e: c for e, c in out.items() if c})


# ---------------------------------------------------------------------------
# textual form: sum of c*t1^a1*...*tn^an terms
# ---------------------------------------------------------------------------

def poly_to_string(p):
    if p.is_zero:
        return "0"
    names = ["t"] if p.num_vars == 1 else [f"t{i + 1}" for i in range(p.num_vars)]
    pieces = []
    for exps, c in sorted(p.terms.items(), reverse=True):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(pieces)
