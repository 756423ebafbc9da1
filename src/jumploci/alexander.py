"""Alexander matrices, elementary ideals, and characteristic-variety tests.

The Alexander matrix of a presentation is the Jacobian of free derivatives of
the relators, abelianized into the Laurent ring on b1 variables.  The d-th
elementary ideal is generated by its (g-d)-minors; the Alexander polynomial
is the unit-normalized gcd of the first elementary ideal.

Membership of a finite-order character chi != 1 in the degree-1 jump locus of
the presentation 2-complex is decided two independent ways: the rank over
Q(zeta_m) of the evaluated matrix, whose entries are values in Z[zeta_m]
given as integer coefficient tuples (`laurent.evaluate`) and whose rank is
certified from ranks modulo primes (`_linalg.rank`), and simultaneous
vanishing of the ideal generators, read as `not any(value)`.  The two
answers must agree; the test suite enforces this on the whole corpus, which
guards the minor-shape convention.  The CLI refuses characters of order
above `MAX_CHARACTER_ORDER`.

Every answer about E_d reads its minors from one stream, `_nonzero_minors`,
which expands them through one Laplace memo per matrix and stops an answer
that would read more than `DEFAULT_GENERATOR_CAP` nonzero minors with
`LimitError`; a Laurent minor whose expansion would form a product of more
than `MAX_MINOR_TERMS` terms is stopped the same way.  So an answer is exact
or refused, never read from part of an ideal.  `elementary_ideal` lists E_d
for `alex` from the Laurent memo.  The jump-locus route never lists E_d: by the fundamental formula of Fox calculus
the columns satisfy sum_j u_j A_j = 0 with u_j = t^{phi(x_j)} - 1, so for any
column j, u_j E_d lies in the ideal I_j of the minors that avoid column j,
and I_j lies in E_d.  At chi with u_j(chi) != 0, E_d vanishes exactly when
every generator of I_j does; `elementary_ideal_vanishes_at` streams those
minors and stops at the first one that does not vanish.

A character of order m factors through the ring map Z[H_1] -> Z[H_1/mH_1],
which reduces every exponent mod m (`laurent.fold`) and commutes with
determinants.  So the jump-locus route expands its minors folded: each entry
is folded when a minor first reads it and every Laplace product reduces its
exponents mod m as it multiplies, so no intermediate has more than m^b1
terms, however long the relators are or however high Delta's degree.  A
query that expands no minor folds nothing.  The folded minors live in one
memo per (matrix, m), next to the Laurent memo, and there the cap counts
nonzero folded minors, never more than the Laurent ones, so an input can
stop being refused but never start.

The sampled check chi in V(E_1) <=> Delta(chi) = 0 decides chi in V(E_1)
through `elementary_ideal_vanishes_at`, folds Delta once per sampled order,
and decides each distinct character once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from operator import mul

from . import _linalg
from ._limits import LimitError
from .laurent import Character, LaurentPoly, _folded_mul, evaluate, fold, gcd_all
from .presentation import abelianization, fox_derivative

__all__ = [
    "AlexanderMatrix",
    "ElementaryIdeal",
    "AlmostPrincipalReport",
    "IdentityCharacterError",
    "alexander_matrix",
    "elementary_ideal",
    "twisted_h1_dim",
    "in_vd",
    "elementary_ideal_vanishes_at",
    "almost_principal_sampled",
    "sample_characters",
    "CHARACTER_ORDERS",
    "MAX_CHARACTER_ORDER",
    "MAX_MINOR_TERMS",
]

CHARACTER_ORDERS = (2, 3, 4, 5, 6, 8, 12)

# the CLI refuses characters of larger order: certifying a rank-deficient
# rank over Q(zeta_m) costs about phi(m)^2, so twisted_h1_dim of
# <a,b | a^2 b^-q> at the character 2q:1 (rank 0, dimension 1) takes 0.014,
# 0.05 and 0.20 s for q = 509, 1021 and 2039
MAX_CHARACTER_ORDER = 1024

# an answer about E_d may read at most this many nonzero minors, folded ones
# for the jump-locus route; one more raises LimitError.  Z^5's E_1 (625
# minors) is listed, Z^6's (7776) refused
DEFAULT_GENERATOR_CAP = 1024

# a Laurent product inside a minor may have at most this many terms, counted
# as the product of its factors' term counts before it is formed; one more
# raises LimitError.  A chain <x0..xk | x_i^2 x_{i+1}^-1> doubles its minors
# with each generator (2^k terms; `alex` at k = 16 took 0.9-1.4 s), and
# <x, y, z, w | x^1000 y^-1, y^1000 z^-1, z^1000 w^-1, [w, x]> asks for a
# product of 10^6 terms, which ran out of memory.  The largest product in the
# tests, CI, demos and bench is 1936 terms (two 200-letter relators); two
# 2000-letter relators form one of 18544
MAX_MINOR_TERMS = 2**15


class IdentityCharacterError(ValueError):
    """Raised when an operation requires a non-identity character."""


@dataclass(frozen=True)
class AlexanderMatrix:
    """Fox Jacobian over the Laurent ring of the torsion-free abelianization.

    `ideal(d)` and `delta` are computed once per instance and then shared by
    every consumer of the same matrix, and so are the memos of minors that
    every E_d answer expands through: `_minors` over the Laurent ring, and
    `_folded_minors[m]` folded into Z[H_1/mH_1] for characters of order m.
    """

    entries: tuple
    abelianization: object
    _ideals: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _minors: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _folded_minors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_relators(self):
        return len(self.entries)

    @property
    def num_generators(self):
        return self.abelianization.num_generators

    @property
    def num_vars(self):
        return self.abelianization.b1

    def ideal(self, d):
        """The elementary ideal E_d, memoized."""
        e = self._ideals.get(d)
        if e is None:
            e = self._ideals[d] = elementary_ideal(self, d)
        return e

    @cached_property
    def delta(self):
        """Unit-normalized gcd of the generators of E_1 (0 for the zero ideal)."""
        e1 = self.ideal(1)
        if e1.is_zero:
            return LaurentPoly.zero(self.num_vars)
        return gcd_all(e1.generators)


def alexander_matrix(p):
    ab = abelianization(p)
    rows = tuple(fox_derivative(rel, ab) for rel in p.relators)
    return AlexanderMatrix(entries=rows, abelianization=ab)


# ---------------------------------------------------------------------------
# elementary ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryIdeal:
    """Ideal of (g-d)-minors; an empty generator list is the zero ideal."""

    d: int
    generators: tuple

    @property
    def is_zero(self):
        return not self.generators


def _minor(entries, rows, cols, memo, m=0):
    """Determinant of the submatrix, by Laplace expansion with memoized minors.

    With an order m >= 1 the minor is folded into Z[H_1/mH_1]: an entry is
    folded when a minor first reads it, and kept in `memo` as a 1-minor, and
    every product is formed folded (`laurent._folded_mul`), so no minor or
    product has more than m^b1 terms.  Unfolded (m = 0),
    a product whose factors' term counts multiply to more than
    `MAX_MINOR_TERMS` raises `LimitError` before it is formed.
    """
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) == 1:
        val = entries[rows[0]][cols[0]]
        if m:
            val = fold(val, m)
    else:
        top, rest = rows[:1], rows[1:]
        val = LaurentPoly.zero(entries[0][0].num_vars)
        for pos, c in enumerate(cols):
            e = _minor(entries, top, (c,), memo, m)
            if e.is_zero:
                continue
            sub = _minor(entries, rest, cols[:pos] + cols[pos + 1:], memo, m)
            if m:
                term = _folded_mul(e, sub, m)
            else:
                size = len(e.terms) * len(sub.terms)
                if size > MAX_MINOR_TERMS:
                    raise LimitError(f"a product of {size} terms in a minor exceeds "
                                     f"MAX_MINOR_TERMS = {MAX_MINOR_TERMS}")
                term = e * sub
            val = val + term if pos % 2 == 0 else val - term
    memo[key] = val
    return val


def _nonzero_minors(a, k, rows, cols, what, m=0):
    """The nonzero k-minors of `a` on the given rows and columns, in order.

    Each is expanded through the matrix's Laurent memo, or with an order
    m >= 1 folded through its memo for m.  Asking for more than
    `DEFAULT_GENERATOR_CAP` of them raises `LimitError` naming `what`.
    """
    memo = a._folded_minors.setdefault(m, {}) if m else a._minors
    cap = DEFAULT_GENERATOR_CAP
    count = 0
    for r in combinations(rows, k):
        for c in combinations(cols, k):
            minor = _minor(a.entries, r, c, memo, m)
            if minor.is_zero:
                continue
            if count == cap:
                raise LimitError(
                    f"{what} needs more than DEFAULT_GENERATOR_CAP = {cap} nonzero minors"
                )
            count += 1
            yield minor


def elementary_ideal(a, d):
    """Elementary ideal E_d: all (g-d)x(g-d) minors of the Alexander matrix.

    g - d <= 0 yields the unit ideal; fewer than g - d rows yields the zero
    ideal.  An E_d of more than `DEFAULT_GENERATOR_CAP` nonzero minors is
    refused with `LimitError`.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    k = a.num_generators - d
    if k <= 0:
        return ElementaryIdeal(d=d, generators=(LaurentPoly.one(a.num_vars),))
    minors = _nonzero_minors(a, k, range(a.num_relators), range(a.num_generators),
                             f"listing E_{d}")
    return ElementaryIdeal(d=d, generators=tuple(minors))


# ---------------------------------------------------------------------------
# jump-locus membership
# ---------------------------------------------------------------------------

def _check_character(a, chi, what):
    """Refuse a character of the wrong length, then the identity character.

    The count comes first: an empty exponent list is also the identity.
    """
    if len(chi.exponents) != a.num_vars:
        raise ValueError(
            f"character has {len(chi.exponents)} exponents, expected {a.num_vars}"
        )
    if chi.is_identity:
        raise IdentityCharacterError(f"{what} requires a non-identity character")


def twisted_h1_dim(p, chi):
    """dim H^1 of the presentation 2-complex with coefficients twisted by chi != 1.

    Equals g - 1 - rank of the Alexander matrix evaluated at chi, the exact
    rank over Q(zeta_m), m = chi.order, that `_linalg.rank` certifies from
    ranks over F_p.  By the fundamental formula of Fox calculus the column
    vector (u_j(chi)), u_j = t^{phi(x_j)} - 1, is in the kernel, and its
    entry at j = `_avoided_column(a, chi)` is nonzero, so column j is a
    combination of the others.  The rank is read with column j dropped: it
    is the same, and the g - 1 columns left let the certificate stop at
    rank g - 1.
    `p` is a presentation or an AlexanderMatrix already built from one.
    """
    a = p if isinstance(p, AlexanderMatrix) else alexander_matrix(p)
    _check_character(a, chi, "twisted_h1_dim")
    j = _avoided_column(a, chi)
    rows = [[evaluate(e, chi) for c, e in enumerate(row) if c != j] for row in a.entries]
    return a.num_generators - 1 - _linalg.rank(rows, order=chi.order)


def in_vd(p, chi, d):
    """True when chi lies in the depth-d degree-1 jump locus (chi != 1, d >= 1)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return twisted_h1_dim(p, chi) >= d


def _avoided_column(a, chi):
    """First generator j with u_j(chi) != 0, where u_j = t^{phi(x_j)} - 1.

    u_j(chi) = zeta_m^<phi(x_j), e> - 1, so this is an integer test of the
    exponent pairing mod m.  The images of the generators span Z^{b1}, so
    one exists for every chi != 1.
    """
    m = chi.order
    return next(
        j for j, img in enumerate(a.abelianization.gen_images)
        if sum(map(mul, img.free, chi.exponents)) % m
    )


def elementary_ideal_vanishes_at(a, d, chi):
    """True when every generator of E_d vanishes at chi != 1; E_d is never listed.

    With j = `_avoided_column(a, chi)`, u_j E_d lies in the ideal I_j of the
    (g-d)-minors that avoid column j, and I_j lies in E_d, so the answer is
    exact: the minors of I_j are streamed and the first that does not vanish
    at chi decides.  The minors are expanded folded to m = chi.order, the
    image of each Laurent minor in Z[H_1/mH_1], which has the same value at
    chi.  g - d <= 0 is the unit ideal (False) and fewer than g - d rows the
    zero ideal (True).  A stream that could pass `DEFAULT_GENERATOR_CAP`
    minors first drops the rows and columns whose entries all vanish at chi.
    A stream with more nonzero folded minors than the cap, all of which
    vanish up to it, raises `LimitError` rather than answer from part of the
    ideal.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    _check_character(a, chi, "elementary_ideal_vanishes_at")
    g = a.num_generators
    r = a.num_relators
    k = g - d
    if k <= 0:
        return False
    if r < k:
        return True
    j = _avoided_column(a, chi)
    rows = range(r)
    cols = tuple(c for c in range(g) if c != j)
    if comb(r, k) * comb(g - 1, k) > DEFAULT_GENERATOR_CAP:
        # each minor through a row or column that vanishes at chi vanishes
        # there; finding them costs r*g evaluations, which only a stream
        # long enough to reach the cap repays
        nonzero = [[c != j and any(evaluate(e, chi)) for c, e in enumerate(row)]
                   for row in a.entries]
        cols = tuple(c for c in cols if any(row[c] for row in nonzero))
        rows = tuple(i for i in rows if any(nonzero[i]))
    what = f"deciding chi in V(E_{d}) from the minors avoiding column {j}"
    minors = _nonzero_minors(a, k, rows, cols, what, chi.order)
    return not any(any(evaluate(minor, chi)) for minor in minors)


# ---------------------------------------------------------------------------
# sampled almost-principality check
# ---------------------------------------------------------------------------

def sample_characters(num_vars, count, seed):
    """Reproducible non-identity characters on (C*)^num_vars, of orders in CHARACTER_ORDERS."""
    if num_vars < 1:
        raise ValueError("need at least one variable to sample characters")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.choice(CHARACTER_ORDERS)
        exps = tuple([rng.randrange(m) for _ in range(num_vars)])
        # exponents lie in [0, m), so the identity is the all-zero draw
        if any(exps):
            out.append(Character._of(m, exps))
    return out


@dataclass(frozen=True)
class AlmostPrincipalReport:
    """Outcome of the sampled consequence check chi in V(E_1) <=> Delta(chi) = 0.

    This samples the set-level consequence of the ideal E_1 being almost
    principal; it is evidence, not a proof of the ideal inclusion.
    """

    trials: int
    seed: int
    orders: tuple
    counterexamples: tuple

    @property
    def consistent(self):
        return not self.counterexamples


def almost_principal_sampled(a, trials, seed):
    """Compare chi in V(E_1) with Delta(chi) = 0 at `trials` sampled characters.

    chi in V(E_1) is decided by `elementary_ideal_vanishes_at(a, 1, chi)`,
    which never lists E_1, and Delta is folded once per sampled order m.
    Each distinct character is decided once; a repeated draw reuses its
    verdict.  `counterexamples` lists every disagreeing draw in draw order,
    repeats included.
    """
    if a.num_vars < 1:
        raise ValueError("almost-principality sampling requires b1 >= 1")
    delta = a.delta
    folded = {}
    decided = {}
    bad = []
    for chi in sample_characters(a.num_vars, trials, seed):
        disagree = decided.get(chi)
        if disagree is None:
            if chi.order not in folded:
                folded[chi.order] = fold(delta, chi.order)
            in_variety = elementary_ideal_vanishes_at(a, 1, chi)
            # chi in V(E_1) while Delta(chi) != 0, or the reverse
            disagree = decided[chi] = in_variety == any(evaluate(folded[chi.order], chi))
        if disagree:
            bad.append(chi)
    return AlmostPrincipalReport(
        trials=trials,
        seed=seed,
        orders=CHARACTER_ORDERS,
        counterexamples=tuple(bad),
    )
