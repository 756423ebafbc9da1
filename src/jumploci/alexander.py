"""Alexander matrices, elementary ideals, and characteristic-variety tests.

The Alexander matrix of a presentation is the Jacobian of free derivatives of
the relators, abelianized into the Laurent ring on b1 variables.  The d-th
elementary ideal is generated by its (g-d)-minors; the Alexander polynomial
is the unit-normalized gcd of the first elementary ideal.

Membership of a finite-order character chi != 1 in the degree-1 jump locus of
the presentation 2-complex is decided two independent ways: exact rank of the
evaluated matrix over a cyclotomic field, and simultaneous vanishing of the
ideal generators.  The two answers must agree; the test suite enforces this
on the whole corpus, which guards the minor-shape convention.  The CLI
refuses characters of order above `MAX_CHARACTER_ORDER`.

The sampled check chi in V(E_1) <=> Delta(chi) = 0 folds E_1 and Delta once
per sampled order and decides each distinct character once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from . import _linalg
from .laurent import Character, LaurentPoly, evaluate, fold, gcd_all
from .presentation import abelianization, fox_derivative

__all__ = [
    "AlexanderMatrix",
    "ElementaryIdeal",
    "AlmostPrincipalReport",
    "IdentityCharacterError",
    "alexander_matrix",
    "elementary_ideal",
    "alexander_polynomial",
    "twisted_h1_dim",
    "in_vd",
    "almost_principal_sampled",
    "sample_characters",
    "CHARACTER_ORDERS",
    "MAX_CHARACTER_ORDER",
]

CHARACTER_ORDERS = (2, 3, 4, 5, 6, 8, 12)

# the CLI refuses characters of larger order: the exact rank over Q(zeta_m)
# costs grow with phi(m), to about 7 s for one trefoil charvar at m = 1021
MAX_CHARACTER_ORDER = 1024

# full minor enumeration is affordable at corpus scale (g, r <= 6); beyond
# this many generators the ideal is cut off and flagged as truncated
DEFAULT_GENERATOR_CAP = 512


class IdentityCharacterError(ValueError):
    """Raised when an operation requires a non-identity character."""


@dataclass(frozen=True)
class AlexanderMatrix:
    """Fox Jacobian over the Laurent ring of the torsion-free abelianization.

    `ideal(d)` and `delta` are computed once per instance and then shared by
    every consumer of the same matrix.
    """

    entries: tuple
    abelianization: object
    _ideals: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def num_relators(self):
        return len(self.entries)

    @property
    def num_generators(self):
        return self.abelianization.num_generators

    @property
    def num_vars(self):
        return self.abelianization.b1

    def evaluated(self, chi):
        return [[evaluate(e, chi) for e in row] for row in self.entries]

    def ideal(self, d):
        """The elementary ideal E_d with the default minor cap, memoized."""
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
    rows = tuple(
        tuple(fox_derivative(rel, j, ab) for j in range(p.num_generators))
        for rel in p.relators
    )
    return AlexanderMatrix(entries=rows, abelianization=ab)


# ---------------------------------------------------------------------------
# elementary ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryIdeal:
    """Ideal of (g-d)-minors; an empty generator list is the zero ideal."""

    d: int
    generators: tuple
    truncated: bool = False

    @property
    def is_zero(self):
        return not self.generators

    @property
    def is_unit(self):
        return any(g.is_one for g in self.generators)


def _minor(entries, rows, cols, memo):
    """Determinant of the submatrix, by Laplace expansion with memoized minors."""
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) == 1:
        val = entries[rows[0]][cols[0]]
    else:
        rest = rows[1:]
        val = LaurentPoly.zero(entries[rows[0]][cols[0]].num_vars)
        for pos, c in enumerate(cols):
            e = entries[rows[0]][c]
            if e.is_zero:
                continue
            sub = _minor(entries, rest, cols[:pos] + cols[pos + 1:], memo)
            term = e * sub
            val = val + term if pos % 2 == 0 else val - term
    memo[key] = val
    return val


def elementary_ideal(a, d, max_generators=DEFAULT_GENERATOR_CAP):
    """Elementary ideal E_d: all (g-d)x(g-d) minors of the Alexander matrix.

    g - d <= 0 yields the unit ideal; fewer than g - d rows yields the zero
    ideal.  Minors are expanded with memoized sub-minors; when their number
    exceeds `max_generators` (None to disable) the generator list is cut off
    and `truncated` is set.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    g = a.num_generators
    r = a.num_relators
    k = g - d
    if k <= 0:
        return ElementaryIdeal(d=d, generators=(LaurentPoly.one(a.num_vars),))
    if r < k:
        return ElementaryIdeal(d=d, generators=())
    memo = {}
    gens = []
    truncated = False
    for rows in combinations(range(r), k):
        for cols in combinations(range(g), k):
            if max_generators is not None and len(gens) >= max_generators:
                truncated = True
                break
            m = _minor(a.entries, rows, cols, memo)
            if not m.is_zero:
                gens.append(m)
        if truncated:
            break
    return ElementaryIdeal(d=d, generators=tuple(gens), truncated=truncated)


def alexander_polynomial(a):
    """Unit-normalized gcd of the generators of E_1 (0 for the zero ideal)."""
    return a.delta


# ---------------------------------------------------------------------------
# jump-locus membership
# ---------------------------------------------------------------------------

def twisted_h1_dim(p, chi):
    """dim H^1 of the presentation 2-complex with coefficients twisted by chi != 1.

    Equals g - 1 - rank of the Alexander matrix evaluated at chi, with the
    rank computed exactly over the cyclotomic field Q(zeta_m).  `p` is a
    presentation or an AlexanderMatrix already built from one.
    """
    if chi.is_identity:
        raise IdentityCharacterError("twisted_h1_dim requires a non-identity character")
    a = p if isinstance(p, AlexanderMatrix) else alexander_matrix(p)
    if len(chi.exponents) != a.num_vars:
        raise ValueError(
            f"character has {len(chi.exponents)} exponents, expected {a.num_vars}"
        )
    evaluated = a.evaluated(chi)
    rk = _linalg.rank(evaluated) if evaluated else 0
    return a.num_generators - 1 - rk


def in_vd(p, chi, d):
    """True when chi lies in the depth-d degree-1 jump locus (chi != 1, d >= 1)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return twisted_h1_dim(p, chi) >= d


def ideal_vanishes_at(ideal, chi):
    """True when every generator of the ideal evaluates to zero at chi."""
    return all(evaluate(g, chi).is_zero for g in ideal.generators)


# ---------------------------------------------------------------------------
# sampled almost-principality check
# ---------------------------------------------------------------------------

def sample_characters(num_vars, count, seed, orders=CHARACTER_ORDERS):
    """Reproducible non-identity finite-order characters on (C*)^num_vars."""
    if num_vars < 1:
        raise ValueError("need at least one variable to sample characters")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.choice(orders)
        exps = tuple(rng.randrange(m) for _ in range(num_vars))
        chi = Character(order=m, exponents=exps)
        if chi.is_identity:
            continue
        out.append(chi)
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


def almost_principal_sampled(a, trials, seed, orders=CHARACTER_ORDERS):
    """Compare chi in V(E_1) with Delta(chi) = 0 at `trials` sampled characters.

    E_1 and Delta are folded once per sampled order m (`laurent.fold`), and
    each distinct character is decided once; a repeated draw reuses its
    verdict.  `counterexamples` lists every disagreeing draw in draw order,
    repeats included.
    """
    if a.num_vars < 1:
        raise ValueError("almost-principality sampling requires b1 >= 1")
    e1 = a.ideal(1)
    delta = a.delta
    folded = {}
    decided = {}
    bad = []
    for chi in sample_characters(a.num_vars, trials, seed, orders):
        disagree = decided.get(chi)
        if disagree is None:
            m = chi.order
            if m not in folded:
                gens = tuple(dict.fromkeys(fold(g, m) for g in e1.generators))
                folded[m] = (gens, fold(delta, m))
            gens, delta_m = folded[m]
            in_variety = all(evaluate(g, chi).is_zero for g in gens)
            disagree = decided[chi] = in_variety != evaluate(delta_m, chi).is_zero
        if disagree:
            bad.append(chi)
    return AlmostPrincipalReport(
        trials=trials,
        seed=seed,
        orders=tuple(orders),
        counterexamples=tuple(bad),
    )
