"""Seifert invariants of Brieskorn singularity links and their jump loci.

For exponents (a_1, ..., a_n), all >= 2, the link of the corresponding
complete-intersection surface singularity is Seifert fibered over a curve of
computable genus, with exceptional orbit data and negative rational Euler
number given by closed formulas in lcms of the exponents.  The orbit list is
stored grouped with multiplicity.

The finite data |T| (torsion of H_1), ord(h) (order of the class of a generic
fiber) and alpha = |T| / ord(h) control the translated positive-dimensional
components of the first characteristic variety: alpha - 1 translated copies
of the identity torus for genus >= 1, plus the identity component itself when
the genus exceeds 1.

beta convention: the published sources pin (alpha_j, beta_j) only up to a
congruence that degenerates in print; this module uses the unique
0 < beta_j < alpha_j with beta_j * (l / a_j) = 1 mod alpha_j, where l is the
lcm of all exponents.  l / a_j is always invertible mod alpha_j, the worked
examples are reproduced, and the resulting data admits an integer
normalization obstruction (`integer_obstruction`), which would fail for the
other candidate conventions.  Everything downstream of the orbit data is
independent of the beta choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from itertools import product as iter_product
from math import gcd, lcm, prod
from operator import index

from ._limits import MAX_INVARIANT_BITS, IntegralityError, LimitError

__all__ = [
    "BrieskornInput",
    "Orbit",
    "SeifertData",
    "TorsionData",
    "ComponentReport",
    "TangentConeReport",
    "IntegralityError",
    "LimitError",
    "brieskorn_seifert",
    "torsion_data",
    "v1_components",
    "is_one_formal_link",
    "tangent_cone_report",
    "integer_obstruction",
    "link_invariants",
    "sweep",
]


# rows a sweep may produce; (max - 1)^n is counted step by step before any
# row is built, since a few bytes of options could otherwise ask for 10^15
MAX_SWEEP_ROWS = 2**16


@dataclass(frozen=True)
class BrieskornInput:
    exponents: tuple

    def __post_init__(self):
        # operator.index refuses a float where int() would truncate it
        exps = tuple(map(index, self.exponents))
        if len(exps) < 3:
            raise ValueError("need at least three exponents")
        if any(a < 2 for a in exps):
            raise ValueError("all exponents must be at least 2")
        if sum(a.bit_length() for a in exps) > MAX_INVARIANT_BITS:
            raise LimitError(
                f"the {len(exps)} exponents need more than MAX_INVARIANT_BITS = "
                f"{MAX_INVARIANT_BITS} bits in all"
            )
        object.__setattr__(self, "exponents", exps)


@dataclass(frozen=True)
class Orbit:
    """Exceptional orbit class (alpha, beta), repeated `multiplicity` times."""

    alpha: int
    beta: int
    multiplicity: int

    def __post_init__(self):
        if self.alpha <= 1:
            raise ValueError("orbit alpha must exceed 1")
        if not 0 < self.beta < self.alpha:
            raise ValueError("orbit beta must satisfy 0 < beta < alpha")
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError("orbit (alpha, beta) must be coprime")
        if self.multiplicity < 1:
            raise ValueError("orbit multiplicity must be positive")


@dataclass(frozen=True)
class SeifertData:
    orbits: tuple
    genus: int
    euler: Fraction

    def __post_init__(self):
        orbits = tuple(self.orbits)
        for o in orbits:
            if not isinstance(o, Orbit):
                raise TypeError("orbits must be Orbit instances")
        e = Fraction(self.euler)
        if e >= 0:
            raise ValueError("Euler number must be negative")
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "euler", e)


@dataclass(frozen=True)
class TorsionData:
    torsion_order: int
    fiber_class_order: int
    alpha: int


@dataclass(frozen=True)
class ComponentReport:
    positive_dim_count: int
    component_dim: int
    includes_identity_component: bool
    translated_count: int


@dataclass(frozen=True)
class TangentConeReport:
    genus: int
    germ_is_identity_only: bool
    germ_torus_dim: int
    r1_dim: int
    formula_holds: bool


def _as_fraction_int(x, what):
    f = Fraction(x)
    if f.denominator != 1:
        raise IntegralityError(f"{what} = {f} is not an integer")
    return f.numerator


def brieskorn_seifert(data):
    """Seifert invariants of the singularity link for the given exponents.

    With l = lcm(a_1..a_n) and l_j the lcm omitting a_j: orbit classes have
    alpha_j = l / l_j (dropped when alpha_j = 1) with multiplicity
    s_j = (a_1...a_n) / (a_j l_j); the base genus is
    (2 + (n-2) a/l - sum s_j) / 2 and the Euler number -a / l^2.
    """
    if not isinstance(data, BrieskornInput):
        data = BrieskornInput(tuple(data))
    exps = data.exponents
    n = len(exps)
    a = prod(exps)
    # prefix[j] = lcm(a_1..a_j) and suffix[j] = lcm(a_{j+1}..a_n), so each l_j
    # is one lcm of two and the whole pass is linear in n
    prefix = list(accumulate(exps, lcm, initial=1))
    suffix = list(accumulate(reversed(exps), lcm, initial=1))[::-1]
    ell = prefix[n]
    orbits = []
    s_total = 0
    for j, aj in enumerate(exps):
        ell_j = lcm(prefix[j], suffix[j + 1])
        alpha_j = ell // ell_j
        s_j = _as_fraction_int(Fraction(a, aj * ell_j), f"multiplicity s_{j + 1}")
        s_total += s_j
        if alpha_j == 1:
            continue
        w_j = ell // aj
        if gcd(w_j, alpha_j) != 1:
            raise IntegralityError(
                f"l/a_{j + 1} = {w_j} is not invertible mod alpha_{j + 1} = {alpha_j}"
            )
        beta_j = pow(w_j, -1, alpha_j)
        orbits.append(Orbit(alpha=alpha_j, beta=beta_j, multiplicity=s_j))
    genus = _as_fraction_int(
        Fraction(2 + (n - 2) * Fraction(a, ell) - s_total, 2), "genus"
    )
    if genus < 0:
        raise IntegralityError(f"genus formula produced {genus} < 0")
    euler = -Fraction(a, ell * ell)
    orbits.sort(key=lambda o: (o.alpha, o.beta))
    return SeifertData(orbits=tuple(orbits), genus=genus, euler=euler)


def torsion_data(s):
    """|T|, ord(h) and alpha = |T|/ord(h) from the Seifert data.

    Products and lcms run over the orbit list expanded with multiplicity; the
    empty list contributes 1 to both.  All three values are asserted integral.
    Data whose |T| could need more than MAX_INVARIANT_BITS bits raise
    LimitError before the product is formed.
    """
    abs_e = -s.euler
    bits = sum(o.multiplicity * o.alpha.bit_length() for o in s.orbits)
    if bits + abs_e.numerator.bit_length() > MAX_INVARIANT_BITS:
        raise LimitError(
            f"|T| = prod(alpha^s) * |e| could need more than MAX_INVARIANT_BITS = "
            f"{MAX_INVARIANT_BITS} bits"
        )
    alpha_product = prod(o.alpha ** o.multiplicity for o in s.orbits)
    alpha_lcm = lcm(*(o.alpha for o in s.orbits)) if s.orbits else 1
    t_order = _as_fraction_int(alpha_product * abs_e, "|T|")
    h_order = _as_fraction_int(alpha_lcm * abs_e, "ord(h)")
    alpha = _as_fraction_int(Fraction(alpha_product, alpha_lcm), "alpha")
    if t_order != h_order * alpha:
        raise IntegralityError("|T| != ord(h) * alpha")
    return TorsionData(torsion_order=t_order, fiber_class_order=h_order, alpha=alpha)


def v1_components(s, torsion=None):
    """Positive-dimensional components of the first characteristic variety.

    Genus 0: none.  Genus 1: alpha - 1 translated copies of the identity
    torus, none through the identity.  Genus > 1: those translates plus the
    identity component itself.  `component_dim` is the dimension 2g of the
    identity torus, whether or not any component exists.  A caller that
    already holds `torsion_data(s)` passes it as `torsion`.
    """
    alpha = (torsion_data(s) if torsion is None else torsion).alpha
    g = s.genus
    if g == 0:
        return ComponentReport(0, 0, False, 0)
    if g == 1:
        count = alpha - 1
        return ComponentReport(count, 2, False, count)
    return ComponentReport(alpha, 2 * g, True, alpha - 1)


def is_one_formal_link(s):
    """Formality of the link's group: true exactly when the base genus is 0.

    The first Betti number of the link is twice the base genus; a positive
    Betti number obstructs 1-formality for these links, while a rational
    homology sphere link is formal outright.
    """
    return s.genus == 0


def tangent_cone_report(s):
    """Germ of the jump locus at the identity versus the resonance variety.

    The tangent-cone identity holds for genus 0 and for every genus > 1, and
    fails exactly at genus 1, where the germ is the single point but the
    resonance variety is a 2-plane.
    """
    g = s.genus
    if g <= 1:
        return TangentConeReport(
            genus=g,
            germ_is_identity_only=True,
            germ_torus_dim=0,
            r1_dim=2 * g,
            formula_holds=(g == 0),
        )
    return TangentConeReport(
        genus=g,
        germ_is_identity_only=False,
        germ_torus_dim=2 * g,
        r1_dim=2 * g,
        formula_holds=True,
    )


def integer_obstruction(s):
    """The integer b with e = -(b + sum s_j beta_j / alpha_j).

    Existence of an integer solution is a consistency requirement on
    normalized Seifert data; failure means the beta residues are not a valid
    normalization for this Euler number.
    """
    frac = sum(
        (Fraction(o.beta * o.multiplicity, o.alpha) for o in s.orbits), Fraction(0)
    )
    return _as_fraction_int(-s.euler - frac, "normalization obstruction b")


def link_invariants(exps):
    """Every invariant of the link of the given exponents, keyed by name.

    Each is computed once, torsion included, so every failure is raised here
    before anything is reported.
    """
    s = brieskorn_seifert(exps)
    t = torsion_data(s)
    return {
        "seifert": s,
        "torsion": t,
        "components": v1_components(s, t),
        "one_formal": is_one_formal_link(s),
        "tangent_cone": tangent_cone_report(s),
        "obstruction": integer_obstruction(s),
    }


def sweep(max_exponent, n):
    """`(exponents, record)` pairs for all exponent tuples in [2, max]^n.

    Tuples are enumerated in lexicographic order; output order is canonical.
    The invariants are symmetric in the exponents, so `link_invariants` runs
    once per multiset of exponents, and every ordered tuple of that multiset
    shares the same record object.  A sweep of more than `MAX_SWEEP_ROWS`
    rows is refused before any row is built; the count takes at least two
    choices per exponent, so that n is bounded even for max <= 2.  A
    multiset beyond MAX_INVARIANT_BITS raises LimitError naming it.
    """
    if n < 3:
        raise ValueError("sweep needs n >= 3")
    rows = 1
    for _ in range(n):
        rows *= max(max_exponent - 1, 2)
        if rows > MAX_SWEEP_ROWS:
            raise LimitError(
                f"sweep --max {max_exponent} --n {n} refused: more than "
                f"MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} rows, counting at least "
                f"2 values per exponent"
            )
    out = []
    shared = {}
    for exps in iter_product(range(2, max_exponent + 1), repeat=n):
        key = tuple(sorted(exps))
        record = shared.get(key)
        if record is None:
            try:
                record = shared[key] = link_invariants(key)
            except LimitError as exc:
                raise LimitError(f"exponents {','.join(map(str, key))}: {exc}") from None
        out.append((exps, record))
    return out
