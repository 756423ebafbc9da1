"""Shared test corpus: named presentations, model forms, random generators."""

from __future__ import annotations

import random
from fractions import Fraction

from jumploci import LaurentPoly, ThreeForm, Word, parse_presentation
from jumploci.laurent import _reduce_mod_cyclotomic, euler_phi

# -- named presentations -----------------------------------------------------

FREE_1 = parse_presentation("<x | >")
FREE_2 = parse_presentation("<x, y | >")
FREE_3 = parse_presentation("<x, y, z | >")
Z2 = parse_presentation("<x, y | [x,y]>")
TREFOIL = parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>")
FIGURE_EIGHT = parse_presentation("<x, y | x y^-1 x^-1 y x y^-1 x y x^-1 y^-1>")
SURFACE_2 = parse_presentation("<x1, y1, x2, y2 | [x1,y1] [x2,y2]>")
TORUS_2_5 = parse_presentation("<x, y | x y x y x y^-1 x^-1 y^-1 x^-1 y^-1>")
HEISENBERG = parse_presentation("<x, y, z | [x,y] z^-1, [x,z], [y,z]>")
COMM_SQUARED = parse_presentation("<x, y | [x,y]^2>")
DOUBLE_COMM = parse_presentation("<x, y, z | [x, [y, z]], [x, y]>")


def cross_validation_corpus():
    """At least ten presentations spanning free, surface, knot and random types."""
    named = [
        FREE_2,
        FREE_3,
        Z2,
        TREFOIL,
        FIGURE_EIGHT,
        SURFACE_2,
        TORUS_2_5,
        HEISENBERG,
        COMM_SQUARED,
        DOUBLE_COMM,
    ]
    rng = random.Random(20240)
    named.extend(random_commutator_presentation(rng, gens=3) for _ in range(2))
    return named


# -- random generators ---------------------------------------------------------

def random_word(rng, num_gens, length):
    letters = [
        (rng.randrange(num_gens), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word(letters)


def random_commutator_presentation(rng, gens=3):
    """Presentation whose relators are products of commutators of short words."""
    names = tuple(f"g{i}" for i in range(gens))
    relators = []
    for _ in range(rng.randint(1, 2)):
        w = Word()
        for _ in range(rng.randint(1, 2)):
            u = random_word(rng, gens, rng.randint(1, 3))
            v = random_word(rng, gens, rng.randint(1, 3))
            w = w * (u * v * u.inverse() * v.inverse())
        relators.append(w)
    from jumploci import Presentation

    return Presentation(names, tuple(relators))


# exponent-sum rows of the two relators of `sum_pattern_presentation`, before
# a random permutation of the generators: they fix b1 = 1
SUM_PATTERN = ((1, 2, -1), (3, -1, 2))


def sum_pattern_text(rng, length):
    """`<a, b, c | r1, r2>`: two random relators of `length` letters with b1 = 1.

    Each relator has the exponent sums of a row of SUM_PATTERN, permuted,
    padded with cancelling pairs g g^-1 and shuffled, so its Fox derivatives
    have about as many terms as the word has letters.
    """
    perm = list(range(3))
    rng.shuffle(perm)
    relators = []
    for row in SUM_PATTERN:
        letters = []
        for g in range(3):
            s = row[perm[g]]
            letters += [(g, 1 if s > 0 else -1)] * abs(s)
        while len(letters) < length:
            g = rng.randrange(3)
            letters += [(g, 1), (g, -1)]
        rng.shuffle(letters)
        relators.append(letters)
    text = ", ".join(" ".join("abc"[g] + ("" if s > 0 else "^-1") for g, s in letters)
                     for letters in relators)
    return f"<a, b, c | {text}>"


def chain_text(k):
    """<x0..xk | x_i^2 x_{i+1}^-1>: expanding its E_1 forms a product of 2^k terms."""
    gens = ", ".join(f"x{i}" for i in range(k + 1))
    return f"<{gens} | {', '.join(f'x{i}^2 x{i + 1}^-1' for i in range(k))}>"


# expanding its E_1 forms a product of 10^6 terms
FOUR_POWERS = "<x, y, z, w | x^1000 y^-1, y^1000 z^-1, z^1000 w^-1, w x w^-1 x^-1>"


def random_poly(rng, num_vars, max_terms=4, exp_bound=3, coeff_bound=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(num_vars))
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return LaurentPoly(num_vars, terms)


def random_unit_monomial(rng, num_vars, exp_bound=3):
    exps = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(num_vars))
    return LaurentPoly.monomial(num_vars, exps, rng.choice((1, -1)))


def random_threeform(rng, n, density=0.5, bound=3):
    from itertools import combinations

    coeffs = {}
    for triple in combinations(range(n), 3):
        if rng.random() < density:
            c = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            if c:
                coeffs[triple] = c
    return ThreeForm(n, coeffs)


def random_vector(rng, n, bound=4):
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))


def random_nonzero_vector(rng, n, bound=4):
    while True:
        v = random_vector(rng, n, bound)
        if any(v):
            return v


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def int_det(matrix):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


# -- Z[zeta_m] for tests: a value is the tuple of its phi(m) coefficients ----

def field_add(x, y):
    return tuple(a + b for a, b in zip(x, y, strict=True))


def field_mul(m, x, y):
    """x * y in Z[zeta_m]: the product of the coefficient polynomials reduced modulo Phi_m."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return _reduce_mod_cyclotomic(m, prod)


def random_field_matrix(rng, m, nrows, ncols, k=None, bound=2):
    """Entries of Z[zeta_m] with small integer coefficients, a third of them 0.

    With `k`, the product of an nrows x k and a k x ncols factor, so its
    rank is at most k.
    """
    phi = euler_phi(m)
    zero = (0,) * phi

    def entry():
        if rng.random() < 0.33:
            return zero
        return tuple(rng.randint(-bound, bound) for _ in range(phi))

    if k is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(k)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(k)]
    out = []
    for row in left:
        out.append([])
        for col in zip(*right):
            acc = zero
            for a, b in zip(row, col):
                acc = field_add(acc, field_mul(m, a, b))
            out[-1].append(acc)
    return out


def regular_representation(m, rows):
    """Each entry a of Z[zeta_m] blown up to the phi x phi integer matrix of x -> a x.

    Column i of a block holds the coefficients of a * zeta^i, reduced
    modulo Phi_m; the rank over Q of the result is phi(m) times the rank of
    `rows` over Q(zeta_m).
    """
    phi = euler_phi(m)
    out = []
    for row in rows:
        blocks = [[_reduce_mod_cyclotomic(m, [0] * i + list(a)) for i in range(phi)]
                  for a in row]
        for r in range(phi if blocks else 0):
            out.append([col[r] for block in blocks for col in block])
    return out


def random_invertible_matrix(rng, n, bound=2):
    while True:
        t = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if int_det(t) != 0:
            return t


def random_unimodular_matrix(rng, n, steps=8):
    """Product of elementary integer operations; determinant +/-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and n > 1:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and n > 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def isotropy_corpus():
    """Labelled seeded 3-forms for the isotropy search, small to n = 12.

    Random forms for n = 3..12 at four densities, product forms of genus
    1..5 in standard and scrambled coordinates, zero forms, and decomposable
    forms (the pullback of e1^e2^e3 along an invertible matrix).
    """
    forms = []
    for n in range(3, 13):
        for d, density in enumerate((0.15, 0.3, 0.6, 1.0)):
            for s in range(3):
                rng = random.Random(1000 * n + 10 * d + s)
                forms.append((f"random-n{n}-d{density}-s{s}",
                              random_threeform(rng, n, density=density)))
    for g in range(1, 6):
        base = ThreeForm.product_form(g)
        forms.append((f"product-g{g}", base))
        for s in range(3):
            t = random_invertible_matrix(random.Random(500 + 10 * g + s), 2 * g + 1)
            forms.append((f"product-g{g}-scrambled{s}", base.transform(t)))
    for n in range(7):
        forms.append((f"zero-n{n}", ThreeForm.zero(n)))
    for n in range(3, 9):
        for s in range(2):
            t = random_invertible_matrix(random.Random(700 + 10 * n + s), n)
            forms.append((f"decomposable-n{n}-s{s}", ThreeForm(n, {(0, 1, 2): 1}).transform(t)))
    return forms
