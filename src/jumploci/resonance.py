"""Rational alternating 3-forms: resonance tests, isotropy, and classification.

A `ThreeForm` models the triple cup product of a closed orientable 3-manifold
on H^1 = Q^n.  Contraction against a vector x gives a skew matrix A(x) with
A(x) x = 0; a nonzero x avoids the degree-1 resonance variety exactly when
rank A(x) = n - 1.  Whether resonance fills all of H^1 is decided by that rank
test alone: a seeded random x with rank A(x) = n - 1, when one is found, is an
exact witness of non-fullness.  Up to a size threshold the test then runs on a
finite lattice of points fixed by n, which holds a witness whenever one exists,
so the answer is exact either way.  Above the threshold a form without a
witness among the draws is reported full at sampling confidence.

Isotropy is exact linear algebra: an isotropic W extends by v exactly when
A(w) v = 0 for every w in W, so `isotropy_lower_bound` grows a coordinate
start and, when eta has a linear factor l, a start inside ker l, each to a
maximal isotropic subspace.  The second start reaches the isotropy index, so
the bound is sharp whenever eta has a linear factor (every form with n <= 5,
product forms in any coordinates, decomposable forms).

`classify_malcev` applies the decision procedure for cup forms of groups that
are simultaneously 1-formal, quasi-Kahler, and 3-manifold groups.  The
verdict is conditional on those hypotheses: e.g. the Heisenberg nilmanifold
has zero cup form with b1 = 2, but is not 1-formal, so the Free(2) verdict
does not apply to it.

Convention: the zero vector is a member of the resonance variety whenever
n >= 1 (`zero_vector_in_r1`); the rank test of `in_r1` addresses x != 0 only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import lcm
from operator import index, mul

from . import _linalg

__all__ = [
    "ThreeForm",
    "Subspace",
    "MalcevKind",
    "MalcevClass",
    "R1FullnessReport",
    "IsotropyWitness",
    "contraction_matrix",
    "in_r1",
    "r1_fullness",
    "is_generic",
    "zero_vector_in_r1",
    "restriction_rank",
    "is_isotropic",
    "isotropy_lower_bound",
    "classify_malcev",
    "corank_of_class",
]


def _sort_triple(i, j, k, c):
    """(i, j, k) sorted, with c negated once per swap of three compare-and-swaps."""
    if i > j:
        i, j, c = j, i, -c
    if j > k:
        j, k, c = k, j, -c
    if i > j:
        i, j, c = j, i, -c
    return (i, j, k), c


class ThreeForm:
    """Alternating 3-form on Q^n, stored on strictly increasing index triples.

    The coefficients are kept once as integers over one common denominator:
    `_coeffs` maps each stored triple to its coefficient times `_den`, the
    lcm of the coefficients' denominators.  Every contraction, transform and
    rank test reads these integers; `coeffs` and `value` give `Fraction`s.
    """

    __slots__ = ("n", "_coeffs", "_den")

    def __init__(self, n, coeffs=None):
        n = index(n)
        if n < 0:
            raise ValueError("dimension must be non-negative")
        clean = {}
        rational = False
        for (i, j, k), c in (coeffs or {}).items():
            if type(c) is not int:
                if isinstance(c, Fraction):
                    rational = True
                elif isinstance(c, int):
                    c = int(c)
                else:
                    raise TypeError(f"3-form coefficients must be int or Fraction, got {c!r}")
            # operator.index refuses a float where int() would truncate it
            if type(i) is not int:
                i = index(i)
            if type(j) is not int:
                j = index(j)
            if type(k) is not int:
                k = index(k)
            if i == j or i == k or j == k:
                raise ValueError(f"indices in a 3-form term must be distinct: {(i, j, k)}")
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"index out of range in {(i, j, k)} for dimension {n}")
            key, c = _sort_triple(i, j, k, c)
            if key in clean:
                c += clean[key]
                if c:
                    clean[key] = c
                else:
                    del clean[key]
            elif c:
                clean[key] = c
        den = 1
        if rational:
            den = lcm(*(c.denominator for c in clean.values()))
            clean = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ThreeForm is immutable")

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def volume(cls):
        return cls(3, {(0, 1, 2): 1})

    @classmethod
    def product_form(cls, g):
        """The cup form of the product of a circle and a genus-g surface.

        n = 2g + 1 and eta = (e1^e2 + ... + e_{2g-1}^e_{2g}) ^ e_{2g+1}.
        """
        if g < 1:
            raise ValueError("genus must be at least 1")
        n = 2 * g + 1
        return cls(n, {(2 * i, 2 * i + 1, n - 1): 1 for i in range(g)})

    @property
    def coeffs(self):
        return {key: Fraction(c, self._den) for key, c in self._coeffs.items()}

    @property
    def is_zero(self):
        return not self._coeffs

    def value(self, i, j, k):
        """mu(i, j, k) for any index order; repeated indices give 0."""
        if len({i, j, k}) != 3:
            return Fraction(0)
        key, sign = _sort_triple(i, j, k, 1)
        return Fraction(sign * self._coeffs.get(key, 0), self._den)

    def contract_pair(self, x, y):
        """The functional eta(x, y, .) as a coordinate vector of length n: A(y) x."""
        x, x_den = _int_vec(x, self.n)
        a, scale = _integer_contraction(self, y)
        scale *= x_den
        return tuple(Fraction(v, scale) for v in _apply(a, x))

    def evaluate(self, x, y, z):
        z = _vec(z, self.n)
        return sum(c * v for c, v in zip(self.contract_pair(x, y), z))

    def transform(self, t):
        """Pullback along the invertible matrix t: result(x,y,z) = eta(tx, ty, tz).

        Exact integer arithmetic.  The entries of t (ints or Fractions) are
        scaled to integers by the lcm of their denominators.  With t_a the
        scaled column a, the coefficient on (a, b, c) is <A(t_b) t_a, t_c> =
        eta(t_a, t_b, t_c), read from one integer contraction A(t_b) per
        column, and the common scale is divided out once at the end.  A
        matrix that is not n x n raises ValueError naming its shape.
        """
        n = self.n
        rows = [tuple(row) for row in t]
        widths = {len(row) for row in rows}
        if len(rows) != n or widths - {n}:
            cols = "/".join(map(str, sorted(widths))) or "0"
            raise ValueError(f"transform matrix must be {n}x{n}, got {len(rows)}x{cols}")
        flat, t_den = _int_vec([x for row in rows for x in row], n * n)
        columns = [flat[a::n] for a in range(n)]
        slices = [_integer_contraction(self, col)[0] for col in columns]
        scale = self._den * t_den ** 3
        coeffs = {}
        # a, then b, then c: the keys go in in the canonical sorted order
        for a, col in enumerate(columns):
            for b in range(a + 1, n):
                v = _apply(slices[b], col)
                for c in range(b + 1, n):
                    s = sum(map(mul, v, columns[c]))
                    if s:
                        coeffs[a, b, c] = Fraction(s, scale)
        return ThreeForm(n, coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._coeffs.items())))

    def __repr__(self):
        terms = ", ".join(f"{ijk}: {c}" for ijk, c in sorted(self.coeffs.items()))
        return f"ThreeForm(n={self.n}, {{{terms}}})"


def _int_vec(x, n):
    """A vector of length n times the lcm `den` of its denominators, as ints; and `den`.

    Each entry must be an int or a Fraction.  An all-int vector is taken as
    it is, with `den` = 1.
    """
    x = tuple(x)
    if len(x) != n:
        raise ValueError(f"vector has length {len(x)}, expected {n}")
    if all(type(c) is int for c in x):
        return x, 1
    for c in x:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"vector entries must be int or Fraction, got {c!r}")
    den = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def _vec(x, n):
    """The vector checked by `_int_vec`, as a tuple of Fractions."""
    x, den = _int_vec(x, n)
    return tuple(Fraction(c, den) for c in x)


class Subspace:
    """Subspace of Q^n given by a linearly independent rational basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        n = index(ambient_dim)
        rows = tuple(_vec(b, n) for b in basis)
        if rows and _linalg.rank([list(r) for r in rows]) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "basis", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def coordinate(cls, n, indices):
        basis = []
        for i in indices:
            v = [Fraction(0)] * n
            v[i] = Fraction(1)
            basis.append(tuple(v))
        return cls(n, basis)

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# contraction and resonance membership
# ---------------------------------------------------------------------------

def _integer_contraction(eta, x):
    """A(x) times a positive integer `scale`, as an int matrix; and `scale`.

    It has the rank and the nullspace of A(x), so rank tests and the
    isotropy system use it directly.  It is the one place that spreads the
    signs of a stored triple: since (A(y) x)_i = eta(e_i, x, y), every
    contraction eta(x, y, .), and with it the pullback, reads A(y) x.
    """
    n = eta.n
    x, x_den = _int_vec(x, n)
    a = [[0] * n for _ in range(n)]
    for (i, j, k), mu in eta._coeffs.items():
        a[i][j] += mu * x[k]
        a[j][i] -= mu * x[k]
        a[i][k] -= mu * x[j]
        a[k][i] += mu * x[j]
        a[j][k] += mu * x[i]
        a[k][j] -= mu * x[i]
    return a, x_den * eta._den


def _apply(a, x):
    """The matrix a times the vector x, as a list."""
    return [sum(map(mul, row, x)) for row in a]


def contraction_matrix(eta, x):
    """The skew matrix A(x) with A(x)[i][j] = eta(e_i, e_j, x); A(x) x = 0."""
    a, scale = _integer_contraction(eta, x)
    return [[Fraction(v, scale) for v in row] for row in a]


def in_r1(eta, x):
    """Membership of a nonzero vector in the degree-1 resonance variety.

    x lies outside exactly when rank A(x) = n - 1, the largest rank a skew
    matrix with x in its kernel can have.  For even n the rank parity makes
    every nonzero vector a member.
    """
    x, _ = _int_vec(x, eta.n)
    if not any(x):
        raise ValueError("membership of the zero vector is a convention; see zero_vector_in_r1")
    return _linalg.rank(_integer_contraction(eta, x)[0]) <= eta.n - 2


def zero_vector_in_r1(n):
    """Documented convention: 0 belongs to the resonance variety iff n >= 1."""
    return n >= 1


@dataclass(frozen=True)
class R1FullnessReport:
    full: bool
    mode: str  # "parity", "symbolic", or "sampled"
    trials: int = 0
    seed: int = 0


def _lattice(n, k):
    """The points x of Z^n with every x_i >= 0 and sum x = k, one per multiset of k indices."""
    for multiset in combinations_with_replacement(range(n), k):
        x = [0] * n
        for i in multiset:
            x[i] += 1
        yield x


def r1_fullness(eta, symbolic_threshold=9, trials=200, seed=0):
    """Decide whether every vector resonates, reporting the mode used.

    Even n: parity decides.  Odd n: seeded random integer vectors are tried
    first; a single x with rank A(x) = n - 1 is an exact witness that the form
    is not full.  For odd n <= symbolic_threshold the same rank test then
    runs on the finite lattice S_k = {x in Z^n : x_i >= 0, sum x = k} with
    k = max((n - 3)/2, 1), C(n + k - 1, k) points, and the answer is exact
    either way:
    - For odd n, adj A(x) = v v^T with v_i = +/-Pf of A(x) without row and
      column i, and A(x) v = 0 = A(x) x.  So v = lambda(x) x for one
      polynomial lambda: when A(x) has rank n - 1 both span its kernel, and
      otherwise v = 0.  For x != 0, rank A(x) = n - 1 exactly when
      lambda(x) != 0.
    - Each sub-Pfaffian, of degree (n - 1)/2, is +/-x_i lambda(x), so lambda
      is homogeneous of degree (n - 3)/2 <= k.
    - With x_n = k - (x_1 + ... + x_{n-1}), S_k is the principal lattice of
      order k in n - 1 variables, on which a polynomial of degree <= k that
      vanishes is zero (Chung and Yao 1977).  So lambda vanishing on S_k
      vanishes on the hyperplane sum x = k, by homogeneity wherever
      sum x != 0, and so identically.
    - So no witness in S_k means full, and a witness means not full.  For
      n = 3 lambda is constant, and for n = 1 every x != 0 is a witness; k >= 1
      keeps 0 out of S_k.
    Larger odd n reports fullness at sampling confidence.  Both odd modes
    report the `trials` and `seed` of the draws.
    """
    n = eta.n
    if n < 1:
        raise ValueError("fullness needs n >= 1")
    if n % 2 == 0:
        return R1FullnessReport(full=True, mode="parity")
    rng = random.Random(seed)
    points = ([rng.randint(-5, 5) for _ in range(n)] for _ in range(trials))
    mode = "sampled" if n > symbolic_threshold else "symbolic"
    if mode == "symbolic":
        points = chain(points, _lattice(n, max((n - 3) // 2, 1)))
    full = not any(
        any(x) and _linalg.rank(_integer_contraction(eta, x)[0]) == n - 1 for x in points
    )
    return R1FullnessReport(full=full, mode=mode, trials=trials, seed=seed)


def is_generic(eta, symbolic_threshold=9, trials=200, seed=0):
    """Odd-dimensional forms whose resonance variety is a proper subvariety."""
    if eta.n % 2 == 0:
        raise ValueError("genericity is defined for odd n only")
    return not r1_fullness(eta, symbolic_threshold, trials, seed).full


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------

def restriction_rank(eta, w):
    """Rank of the restricted cup pairing on a subspace of dimension >= 1.

    Computed as the dimension of span{ eta(w_a, w_b, .) = A(w_b) w_a : a < b }
    over the basis, with one integer contraction A(w_b) per basis vector.
    Each basis vector is scaled to integers and eta's integer coefficients
    are read as stored; that multiplies each row by a nonzero constant, so
    the rank is unchanged and every row is built in integer arithmetic.
    """
    if w.ambient_dim != eta.n:
        raise ValueError("subspace ambient dimension mismatch")
    if w.dim < 1:
        raise ValueError("restriction rank needs dim >= 1")
    vecs = [_int_vec(v, eta.n)[0] for v in w.basis]
    rows = []
    for b in range(1, len(vecs)):
        a_b = _integer_contraction(eta, vecs[b])[0]
        rows.extend(_apply(a_b, x) for x in vecs[:b])
    return _linalg.rank(rows) if rows else 0


def is_isotropic(eta, w):
    return restriction_rank(eta, w) == 0


@dataclass(frozen=True)
class IsotropyWitness:
    dimension: int
    witness: Subspace
    method: str
    seed: int


# The coordinate-subset scan is exhaustive while 2^n <= SUBSET_LIMIT (n <= 12).
SUBSET_LIMIT = 4096


def _pair_masks(eta):
    """Bit j of bad[i] is set exactly when eta(e_i, e_j, .) is nonzero.

    That functional is nonzero exactly when some stored triple holds both
    i and j, so the graph is read off the support.
    """
    bad = [0] * eta.n
    for i, j, k in eta._coeffs:
        bad[i] |= 1 << j | 1 << k
        bad[j] |= 1 << i | 1 << k
        bad[k] |= 1 << i | 1 << j
    return bad


def _best_coordinate_subset(eta):
    """Largest isotropic coordinate subset: exhaustive up to SUBSET_LIMIT, then greedy."""
    n = eta.n
    bad = _pair_masks(eta)

    def isotropic(mask, members):
        return all(bad[i] & mask == 0 for i in members)

    if 2 ** n <= SUBSET_LIMIT:
        for size in range(n, 0, -1):
            for members in combinations(range(n), size):
                mask = 0
                for i in members:
                    mask |= 1 << i
                if isotropic(mask, members):
                    return members  # at size 1 at the latest: no triple repeats an index
    # greedy fallback for large n
    mask = 0
    members = []
    for i in range(n):
        if bad[i] & mask == 0:
            members.append(i)
            mask |= 1 << i
    return tuple(members)


def _sparse(v):
    return {j: x for j, x in enumerate(v) if x}


def _extend(eta, vectors, constraints=()):
    """Grow an isotropic family to a maximal isotropic subspace.

    W + span(v) is isotropic exactly when A(w) v = 0 for every w in W, so
    each step takes the first nullspace vector of the system
    {A(w) : w in W} plus `constraints` that lies outside W.  The system is
    kept in echelon form between steps, so each new w adds its n rows once.
    """
    n = eta.n
    system, span, basis = {}, {}, []
    for row in constraints:
        _linalg.echelon_insert(system, _sparse(row))

    def add(v):
        basis.append(v)
        for row in _integer_contraction(eta, v)[0]:
            _linalg.echelon_insert(system, _sparse(row))

    for v in vectors:
        _linalg.echelon_insert(span, _sparse(v))
        add(v)
    while True:
        v = next((v for v in _linalg.kernel(system, n)
                  if _linalg.echelon_insert(span, _sparse(v)) is not None), None)
        if v is None:
            return basis
        add(v)


def _linear_factors(eta):
    """Basis of the linear forms l with eta ^ l = 0, i.e. those dividing eta.

    The coefficient of eta ^ l on a 4-subset a < b < c < d is, up to sign,
    eta_bcd l_a - eta_acd l_b + eta_abd l_c - eta_abc l_d; only the 4-subsets
    holding a stored triple give a nonzero row.  The rows are read from the
    integer coefficients, which scales each by eta's common denominator.
    """
    n = eta.n
    quads = {tuple(sorted(t + (d,))) for t in eta._coeffs for d in range(n) if d not in t}
    mu = eta._coeffs.get
    system = {}
    for a, b, c, d in quads:
        row = (mu((b, c, d), 0), -mu((a, c, d), 0), mu((a, b, d), 0), -mu((a, b, c), 0))
        _linalg.echelon_insert(system, {k: x for k, x in zip((a, b, c, d), row) if x})
        if len(system) == n:  # rank n already: the nullspace is zero
            break
    return _linalg.kernel(system, n)


def isotropy_lower_bound(eta, seed=0):
    """Largest isotropic subspace found by exact linear algebra, with a verified witness.

    Two starts, each grown by `_extend` to a maximal isotropic subspace:
    - the largest isotropic coordinate subset (exhaustive while
      2^n <= SUBSET_LIMIT, greedy above);
    - a linear factor l of eta, with l = 0 as an extra constraint.  Then
      eta = omega ^ l, isotropy inside ker l is isotropy for the 2-form omega,
      and all maximal isotropic subspaces of a 2-form have one dimension, so
      this start reaches the isotropy index, which a nonzero form attains
      inside ker l.  Every form with n <= 5, every product form in any
      coordinates, and every decomposable form has a linear factor.
    A nonzero form has no isotropic hyperplane, so the factor start runs only
    while the first result is below n - 2.  Without a linear factor the
    result is a lower bound.  `method` names the start that won:
    "coordinate-subsets" (the extension added nothing), "linear-extension",
    "linear-factor", or "trivial" for n = 0.  `seed` is echoed in the
    witness and does not affect the result.
    """
    n = eta.n
    if n == 0:
        return IsotropyWitness(0, Subspace(0, ()), method="trivial", seed=seed)
    members = _best_coordinate_subset(eta)
    basis = _extend(eta, Subspace.coordinate(n, members).basis)
    method = "linear-extension" if len(basis) > len(members) else "coordinate-subsets"
    if len(basis) < n - 2:
        factors = _linear_factors(eta)
        if factors:
            candidate = _extend(eta, (), constraints=factors[:1])
            if len(candidate) > len(basis):
                basis, method = candidate, "linear-factor"
    best = Subspace(n, basis)
    if best.dim >= 2 and not is_isotropic(eta, best):
        raise RuntimeError("isotropy search produced an unverified witness")
    return IsotropyWitness(best.dim, best, method=method, seed=seed)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class MalcevKind(str, Enum):
    TRIVIAL = "Trivial"
    FREE = "Free"
    Z_X_SURFACE = "ZxSurface"
    OBSTRUCTED = "Obstructed"


@dataclass(frozen=True)
class MalcevClass:
    kind: MalcevKind
    rank: int | None = None
    genus: int | None = None
    corank: int | None = None
    isotropy_index: int | None = None
    reason: str | None = None
    decided_by: str = ""
    # the fullness report behind a verdict on a nonzero form with odd n >= 5
    fullness: R1FullnessReport | None = field(default=None, compare=False)


def classify_malcev(eta, symbolic_threshold=9, trials=200, seed=0):
    """Classify the cup form of a 1-formal, quasi-Kahler, 3-manifold group.

    Verdicts: zero form -> Trivial (n = 0) or Free(n); nonzero form with
    n = 3 -> ZxSurface(1); generic nonzero form with odd n >= 5 ->
    ZxSurface((n-1)/2); anything else -> Obstructed, naming the failed step.
    Corank and isotropy index are attached to each classified verdict, and
    the `R1FullnessReport` to each verdict that needed one (odd n >= 5).
    The answer is conditional on the stated hypotheses about the group.
    """
    n = eta.n
    if eta.is_zero:
        if n == 0:
            return MalcevClass(
                kind=MalcevKind.TRIVIAL, corank=0, isotropy_index=0,
                decided_by="zero form on a zero-dimensional space",
            )
        return MalcevClass(
            kind=MalcevKind.FREE, rank=n, corank=n, isotropy_index=n,
            decided_by="vanishing cup form",
        )
    if n == 3:
        return MalcevClass(
            kind=MalcevKind.Z_X_SURFACE, genus=1, corank=1, isotropy_index=1,
            decided_by="nonzero form on a 3-dimensional space is a volume form",
        )
    if n % 2 == 0:
        return MalcevClass(
            kind=MalcevKind.OBSTRUCTED,
            reason="even b1 with nonzero cup form",
            decided_by="even Betti number forces a free completion, "
                       "contradicting the nonzero form",
        )
    report = r1_fullness(eta, symbolic_threshold, trials, seed)
    if not report.full:
        g = (n - 1) // 2
        return MalcevClass(
            kind=MalcevKind.Z_X_SURFACE, genus=g, corank=g, isotropy_index=g,
            decided_by=f"generic odd form (fullness mode: {report.mode})",
            fullness=report,
        )
    return MalcevClass(
        kind=MalcevKind.OBSTRUCTED,
        reason="odd b1 with nonzero non-generic cup form",
        decided_by=f"resonance fills the whole space (fullness mode: {report.mode})",
        fullness=report,
    )


def corank_of_class(c):
    """Corank attached to a classified (non-obstructed) verdict.

    Always equals the class's isotropy index.
    """
    if c.kind is MalcevKind.OBSTRUCTED:
        raise ValueError("obstructed classes carry no corank")
    return c.corank
