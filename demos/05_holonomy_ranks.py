"""Graded ranks of holonomy Lie algebras.

The free Lie algebra graded dimensions follow the necklace-counting formula;
quadratic relations cut them down.  For a 3-manifold cup form the relations
come from contracting the form against coordinate functionals.
"""

from fractions import Fraction

from jumploci import (
    QuadraticData,
    ThreeForm,
    holonomy_from_threeform,
    lie_ranks,
    lyndon_words,
    wedge_basis,
)

print("=== Free Lie algebras ===")
for n in (2, 3):
    ranks = lie_ranks(QuadraticData(n, ()), 6).ranks
    print(f"  n = {n}: graded ranks up to degree 6: {ranks}")
print("  (degree-d rank = number of Lyndon words of length d; e.g."
      f" n=2, d=3: {lyndon_words(2, 3)})")

print("\n=== The lattice Z^2: one relation kills everything above degree 1 ===")
z2 = QuadraticData(2, ((Fraction(1),),))
print("  ranks:", lie_ranks(z2, 4).ranks)

print("\n=== A genus-2 surface group ===")
pairs = wedge_basis(4)
sym = [Fraction(0)] * len(pairs)
sym[pairs.index((0, 1))] = Fraction(1)
sym[pairs.index((2, 3))] = Fraction(1)
surface = QuadraticData(4, (tuple(sym),))
print("  relation: the symplectic class [x1,y1] + [x2,y2]")
print("  ranks up to degree 4:", lie_ranks(surface, 4).ranks)

print("\n=== Relations from cup 3-forms ===")
for label, eta in (
    ("zero form, n = 2 (free)", ThreeForm.zero(2)),
    ("volume form, n = 3 (abelian)", ThreeForm.volume()),
    ("product form, g = 2 (n = 5)", ThreeForm.product_form(2)),
):
    q = holonomy_from_threeform(eta)
    print(f"  {label}: {len(q.relations)} relations, "
          f"ranks {lie_ranks(q, 4).ranks}")

print("\n=== Sigma_3 x S^1 to degree 6 (the default degree cap) ===")
q = holonomy_from_threeform(ThreeForm.product_form(3))
print("  ranks:", lie_ranks(q, 6).ranks)
print("  (degree 1 is 2g + 1 = 7; from degree 2 on these are the lower central"
      " series ranks of the genus-3 surface group, 14, 64, 280, 1344, 6496)")
