"""From a group presentation to its Alexander polynomial, step by step.

Walks the classical trefoil computation: parse the presentation, abelianize,
take free derivatives of the relator, and normalize the gcd of the resulting
ideal.  Run with `python3 demos/01_alexander_polynomials.py`.
"""

from jumploci import (
    abelianization,
    alexander_matrix,
    elementary_ideal,
    format_presentation,
    fox_derivative,
    parse_presentation,
    poly_to_string,
)

print("=== The trefoil knot group ===")
trefoil = parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>")
print("presentation:", format_presentation(trefoil))

ab = abelianization(trefoil)
print(f"first Betti number b1 = {ab.b1}; torsion = {list(ab.torsion)}")
print("generator images in Z^b1:", [g.free for g in ab.gen_images])

print("\nfree derivatives of the relator, abelianized into Z[t^±1]:")
row = fox_derivative(trefoil.relators[0], ab)
for name, d in zip(trefoil.generator_names, row):
    print(f"  d(relator)/d{name} = {poly_to_string(d)}")

a = alexander_matrix(trefoil)
e1 = elementary_ideal(a, 1)
print("\nfirst elementary ideal generators:", [poly_to_string(g) for g in e1.generators])
delta = a.delta
print("Alexander polynomial (gcd, unit-normalized):", poly_to_string(delta))

print("\n=== More groups ===")
for text in (
    "<x, y | [x,y]>",                              # Z^2
    "<x, y | x y^-1 x^-1 y x y^-1 x y x^-1 y^-1>",  # figure-eight knot
    "<x, y | x y x y x y^-1 x^-1 y^-1 x^-1 y^-1>",  # (2,5) torus knot
    "<x1, y1, x2, y2 | [x1,y1] [x2,y2]>",           # genus-2 surface
):
    p = parse_presentation(text)
    a = alexander_matrix(p)
    delta = a.delta
    e1 = elementary_ideal(a, 1)
    tag = "zero ideal" if e1.is_zero else f"{len(e1.generators)} generators"
    print(f"  {format_presentation(p):55s} E1: {tag:15s} Delta = {poly_to_string(delta)}")
