"""Resonance, isotropy, and the Malcev classification of cup 3-forms.

The triple cup product of a closed orientable 3-manifold is an alternating
3-form on H^1.  Contracting against a vector gives a skew matrix whose rank
decides resonance membership; isotropic subspaces bound the corank; and for
groups that are both 1-formal and quasi-Kahler the form determines the Malcev
completion outright.
"""

from fractions import Fraction

from jumploci import (
    Subspace,
    ThreeForm,
    classify_malcev,
    contraction_matrix,
    corank_of_class,
    in_r1,
    is_generic,
    isotropy_lower_bound,
    restriction_rank,
)

print("=== The 3-torus volume form ===")
vol = ThreeForm.volume()
x = (Fraction(0), Fraction(0), Fraction(1))
print("A(e3) =", [[str(c) for c in row] for row in contraction_matrix(vol, x)])
print("e3 resonates:", in_r1(vol, x))
print("generic (resonance is a proper subvariety):", is_generic(vol))

print("\n=== The product form of a circle with a genus-2 surface (n = 5) ===")
model = ThreeForm.product_form(2)
print("generic:", is_generic(model))
w0 = Subspace.coordinate(5, (0, 2))
w1 = Subspace.coordinate(5, (0, 1))
print("restriction rank on span(e1, e3):", restriction_rank(model, w0), "(0-isotropic)")
print("restriction rank on span(e1, e2):", restriction_rank(model, w1), "(1-isotropic)")

padded = ThreeForm(5, {(0, 1, 2): 1})
print("\nzero-padded volume form on n = 5 is generic:", is_generic(padded))

print("\n=== Isotropy search ===")
for g in (1, 2, 3):
    eta = ThreeForm.product_form(g)
    found = isotropy_lower_bound(eta, seed=0)
    print(f"  product form g={g} (n={eta.n}): isotropic subspace of dim {found.dimension}"
          f" via {found.method}")

# The same form in scrambled coordinates: no two coordinate vectors span an
# isotropic plane, but its linear factor (the pulled-back e7) still leads the
# search to the isotropy index g = 3, which equals the corank.
t = [[1, 1, -2, 0, 2, 1, 1], [0, 1, 0, 2, -1, 2, -1], [0, -1, -2, 2, 0, 2, 2],
     [-1, 0, -2, -2, 0, 1, 2], [-2, 0, 1, 0, 2, -1, 2], [1, 1, 2, 0, -2, 2, -2],
     [-2, 1, -2, 2, 1, 0, -1]]
scrambled = ThreeForm.product_form(3).transform(t)
found = isotropy_lower_bound(scrambled)
print(f"  scrambled product form g=3: isotropic subspace of dim {found.dimension}"
      f" via {found.method}; corank {corank_of_class(classify_malcev(scrambled))}")
print("  witness basis:", [[str(c) for c in v] for v in found.witness.basis])

print("\n=== Classification ===")
cases = [
    ("zero form, n = 0", ThreeForm.zero(0)),
    ("zero form, n = 4", ThreeForm.zero(4)),
    ("volume form, n = 3", vol),
    ("product form, n = 5", model),
    ("padded volume form, n = 5", padded),
    ("volume form inside n = 4", ThreeForm(4, {(0, 1, 2): 1})),
]
for label, eta in cases:
    verdict = classify_malcev(eta)
    if verdict.kind.value == "Obstructed":
        print(f"  {label:28s} -> Obstructed: {verdict.reason}")
    else:
        detail = verdict.rank if verdict.rank is not None else verdict.genus
        print(
            f"  {label:28s} -> {verdict.kind.value}({detail}), "
            f"corank {corank_of_class(verdict)}, isotropy index {verdict.isotropy_index}"
        )

print("\nNote: the verdict assumes the ambient group is 1-formal and quasi-Kahler.")
print("The Heisenberg nilmanifold has zero cup form with n = 2 but is not 1-formal,")
print("so Free(2) does not apply to it.")
