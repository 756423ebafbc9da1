"""Exact membership tests for degree-1 cohomology jump loci.

A finite-order character chi on the maximal torus either raises twisted
cohomology or it does not; both the rank criterion (exact cyclotomic linear
algebra) and the elementary-ideal criterion answer the question, and they
must agree.  The demo also runs the sampled consistency check that the
first ideal behaves like a principal one away from the identity.
"""

from jumploci import (
    Character,
    alexander_matrix,
    almost_principal_sampled,
    elementary_ideal,
    elementary_ideal_vanishes_at,
    evaluate,
    in_vd,
    parse_presentation,
    poly_to_string,
    sample_characters,
    twisted_h1_dim,
)

trefoil = parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>")
a = alexander_matrix(trefoil)
delta = a.delta
print(f"trefoil Delta = {poly_to_string(delta)}")

print("\nmembership of selected characters (order m, t -> zeta_m^e):")
for order, exp in ((6, 1), (2, 1), (3, 1), (6, 5), (12, 2)):
    chi = Character(order, (exp,))
    h1 = twisted_h1_dim(trefoil, chi)
    member = in_vd(trefoil, chi, 1)
    value = evaluate(delta, chi)
    print(
        f"  m={order:2d} e={exp}:  dim H^1 = {h1},  in V_1: {member},  "
        f"Delta(chi) = 0: {not any(value)}"
    )

print("\ncross-validation on 25 random characters (rank test vs ideal test):")
agreements = 0
for chi in sample_characters(1, 25, seed=11):
    if in_vd(trefoil, chi, 1) == elementary_ideal_vanishes_at(a, 1, chi):
        agreements += 1
print(f"  {agreements}/25 agree")

print("\nsampled almost-principality consequence check:")
report = almost_principal_sampled(a, trials=200, seed=5)
print(
    f"  {report.trials} trials, seed {report.seed}: "
    f"{'no counterexamples' if report.consistent else report.counterexamples}"
)

print("\nthe same machinery on a genus-2 surface group:")
surface = parse_presentation("<x1, y1, x2, y2 | [x1,y1] [x2,y2]>")
sa = alexander_matrix(surface)
print(f"  E1 is the zero ideal: {elementary_ideal(sa, 1).is_zero}")
chi = Character(3, (1, 0, 2, 0))
print(f"  a nontrivial character has dim H^1 = {twisted_h1_dim(surface, chi)}")
print(f"  so all of the torus lies in V_1: {in_vd(surface, chi, 1)}")
