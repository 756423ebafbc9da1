"""Exact-arithmetic invariants of 3-manifold groups and singularity links.

The package computes, over Z and Q with no floating point anywhere:

* Laurent polynomial arithmetic, gcds up to units, and evaluation at
  finite-order characters (`laurent`);
* group presentation parsing, Smith normal forms, abelianizations, and free
  differential calculus (`presentation`);
* Alexander matrices, elementary ideals, Alexander polynomials, and exact
  jump-locus membership tests (`alexander`);
* resonance and isotropy of rational alternating 3-forms, with the Malcev
  classification of the associated groups (`resonance`);
* Seifert data of Brieskorn links, torsion invariants, translated component
  counts, formality and tangent-cone verdicts (`seifert`);
* graded ranks of holonomy Lie algebras from Lyndon-word counts and exact
  ideal ranks (`holonomy`).

The `jumploci` console script surfaces all of it with reproducible JSON
output; see the README for the file grammars.
"""

from importlib import import_module

# each public name by the submodule that defines it.  A name is imported on
# first access (PEP 562), so `import jumploci.cli` loads no computing module
_EXPORTS = {
    "alexander": (
        "AlexanderMatrix", "AlmostPrincipalReport", "ElementaryIdeal", "IdentityCharacterError",
        "alexander_matrix", "almost_principal_sampled", "elementary_ideal",
        "elementary_ideal_vanishes_at", "in_vd", "sample_characters", "twisted_h1_dim",
    ),
    "holonomy": (
        "GradedRanks", "QuadraticData", "holonomy_from_threeform", "lie_ranks", "lyndon_words",
        "wedge_basis",
    ),
    "laurent": (
        "Character", "LaurentPoly", "cyclotomic_polynomial", "euler_phi", "evaluate", "fold",
        "gcd_all", "normalize_unit", "poly_to_string", "try_divide",
    ),
    "presentation": (
        "Abelianization", "Presentation", "PresentationParseError", "SmithNormalForm", "Word",
        "abelianization", "format_presentation", "format_word", "fox_derivative",
        "parse_presentation", "parse_word", "presentation_from_json", "smith_normal_form",
        "word_image",
    ),
    "resonance": (
        "IsotropyWitness", "MalcevClass", "MalcevKind", "R1FullnessReport", "Subspace",
        "ThreeForm", "classify_malcev", "contraction_matrix", "corank_of_class", "in_r1",
        "is_generic", "is_isotropic", "isotropy_lower_bound", "r1_fullness",
        "restriction_rank", "zero_vector_in_r1",
    ),
    "seifert": (
        "BrieskornInput", "ComponentReport", "IntegralityError", "Orbit", "SeifertData",
        "TangentConeReport", "TorsionData", "brieskorn_seifert", "integer_obstruction",
        "is_one_formal_link", "tangent_cone_report", "torsion_data", "v1_components",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the six submodules and their exports: what `from jumploci import *` binds
__all__ = sorted([*_EXPORTS, *_SOURCE])

__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here, so a name patched on its submodule is seen here too
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
