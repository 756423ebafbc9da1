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

from .alexander import (
    AlexanderMatrix,
    AlmostPrincipalReport,
    ElementaryIdeal,
    IdentityCharacterError,
    alexander_matrix,
    almost_principal_sampled,
    elementary_ideal,
    elementary_ideal_vanishes_at,
    in_vd,
    sample_characters,
    twisted_h1_dim,
)
from .holonomy import (
    GradedRanks,
    QuadraticData,
    holonomy_from_threeform,
    lie_ranks,
    lyndon_words,
    wedge_basis,
)
from .laurent import (
    Character,
    LaurentPoly,
    cyclotomic_polynomial,
    euler_phi,
    evaluate,
    fold,
    gcd_all,
    normalize_unit,
    poly_to_string,
    try_divide,
)
from .presentation import (
    Abelianization,
    Presentation,
    PresentationParseError,
    SmithNormalForm,
    Word,
    abelianization,
    format_presentation,
    format_word,
    fox_derivative,
    parse_presentation,
    parse_word,
    presentation_from_json,
    smith_normal_form,
    word_image,
)
from .resonance import (
    IsotropyWitness,
    MalcevClass,
    MalcevKind,
    R1FullnessReport,
    Subspace,
    ThreeForm,
    classify_malcev,
    contraction_matrix,
    corank_of_class,
    in_r1,
    is_generic,
    is_isotropic,
    isotropy_lower_bound,
    r1_fullness,
    restriction_rank,
    zero_vector_in_r1,
)
from .seifert import (
    BrieskornInput,
    ComponentReport,
    IntegralityError,
    Orbit,
    SeifertData,
    TangentConeReport,
    TorsionData,
    brieskorn_seifert,
    integer_obstruction,
    is_one_formal_link,
    tangent_cone_report,
    torsion_data,
    v1_components,
)

__version__ = "0.1.0"
