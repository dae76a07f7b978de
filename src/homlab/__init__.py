"""homlab: a finite-model laboratory for twisted algebraic identities.

Evaluates all ten twisted-associativity and ten twisted-Jacobi identity
types on finite carriers, searches exhaustively for countermodels to
inter-type implications, and bundles the catalog of small structures that
settle the unital hierarchy.
"""

from .carriers import (
    DEFAULT_PRIME,
    FieldHomAlgebra,
    FiniteHomMagma,
    WeakUnitWitness,
    algebra_from_dict,
    algebra_to_dict,
    cyclic_group_magma,
    from_relations,
    linearize,
    magma_from_dict,
    magma_to_dict,
    new_algebra,
    new_magma,
    weak_left_unit,
)
from .errors import (
    AlphaNotInvertible,
    ConflictingRelation,
    CyclicNotSupportedOnMagma,
    HomLabError,
    HypothesisNotMet,
    IdentitySyntaxError,
    IndexOutOfRange,
    InvariantViolation,
    NonMultilinearIdentity,
    NotSApplicable,
    NotWeaklyUnital,
    RelationSyntaxError,
    SkewViolation,
    StructureError,
    UnitLawViolation,
    UnitRequired,
    UnknownVariable,
    ZeroLawViolation,
)
from .evaluate import (
    TypeProfile,
    central_series,
    cyclic_sum,
    first_violation,
    first_violation_multilinear,
    holds,
    holds_multilinear,
    identity_gap,
    is_lie,
    is_morphism,
    jacobiator,
    morphism_defect,
    twisted_bracket,
    type_defect,
    type_profile,
)
from .hierarchy import (
    IMPLICATION_EDGES,
    LEMMAS,
    SUSPECT_EDGES,
    Fixture,
    counterexample_fixtures,
    inverse_twist_check,
    lemma_equalities,
    verify_fixture,
    verify_hierarchy,
)
from .liecheck import (
    abelian_algebra,
    expansion_residuals,
    heisenberg_algebra,
    hom_iii_by_kernel_algebra,
    i1_not_i2_algebra,
    lie_fixtures,
    nonlie_hom_iii_algebra,
    self_adjointness_probe,
    sl2_algebra,
    solvable2_algebra,
    solvable_morphism_algebra,
    sweep_jacobiator_sums,
    verify_jacobiator_sums,
    verify_lie_type_implications,
    verify_twisted_bracket_lie,
)
from .search import (
    SearchSpec,
    Verdict,
    canonical_form,
    enumerate_models,
    find_model,
    model_key,
    spec_from_dict,
    spec_to_dict,
    verdict_to_dict,
    verify_implication,
)
from .terms import (
    ALL_TAGS,
    ASSOC_TAGS,
    LIE_TAGS,
    TYPE_NAMES,
    Identity,
    Prod,
    Term,
    Twist,
    TypeTag,
    Unit,
    Var,
    builtin,
    parse_identity,
    render_identity,
    s_transform,
    tag_from_string,
)

__version__ = "0.1.0"
