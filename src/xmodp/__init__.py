"""Crossed modules over a fixed finite base group.

Tools for building and validating crossed modules, computing their limits
and colimits with exhaustively verified universal properties, working with
free objects through symbolic words, and embedding everything into
set-valued presheaves on a finite site where fullness, faithfulness, and
exactness can be checked by enumeration.
"""

from .errors import *  # noqa: F401,F403
from .groups import (  # noqa: F401
    Group,
    GroupHom,
    automorphism_group,
    cyclic_group,
    enumerate_homs,
    klein_four_group,
    make_group,
    make_hom,
    normal_closure,
    quotient_group,
    symmetric_group_3,
    trivial_group,
)
from .xmod import (  # noqa: F401
    Action,
    CrossedModule,
    XModMorphism,
    all_crossed_modules,
    automorphism_xmod,
    central_extension_xmod,
    central_image_xmod,
    compose_xmod_morphisms,
    conjugation_xmod,
    crossed_module_violations,
    enumerate_morphisms,
    identity_xmod_morphism,
    make_crossed_module,
    make_xmod_morphism,
    trivial_action,
    trivial_xmod,
    validate_crossed_module,
    validate_morphism,
)
from .limits import (  # noqa: F401
    Cocone,
    Cone,
    EquivalenceRelation,
    coequaliser,
    default_catalogue,
    equaliser,
    image_factorization,
    is_effective,
    is_equivalence_relation,
    kernel_pair,
    kernel_pair_relation,
    product_over_P,
    pullback,
    quotient_by_equivalence,
    relation_xmod,
    terminal_object,
    verify_coequaliser,
    verify_equaliser,
    verify_kernel_pair,
    verify_product,
    verify_pullback,
    verify_quotient,
)
from .words import (  # noqa: F401
    FreeObject,
    Site,
    SiteMorphism,
    SiteObject,
    Word,
    build_site,
    compose_site_morphisms,
    evaluate_word,
    hom_set,
    labelling,
    make_free_object,
    make_word,
    singly_generated_hom,
    word_boundary,
)
from .presheaf import (  # noqa: F401
    NaturalTransformation,
    Presheaf,
    check_naturality,
    compute_presheaf,
    enumerate_natural_transformations,
    functor_on_morphism,
    generator_witness,
    reconstruct_morphism,
    verify_coequaliser_preserved,
    verify_equaliser_preserved,
    verify_full_faithful,
    verify_product_preserved,
)
from .session import (  # noqa: F401
    Session,
    SessionOptions,
    parse_session,
    run_command,
    serialize_session,
)

__version__ = "0.1.0"
