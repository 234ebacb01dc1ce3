"""Exact-arithmetic toolkit for representations of the special affine group
SAff_n(C) = SL_n(C) x C^n (semidirect): weight calculus, explicit matrix
models, socle/radical filtrations, and rationality decision procedures for
two-step extensions.
"""

from .schur import (
    Weight,
    WeightMultiset,
    check_lr_gap_bound,
    contains,
    dual,
    lr_decompose,
    normalize,
    pieri_sym,
    weyl_dim,
)
from .repclass import (
    BAD,
    GOOD,
    GOOD_HEURISTIC,
    StabilizerReport,
    bad_list,
    classify,
    stabilizer_dimension,
)
from .matmodel import (
    AffMatrixRep,
    dual_model,
    model_sym_dual,
    sl_only_model,
    tensor_model,
    validate_model,
)
from .filtration import (
    Filtration,
    check_blocks_containment,
    check_duality,
    check_embedding_theorem,
    identify_layers,
    radical_filtration,
    socle_filtration,
    verify_degree_bound,
)
from .rationality import (
    EXCEPTIONAL,
    POSSIBLY_NOT_GENERICALLY_FREE,
    RATIONAL_BY_A,
    RATIONAL_BY_B,
    TwoStepExtension,
    Verdict,
    check_generic_freeness,
    check_structural,
    decide_rationality,
)
from .catalog import enumerate_exceptional_candidates, irreps_up_to_dim
from .config import ModelInvariantError, ResourceCapError

__version__ = "0.1.0"
