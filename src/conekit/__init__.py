"""Positive-cone calculus on finite direct sums of matrix algebras.

The package models algebras that are direct sums of full matrix blocks,
their positive cones, block-supported two-sided ideals, and the surjective
*-morphisms between such algebras; on top of that sit finite directed towers
whose projective limits carry the same calculus levelwise.  Randomized
verification suites with deterministic, replayable reports are available
programmatically (``run_suite``) and through the ``conekit`` command.
"""

from .algebra import (
    AlgElement,
    FdAlgebra,
    SpectrumReport,
    cstar_norm,
    is_positive,
    pos_neg_parts,
    positivity_defect,
    positivity_witness_check,
    spectrum,
    sqrt_positive,
)
from .errors import (
    ConvergenceError,
    DecodeError,
    RejectedInputError,
    UnsupportedInputError,
)
from .generate import (
    Instance,
    InstanceSpec,
    check_instance,
    gen_instance,
    instance_payload,
)
from .linalg import (
    DEFAULT_TOL,
    CMatrix,
    EigResult,
    apply_spectral,
    eig_hermitian,
    operator_norm,
)
from .morphisms import (
    BlockIdeal,
    StarMorphism,
    compose,
    decompose_positive,
    full_ideal,
    ideal_intersection,
    ideal_sum,
    restrict_to_blocks,
    zero_ideal,
)
from .rng import GENERATOR_NAME, SplitMix64, derive_seed
from .suites import SuiteParams, render_report, run_suite
from .towers import (
    CoherentElement,
    CoherentIdeal,
    DirectedSystem,
    SystemReport,
    chain_system,
    coherence_defect,
    coherent_from_top,
    coherent_ideal_sum,
    ideal_from_top,
    is_coherent,
    limit_decompose_positive,
    limit_is_positive,
    limit_positivity_defect,
    system_validate,
)

__version__ = "0.1.0"
