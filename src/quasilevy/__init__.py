"""Spectral quasi-Levy representations of discrete probability laws.

Compute, certify and manipulate the representation
f(t) = exp(i*t*gamma + sum_u lambda_u (e^(i*t*u) - 1)) for discrete laws
whose characteristic functions are separated from zero, together with
convergence and compactness checkers for families of such laws.
"""

from .calculus import (
    ConvPowerResult,
    ExpSeriesParams,
    compound_exp,
    conv_power,
    convolve_powers,
    is_infinitely_divisible,
    reconstruct_law,
)
from .charfn import (
    SeparationCertificate,
    SeparationParams,
    TorusFunction,
    certify_separation,
    cf_eval,
    dominant_mass_bound,
    torus_lift,
)
from .errors import (
    BasisMismatch,
    Diverged,
    DuplicateAtom,
    InvalidArgument,
    IrrationalSupport,
    LimitNotSeparated,
    MassSumNotOne,
    NegativeMass,
    NegativeMassBeyondTolerance,
    NonConvergent,
    NonpositiveTau,
    NotSeparated,
    ParseError,
    QuasiLevyError,
    StepTooCoarse,
    TripletFailed,
    ZeroOnPath,
)
from .limits import (
    ConvergenceVerdict,
    LawSequence,
    Thresholds,
    check_convergence,
    check_relative_compactness,
    check_stochastic_compactness,
    ell1_triplet_distance,
    eventually_in_DS_probe,
    frequency_universe,
    triplet_of,
    tv_distance,
)
from .measures import (
    DiscreteLaw,
    FrequencyBasis,
    ModuleDescription,
    SignedAtomicMeasure,
    SupportPoint,
    convolve,
    module_generator,
    reduce_support,
    total_variation,
    validate_law,
)
from .spectral import (
    MeanMotion,
    QuasiTriplet,
    SpectralFunction,
    TripletParams,
    cf_from_triplet,
    distinguished_log,
    extract_triplet,
    gamma_tau,
    levy_spectral_function,
    mean_motion,
    triplet_lattice,  # kept for the benchmark, which calls these two names; both are extract_triplet
    triplet_multibasis,
    truncate_renormalize,
    winding_number,
)

__version__ = "0.1.0"
