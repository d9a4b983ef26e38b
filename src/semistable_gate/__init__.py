"""Exact thresholds, congruence gates and verdict certificates for
semistable Galois representation families."""

__version__ = "0.1.0"

from .bounds import (
    DerivedConstants,
    FieldInvariants,
    PrimeSituation,
    RepFamilyParams,
    Verdict,
    central_binomial,
    decide_cor1,
    decide_cor2,
    decide_ec_irred,
    decide_etale,
    decide_rt,
    decide_trivial,
    derived_constants,
    ec_irred_thresholds,
    etale_thresholds,
    lemma_bound,
    parity_obstruction,
    rt_thresholds,
)
from .gate import (
    CongruenceInstance,
    GateOutcome,
    GateVerdict,
    counterexample_search,
    forced_equality,
    symmetric_congruence,
)
from .intpoly import (
    IntPolynomial,
    PowerSums,
    from_power_sums,
    from_prime_power_roots,
    power_sums,
    power_transform,
)
from .tame import (
    TameCharacterExponent,
    canonical_exponent,
    caruso_range_check,
    digit_weights,
    frobenius_orbit,
    is_uniform,
    level_one_norm_exponent,
)
from .weil import (
    WeilDatum,
    enumerate_weil_quadratics,
    functional_equation_check,
    validate_weights,
)
