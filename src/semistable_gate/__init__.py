"""Exact thresholds, congruence gates and verdict certificates for
semistable Galois representation families."""

__version__ = "0.1.0"

from .bounds import (
    DerivedConstants,
    FieldInvariants,
    PrimeSituation,
    RepFamilyParams,
    Setting,
    Verdict,
    central_binomial,
    cor1_setting,
    cor2_setting,
    decide,
    decide_cor1,
    decide_cor2,
    decide_ec_irred,
    decide_etale,
    decide_rt,
    decide_trivial,
    derived_constants,
    ec_irred_setting,
    etale_setting,
    least_empty_prime,
    lemma_bound,
    parity_obstruction,
    rt_setting,
    trivial_setting,
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
    digit_weights,
    frobenius_orbit,
)
from .weil import (
    WeilDatum,
    enumerate_weil_quadratics,
    functional_equation_check,
    validate_weights,
)
