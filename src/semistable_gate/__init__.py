"""Exact thresholds, congruence gates and verdict certificates for
semistable Galois representation families.

The exported names resolve lazily (PEP 562): importing the package loads
none of its modules, and a name's first use imports only the module that
defines it, so each CLI command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bounds": """DerivedConstants FieldInvariants PrimeSituation RepFamilyParams Setting
        Verdict central_binomial cor1_setting cor2_setting decide decide_cor1 decide_cor2
        decide_ec_irred decide_etale decide_rt decide_trivial derived_constants
        ec_irred_setting etale_setting least_empty_prime lemma_bound parity_obstruction
        rt_setting trivial_setting""",
    "gate": """CongruenceInstance GateOutcome GateVerdict counterexample_search
        forced_equality symmetric_congruence""",
    "intpoly": """IntPolynomial PowerSums from_power_sums from_prime_power_roots power_sums
        power_transform""",
    "tame": "TameCharacterExponent canonical_exponent digit_weights frobenius_orbit",
    "weil": "WeilDatum enumerate_weil_quadratics functional_equation_check validate_weights",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
