"""Conditional performance measures on finite scenario trees.

The package splits into layers: ``lattice`` holds the filtered spaces and
random variables, ``measures`` the performance functionals and their
property checks, ``risk_family`` the induced risk machinery (bisection,
closed forms, reconstruction, duality), ``dynamics`` the time-consistency
checks, and ``dividends`` the lift to payment streams.
"""

from .lattice import (INF, EventMask, FilteredSpace, TVar, XVar, atom_expect,
                      binomial_tree, close_or_both_inf, coin2, cond_expect,
                      dump_json, ess_inf, ess_sup, ext_add, ext_mul, ext_sub,
                      num_from_json, num_to_json, paste, random_tree,
                      sample_xvar)
from .measures import (AVaRTruncDenominator, CertaintyEquivalentMeasure,
                       ConditionalExpectation, CustomMeasure,
                       ExpectedUtilityMeasure, ExponentialUtilityMeasure,
                       GainLossRatio, LPMDenominator, PerformanceMeasure,
                       RewardRiskRatio, UtilitySpec, check_axioms,
                       check_scale_invariance, evaluate, lpm_ratio,
                       measure_from_json, raroc)
from .risk_family import (DualMeasure, RiskCurve, RiskPoint, StandardFamily,
                          closure_check, entropic_closed_form,
                          entropic_family, glr_dual_risk, induce_risk,
                          induced_family, penalty_lower_bound, reconstruct,
                          risk_curve, sample_glr_density,
                          truncation_limit_check, validate_standard_family,
                          weak_duality_probe)
from .dynamics import (ConsistencyReport, DynamicMeasure,
                       check_penalty_inequality_coherent,
                       check_riskaversion_monotone_consistency,
                       check_time_consistency, globalize_witness,
                       search_counterexample, verify_witness)
from .dividends import (DividendProcess, check_lift_axioms,
                        check_lift_time_consistency, lift_evaluate,
                        sample_dividend)
from .report import CheckResult, Report
from .util import derived_rng
from . import simplex  # noqa: F401  (a placeholder the benchmark tracer looks up)

__version__ = "0.1.0"

__all__ = [
    "INF", "EventMask", "FilteredSpace", "TVar", "XVar",
    "atom_expect", "binomial_tree", "close_or_both_inf", "coin2",
    "cond_expect", "dump_json", "ess_inf", "ess_sup", "ext_add", "ext_mul",
    "ext_sub", "num_from_json", "num_to_json", "paste", "random_tree",
    "sample_xvar",
    "AVaRTruncDenominator", "CertaintyEquivalentMeasure",
    "ConditionalExpectation", "CustomMeasure", "ExpectedUtilityMeasure",
    "ExponentialUtilityMeasure", "GainLossRatio", "LPMDenominator",
    "PerformanceMeasure", "RewardRiskRatio", "UtilitySpec", "check_axioms",
    "check_scale_invariance", "evaluate", "lpm_ratio", "measure_from_json",
    "raroc",
    "DualMeasure", "RiskCurve", "RiskPoint", "StandardFamily",
    "closure_check", "entropic_closed_form", "entropic_family",
    "glr_dual_risk", "induce_risk", "induced_family", "penalty_lower_bound",
    "reconstruct", "risk_curve", "sample_glr_density",
    "truncation_limit_check", "validate_standard_family",
    "weak_duality_probe",
    "ConsistencyReport", "DynamicMeasure",
    "check_penalty_inequality_coherent",
    "check_riskaversion_monotone_consistency", "check_time_consistency",
    "globalize_witness", "search_counterexample", "verify_witness",
    "DividendProcess", "check_lift_axioms", "check_lift_time_consistency",
    "lift_evaluate", "sample_dividend",
    "CheckResult", "Report", "derived_rng",
    "__version__",
]
