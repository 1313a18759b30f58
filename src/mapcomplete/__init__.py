"""Completion of metric mappings over exact rational arithmetic.

A metric mapping is a map f from a carrier X into a base space Y together
with a pseudometric d on X that restricts to a genuine metric on every
fiber. This package represents points of the completed space as
modulus-carrying Cauchy sequences tied to a base point, evaluates the
completed distance to any requested precision with a certificate, and
decides the relevant properties exactly on finite instances: completeness
in polynomial time, by the filter criterion over singletons and by the
tied-sequence criterion over zero classes, and the cluster/limit identity
over the singletons and zero-distance pairs of each T_y.
"""

from .base_topology import (
    BasePoint,
    FiniteBase,
    OnePointBase,
    RationalInterval,
    RationalOrderBase,
    validate_basis,
)
from .completion import (
    CompletionPoint,
    RegularCompletionSeq,
    const_completion_seq,
    density_witness,
    dstar_approx,
    embed,
    fstar,
    lift_seq,
    limit_point,
)
from .errors import EvaluatorError, InputError, Violation, WitnessError
from .finite_oracle import (
    FiniteCompletion,
    OracleVerdict,
    cluster_and_limit_sets,
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
    zero_classes,
)
from .metric_mapping import (
    Carrier,
    CarrierPoint,
    FiniteCarrier,
    MetricMapping,
    RationalGridCarrier,
    RationalIntervalCarrier,
    abs_diff_mapping,
    closure_finite,
    max_metric_mapping,
    table_mapping,
    validate_fiberwise_metric,
    validate_pseudometric,
)
from .tied_cauchy import (
    RegularSeq,
    TiedCauchySeq,
    TyingWitness,
    check_regularity,
    check_tying,
    const_seq,
    newton_sqrt_seq,
    table_seq,
)

__version__ = "0.1.0"

__all__ = [
    "BasePoint",
    "Carrier",
    "CarrierPoint",
    "CompletionPoint",
    "EvaluatorError",
    "FiniteBase",
    "FiniteCarrier",
    "FiniteCompletion",
    "InputError",
    "MetricMapping",
    "OnePointBase",
    "OracleVerdict",
    "RationalGridCarrier",
    "RationalInterval",
    "RationalIntervalCarrier",
    "RationalOrderBase",
    "RegularCompletionSeq",
    "RegularSeq",
    "TiedCauchySeq",
    "TyingWitness",
    "Violation",
    "WitnessError",
    "abs_diff_mapping",
    "check_regularity",
    "check_tying",
    "closure_finite",
    "cluster_and_limit_sets",
    "const_completion_seq",
    "const_seq",
    "density_witness",
    "dstar_approx",
    "embed",
    "finite_completion",
    "fstar",
    "is_complete_filter",
    "is_complete_net",
    "lemma2_check",
    "lift_seq",
    "limit_point",
    "max_metric_mapping",
    "newton_sqrt_seq",
    "random_instance",
    "table_mapping",
    "table_seq",
    "validate_basis",
    "validate_fiberwise_metric",
    "validate_pseudometric",
    "zero_classes",
]
