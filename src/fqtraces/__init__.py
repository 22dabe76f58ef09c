"""Exact computations around invertible matrices over small finite fields.

The package has three layers:

* formula layer -- partition combinatorics (:mod:`fqtraces.partitions`),
  an exact symmetric-function engine in the power-sum basis
  (:mod:`fqtraces.symfunc`, :mod:`fqtraces.specializations`), and the
  closed-form character/dimension quantities built on top of it
  (:mod:`fqtraces.traces`);
* probabilistic layer -- central measures on infinite unipotent
  upper-triangular matrices, their exact cylinder probabilities, the
  class-level growth chain and seeded Monte Carlo experiments
  (:mod:`fqtraces.measures`);
* oracle layer -- brute-force linear algebra over explicit small fields
  (:mod:`fqtraces.oracle`) used by the verification suites in
  :mod:`fqtraces.verify` to cross-check every formula.

All values outside Monte Carlo summary statistics are exact
`fractions.Fraction` / integer arithmetic.
"""

from fqtraces.partitions import (
    addable_corners,
    dominance_leq,
    hook_lengths,
    n_stat,
    partitions_of,
    transpose,
    z_factor,
)
from fqtraces.specializations import GeometricSpread, Specialization
from fqtraces.symfunc import (
    PowerSumElement,
    hl_q_in_p,
    kostka,
    kostka_foulkes,
    modified_hl_q,
    plethysm_pl,
    schur_expand,
    schur_in_p,
)
from fqtraces.traces import (
    UNIT,
    DiagramFamily,
    GLUTraceParams,
    biregular_coefficient,
    branching_predecessors,
    family,
    glu_trace_coefficients,
    green_dimension,
    sp_principal_schur,
    trace_coefficients,
    unipotent_block_value,
    unipotent_trace_value,
)
from fqtraces.measures import (
    MeasureParams,
    cyl_prob,
    cyl_prob_from_trace,
    extension_count,
    lln_experiment,
    sample_trajectory,
    transition_prob,
)

__all__ = [
    "DiagramFamily",
    "GLUTraceParams",
    "GeometricSpread",
    "MeasureParams",
    "PowerSumElement",
    "Specialization",
    "UNIT",
    "family",
    "addable_corners",
    "biregular_coefficient",
    "branching_predecessors",
    "cyl_prob",
    "cyl_prob_from_trace",
    "dominance_leq",
    "extension_count",
    "glu_trace_coefficients",
    "green_dimension",
    "hl_q_in_p",
    "hook_lengths",
    "kostka",
    "kostka_foulkes",
    "lln_experiment",
    "modified_hl_q",
    "n_stat",
    "partitions_of",
    "plethysm_pl",
    "sample_trajectory",
    "schur_expand",
    "schur_in_p",
    "sp_principal_schur",
    "trace_coefficients",
    "transition_prob",
    "transpose",
    "unipotent_block_value",
    "unipotent_trace_value",
    "z_factor",
]
