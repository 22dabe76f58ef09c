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

from fqtraces.specializations import Specialization
from fqtraces.symfunc import kostka, kostka_foulkes
from fqtraces.traces import (
    UNIT,
    branching_predecessors,
    family,
    green_dimension,
    trace_coefficients,
    unipotent_trace_value,
)
from fqtraces.measures import MeasureParams, cyl_prob, sample_trajectory

__all__ = [
    "MeasureParams",
    "Specialization",
    "UNIT",
    "branching_predecessors",
    "cyl_prob",
    "family",
    "green_dimension",
    "kostka",
    "kostka_foulkes",
    "sample_trajectory",
    "trace_coefficients",
    "unipotent_trace_value",
]
