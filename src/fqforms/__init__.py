"""Definite quadratic forms over F_q[t].

Exact arithmetic for binary (and small-rank) quadratic forms over the
polynomial ring A = F_q[t], q an odd prime: reduction and successive minima,
representation sets, local invariants and genera, class-number tables,
and Picard-group arithmetic on the associated quadratic orders, together
with exhaustive empirical verification sweeps and a CLI.
"""

from .classify import ClassTable, class_number, class_table, enumerate_forms
from .errors import BudgetError, CapabilityError
from .ffpoly import Field, Poly, SquareClass, prime_field
from .localgenus import (
    INFINITY,
    GenusSymbol,
    JordanInvariant,
    hasse_invariant,
    hilbert_symbol,
    jordan_invariants,
    local_represents,
    same_genus,
)
from .picard import (
    MumfordDivisor,
    cantor_add,
    comp_sequence_check,
    pic_group,
    pic_order,
    pic_order_with_conductor,
)
from .qform import (
    Form,
    Transformation,
    equivalent,
    norm_form,
    properly_equivalent,
    reduce,
    successive_minima,
)
from .repset import RepSet, distinguishing_degree, rep_numbers, represents, repset_upto
from .verify import Report, SweepConfig, Violation, run_check

__all__ = [
    "BudgetError",
    "CapabilityError",
    "ClassTable",
    "Field",
    "Form",
    "GenusSymbol",
    "INFINITY",
    "JordanInvariant",
    "MumfordDivisor",
    "Poly",
    "RepSet",
    "Report",
    "SquareClass",
    "SweepConfig",
    "Transformation",
    "Violation",
    "cantor_add",
    "class_number",
    "class_table",
    "comp_sequence_check",
    "distinguishing_degree",
    "enumerate_forms",
    "equivalent",
    "hasse_invariant",
    "hilbert_symbol",
    "jordan_invariants",
    "local_represents",
    "norm_form",
    "pic_group",
    "pic_order",
    "pic_order_with_conductor",
    "prime_field",
    "properly_equivalent",
    "reduce",
    "rep_numbers",
    "represents",
    "repset_upto",
    "run_check",
    "same_genus",
    "successive_minima",
]
