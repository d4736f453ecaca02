"""Shared exception types and the default work budget."""

# cap on the entries one enumeration or table may allocate
DEFAULT_BUDGET = 10**8


class BudgetError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class CapabilityError(RuntimeError):
    """The requested computation is outside the supported parameter range."""
