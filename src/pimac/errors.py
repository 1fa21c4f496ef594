"""Exception types shared across the package."""


class PimacError(ValueError):
    """Base class for every error raised by this package."""


class DomainError(PimacError):
    """An argument lies outside an operation's mathematical domain."""


class InvalidRegimeError(PimacError):
    """The parameters violate the validity condition of a closed-form bound."""


class ConstraintError(PimacError):
    """A point violates an explicit feasibility constraint."""


class NumericError(PimacError):
    """A numerical evaluation produced an unusable result."""


class InfeasibleError(PimacError):
    """No feasible finite candidate point was found."""


class ContractError(PimacError):
    """Required data is missing from a structure passed between stages."""
