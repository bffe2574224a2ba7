"""Shared exception types."""


class TreePolymerError(Exception):
    """Base class for package errors."""


class BudgetExceeded(TreePolymerError):
    """Requested tree or experiment exceeds the configured node budget."""


class CoupledLaw(TreePolymerError):
    """Operation requires independent radius/phase but the law is coupled."""


class NoBracket(TreePolymerError):
    """Root finder found no sign change below the search cap."""


class DomainError(TreePolymerError):
    """Argument outside the operation's mathematical domain."""


class ConfigError(TreePolymerError):
    """Invalid run configuration."""
