"""Exception types shared across the package."""


class ChoiceModelError(ValueError):
    """Invalid query against a choice model (unknown option, untabulated assortment)."""


class UnsupportedOracleError(RuntimeError):
    """The requested assortment oracle has no exact method for this model/size."""


class SizeRefusalError(RuntimeError):
    """An exact solver or table refused an instance that exceeds its size limit."""


class ContractViolationError(RuntimeError):
    """A policy returned an action that violates the engine contract."""


class ParseError(ValueError):
    """A serialized instance failed validation; message carries field context."""


class TimeLimitError(RuntimeError):
    """Cooperative time limit reached inside a solver loop."""
