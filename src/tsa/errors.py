"""Exception types shared across the package, and the one size-refusal rule."""

from decimal import Decimal


class ChoiceModelError(ValueError):
    """Invalid query against a choice model (unknown option, untabulated assortment)."""


class UnsupportedOracleError(RuntimeError):
    """The requested quantity has no exact method for the instance's choice models."""


class SizeRefusalError(RuntimeError):
    """An exact solver or table refused an instance that exceeds its size limit."""


def _short(count: int) -> str:
    """``count`` in full up to 15 digits, else 2^k or to 3 significant digits."""
    if count < 10 ** 15:
        return str(count)
    if count & (count - 1) == 0:
        return f"2^{count.bit_length() - 1}"
    return f"{Decimal(count):.2e}".replace("e+", "e")


def refuse_past(what: str, count: int, limit: int, unit: str) -> None:
    """Raise ``SizeRefusalError`` "<what> refuses <count> <unit> > <limit>" when
    ``count`` exceeds ``limit``; a unit starting with "-" joins the count."""
    if count > limit:
        sep = "" if unit.startswith("-") else " "
        raise SizeRefusalError(f"{what} refuses {_short(count)}{sep}{unit} > {_short(limit)}")


class ContractViolationError(RuntimeError):
    """A policy returned an action that violates the engine contract."""


class ParseError(ValueError):
    """A serialized instance failed validation; message carries field context."""


class TimeLimitError(RuntimeError):
    """Cooperative time limit reached inside a solver loop."""
