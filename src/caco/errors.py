"""Exception types shared across the package."""


class CacoError(Exception):
    """Base class for all package errors."""


class ContractError(CacoError):
    """A documented precondition was violated by the caller."""


class DimensionError(ContractError):
    """Operand shapes are incompatible."""


class ParameterError(ContractError):
    """A scalar parameter is outside its valid range."""


class DegenerateEmbeddingError(CacoError):
    """A vector with (near-)zero norm cannot be normalized."""


class NonFiniteError(CacoError):
    """A value that must be finite is NaN or infinite, or overflows to infinity."""


class NotWarmError(CacoError):
    """The categorical dictionary does not yet hold a full group per slot."""


class DivergenceError(CacoError):
    """A training step produced a non-finite value; carries the epoch and the step within it."""

    def __init__(self, epoch: int, step: int, cause: str):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {cause}")
        self.epoch = epoch
        self.step = step
