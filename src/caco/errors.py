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


class NotWarmError(CacoError):
    """The categorical dictionary does not yet hold a full group per slot."""


class DivergenceError(CacoError):
    """A training step's loss is not finite; carries the epoch and the step within it."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: loss {loss}")
        self.epoch = epoch
        self.step = step
