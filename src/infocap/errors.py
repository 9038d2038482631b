"""Exception types raised across the package."""


class InfocapError(ValueError):
    """Base class for all argument and state errors raised by infocap."""


class NonSquareError(InfocapError):
    pass


class NonHermitianError(InfocapError):
    pass


class NotPSDError(InfocapError):
    pass


class NonUnitDiagonalError(InfocapError):
    pass


class DimensionMismatchError(InfocapError):
    pass


class GramNotPSDError(InfocapError):
    pass


class CutoffTooSmallError(InfocapError):
    pass


class ParamOutOfRangeError(InfocapError):
    pass


class ZeroProjectionError(InfocapError):
    pass


class NonFiniteError(InfocapError):
    """A computed value that should be a finite number is not."""


class FileFaultError(InfocapError):
    """A file cannot be read, written or decoded."""


class InvalidPOVMError(InfocapError):
    pass


class MixedStateOverlapError(InfocapError):
    """Overlap membership is defined for pure ensembles only."""


class MissingContextError(InfocapError):
    """A membership check needs side information that was not supplied."""


class NonScalarParameterError(InfocapError):
    """Branch assumptions cannot be averaged over a single scalar."""
