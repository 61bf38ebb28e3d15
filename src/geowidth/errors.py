"""Exception types shared across the package."""


class GeowidthError(Exception):
    """Base class for all library errors."""


class ModelMismatchError(GeowidthError):
    """A point was used with a space of a different model kind."""


class InvalidPointError(GeowidthError):
    """A point references unknown structure (e.g. an edge not in the tree)."""


class DomainError(GeowidthError, ValueError):
    """A numeric parameter is outside its allowed range."""


class AlphabetMismatchError(GeowidthError):
    """Two words (or a word and a representation) use different alphabets."""


class CapabilityError(GeowidthError):
    """The operation is not supported for this space or group family."""


class PreconditionError(GeowidthError):
    """A stated mathematical precondition fails; the message names the criterion."""


class ConfigError(GeowidthError):
    """Missing or inconsistent configuration (e.g. constants for 'bound' policy)."""

