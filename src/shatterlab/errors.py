"""Semantic exception hierarchy shared by all shatterlab modules."""


class ShatterlabError(Exception):
    """Base class for all library errors."""


class NonIntegerReciprocal(ShatterlabError, ValueError):
    """A grid parameter whose reciprocal must be an integer is not."""


class DomainMismatch(ShatterlabError, ValueError):
    """Concepts or operators defined over different domains were mixed."""


class OutOfRange(ShatterlabError, ValueError):
    """A scalar parameter fell outside its documented range."""


class EmptySubset(ShatterlabError, ValueError):
    """A dimension query was made on an empty concept subset."""


class TooLarge(ShatterlabError, ValueError):
    """An input exceeds the guard limits of a brute-force routine."""


class InvalidFeedback(ShatterlabError, RuntimeError):
    """Feedback violated its accuracy contract during an online game."""


class InvalidTree(ShatterlabError, ValueError):
    """A shattering tree failed validation against its class."""


class DepthMismatch(ShatterlabError, ValueError):
    """A protocol instance asked for more tree depth than available."""


class NotNeighbors(ShatterlabError, ValueError):
    """Two samples handed to the DP tester do not differ in exactly one spot."""


class NonConvergence(ShatterlabError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class AllRunsFailed(ShatterlabError, RuntimeError):
    """Every run of a Monte Carlo experiment failed, so there is nothing to report."""


class NotPSD(ShatterlabError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class DimMismatch(ShatterlabError, ValueError):
    """Quantum objects of incompatible dimensions were combined."""


class ConfigError(ShatterlabError, ValueError):
    """An experiment configuration failed validation."""
