"""Exception types shared across the package."""


class KVDiffError(Exception):
    """Base class for all package errors."""


class InvalidInput(KVDiffError):
    pass


class NumericalFailure(KVDiffError):
    pass


class UnknownToken(KVDiffError):
    def __init__(self, word):
        super().__init__(f"unknown token: {word!r}")
        self.word = word


class NoRareToken(KVDiffError):
    pass


class DivergenceError(KVDiffError):
    pass


class DegenerateRegularization(KVDiffError):
    pass


class SingularTargetSystem(KVDiffError):
    pass


class CorruptCheckpoint(KVDiffError):
    pass


class EmptyRegularizationSetWarning(UserWarning):
    """No pool caption cleared the similarity threshold; training may proceed without regularization."""
