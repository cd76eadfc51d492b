"""Exception types raised by the nordenhs library, one per CLI exit code."""


class NordenError(Exception):
    """Base class for all nordenhs errors, and the type of every error that
    is neither a malformed file nor a non-diagonalizable operator."""


class NotHDiagonalizable(NordenError):
    """No adapted eigenbasis exists (isotropic or defective eigenspace)."""


class FormatError(NordenError):
    """Malformed input file."""
