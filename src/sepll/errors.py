"""Exception hierarchy mapped onto process exit codes."""

from __future__ import annotations


class SepllError(Exception):
    """Base class; exit code 1 unless a subclass overrides it."""

    exit_code = 1


class ConfigError(SepllError):
    """Bad usage or configuration."""

    exit_code = 1


class WriteError(SepllError):
    """An artifact that could not be written."""

    exit_code = 1


class DataError(SepllError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class NumericalError(SepllError):
    """Non-finite values produced during numeric work."""

    exit_code = 3
