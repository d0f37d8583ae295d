"""Base class of every exception the package raises on purpose."""


class EgomwfError(Exception):
    """A processing or configuration failure the CLI reports in one line."""
