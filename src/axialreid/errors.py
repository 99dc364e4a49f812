"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input failed validation: a file, a record, a flag, an argument, a shape
    or a configuration."""


class NumericalError(ValueError):
    """A computation produced non-finite values (for example a diverging run)."""
