"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or extents are inconsistent with what an operation requires."""


class ConfigurationError(ValueError):
    """A configuration object violates one of its invariants."""


class ValidationError(ValueError):
    """External input (file, record, flag) failed validation."""


class NumericalError(ValueError):
    """A computation produced non-finite values (for example a diverging run)."""
