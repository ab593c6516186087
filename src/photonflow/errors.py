"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Field or configuration parameters violate a documented constraint."""


class RegimeError(ParameterError):
    """Parameters are individually valid but select an unsupported physical
    regime (e.g. an incidence angle below the critical angle, where the
    transmitted wave is propagating rather than evanescent)."""


class SingularPointError(ValueError):
    """The amplitude at the requested point is (numerically) zero, so
    phase-derived quantities such as the local momentum are undefined."""


class DegeneratePointerError(ParameterError):
    """The pointer displacement is zero; the weak readout cannot be inverted."""


class ResolutionError(ParameterError):
    """Grid spacing is too coarse to resolve phase winding reliably."""


class SeedError(ParameterError):
    """A trajectory seed sits on (or numerically too close to) a field zero."""


class ParameterWarning(UserWarning):
    """A valid parameter lies where a result's documented assumption no longer
    holds (a gain medium, a calcite shift that is not small); the result is
    still computed."""
