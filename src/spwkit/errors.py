"""Exception and warning types shared across the toolkit."""


class SpwkitError(Exception):
    """Base class for all toolkit errors."""


# --- CVSS vector parsing ---------------------------------------------------

class VectorError(SpwkitError, ValueError):
    """A CVSS vector string could not be parsed."""


class BadPrefixError(VectorError):
    """Vector string does not start with the required version prefix."""


class UnknownMetricError(VectorError):
    """Vector contains a metric key outside the base-metric group."""


class DuplicateMetricError(VectorError):
    """Vector repeats a base metric."""


class MissingMetricError(VectorError):
    """Vector omits one or more base metrics."""


class BadValueError(VectorError):
    """A metric carries a value not allowed for it."""


# --- register loading ------------------------------------------------------

class RegisterError(SpwkitError, ValueError):
    """A register file failed validation.

    ``row_id`` and ``column`` locate the offending cell when known.
    """

    def __init__(self, message, row_id=None, column=None):
        super().__init__(message)
        self.row_id = row_id
        self.column = column


class MissingColumnError(RegisterError):
    """Header row does not match the required schema."""


class DuplicateIdError(RegisterError):
    """Two rows share an id."""


class ScoreOutOfRangeError(RegisterError):
    """Declared score is outside 0.0-10.0 or not one-decimal precise."""


class VectorScoreMismatchError(RegisterError):
    """Score computed from the row's vector differs from the declared score."""


class BadStrideTokenError(RegisterError):
    """A stride cell contains a token outside S/T/R/I/D/E."""


class BadTechniqueIdError(RegisterError):
    """An attack-technique id does not match T#### or T####.###."""


class BadFieldError(RegisterError):
    """Any other malformed cell (subsystem, mission function, empty title)."""


# --- trade-off engine ------------------------------------------------------

class FactorOutOfRangeError(SpwkitError, ValueError):
    """A contribution factor (CVSS, P, M or RRF) is outside its range."""


class EmptyPowerModelError(SpwkitError, ValueError):
    """A power budget was requested for an empty component list."""


class NonPositivePowerError(SpwkitError, ValueError):
    """Operational power is zero or negative where a ratio needs it."""


class ZeroBaselineError(SpwkitError, ZeroDivisionError):
    """Normalisation against a baseline whose ratio is zero."""


class WeightsNotNormalizedError(SpwkitError, ValueError):
    """Multi-criteria weights do not sum to one."""


# --- scenario files --------------------------------------------------------

class ScenarioError(SpwkitError, ValueError):
    """A scenario file failed validation."""


class SchemaViolationError(ScenarioError):
    """Scenario document does not match the expected JSON shape."""


class UnresolvedVulnIdError(ScenarioError):
    """A strategy targets a vulnerability id absent from the register."""


class UnknownBaselineError(ScenarioError):
    """The named baseline is not one of the scenario's strategies."""


class DuplicateStrategyNameError(ScenarioError):
    """Two strategies in one scenario share a name."""


# --- warnings ---------------------------------------------------------------

class SpwkitWarning(UserWarning):
    """Base class for toolkit warnings."""


class UnknownTechniqueIdWarning(SpwkitWarning):
    """An entry lists a technique id absent from the bundled crosswalk."""


class DefaultTierWarning(SpwkitWarning):
    """An entry tagged only 'other' fell through to the low tier."""


class DuplicatePowerLabelWarning(SpwkitWarning):
    """A strategy lists two power components with the same label."""
