"""Exception hierarchy shared across the toolkit.

Everything raised deliberately by this package derives from ProspectorError,
so callers (and the CLI) can separate tool failures from genuine bugs.
"""


class ProspectorError(Exception):
    """Base class for all errors raised by this package."""


class SlotRangeError(ProspectorError):
    """A counter slot index is outside the programmable range."""


class BackendError(ProspectorError):
    """A counter backend is unusable (missing device, denied access, ...)."""


class BackendStateError(ProspectorError):
    """A backend operation was issued in the wrong state (e.g. read before program)."""


class CapabilityError(ProspectorError):
    """A requested feature is not supported by the active backend or host."""


class CatalogError(ProspectorError):
    """The documented-event catalog is malformed or inconsistent."""


class CorpusError(ProspectorError):
    """The instruction corpus cannot be read."""


class NormalizationError(ProspectorError):
    """An operand template cannot be classified or converted between dialects."""


class InstantiationError(ProspectorError):
    """An instruction template cannot be turned into a concrete snippet."""


class ReportParseError(ProspectorError):
    """An input file (sim model, scan report, detector or dataset) cannot be
    read or is not well-formed; the message names the offending field."""


class DegenerateDataError(ProspectorError):
    """A dataset lacks the variety required by the requested computation."""


class ConfigError(ProspectorError):
    """A configuration file or value cannot be parsed."""
