"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Invalid configuration: bad shapes, unknown keys, out-of-range values."""


class DataError(ToolkitError):
    """Invalid data content, e.g. non-finite feature values."""


class ParseError(ToolkitError):
    """Malformed input file; message names the offending row/column."""


class BatchCompositionError(ToolkitError):
    """A batch cannot supply the pairs a loss needs."""


class TrainingError(ToolkitError):
    """Training diverged or produced non-finite values."""


class EvaluationError(ToolkitError):
    """Evaluation preconditions violated, e.g. no valid queries."""


class AlignmentError(ToolkitError):
    """Columns or tables do not describe the same rows in the same order."""


class CheckpointError(ToolkitError):
    """Checkpoint file is missing, truncated, or from an incompatible version."""
