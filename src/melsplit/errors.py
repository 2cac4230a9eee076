"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error this package raises on purpose."""


class FormatError(PipelineError):
    """File is not a well-formed RIFF/WAVE PCM stream."""


class UnsupportedFormatError(PipelineError):
    """Well-formed audio we deliberately refuse (stereo, non-16-bit, ...)."""


class ParameterError(PipelineError, ValueError):
    """An argument violates an operation's precondition."""


class DimensionError(PipelineError, ValueError):
    """Mismatched lengths, shapes, or sample rates between inputs."""


class UndefinedSnrError(PipelineError):
    """SNR requested or measured against a zero-power signal."""


class DivergenceError(PipelineError):
    """An adaptive filter went non-finite or its error grew without bound.

    row is the diverging canceller's row in a batched run, else None.
    """

    def __init__(self, step_index: int, message: str | None = None, row: int | None = None):
        self.step_index = step_index
        self.row = row
        if message is None:
            where = "" if row is None else f" in batch row {row}"
            message = f"adaptive filter diverged at step {step_index}{where}"
        super().__init__(message)


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration."""
