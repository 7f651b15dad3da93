"""Exception types shared across the package.

Each maps to a stable CLI exit code (see the ``cli`` module docstring and
its ``EXIT_*`` constants).
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DataError(ValueError):
    """Dataset ingestion or content problem (bad cell, ragged row, missing file)."""


class InputTooShortError(ValueError):
    """Series or window shorter than the minimum the operation needs."""


class CheckpointFormatError(ValueError):
    """Corrupt or truncated checkpoint file; message carries the byte offset."""


class CheckpointVersionError(CheckpointFormatError):
    """Checkpoint version not supported by this build."""


class ProtocolError(RuntimeError):
    """Evaluation protocol violated (e.g. zero-shot on a dataset the checkpoint
    was pretrained or fine-tuned on)."""


class NumericAbort(RuntimeError):
    """Training hit a non-finite loss; carries epoch/batch/lr diagnostics."""

    def __init__(self, message: str, epoch: int, batch: int, learning_rate: float):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.learning_rate = learning_rate
