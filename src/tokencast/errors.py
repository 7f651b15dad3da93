"""Exception types shared across the package.

Every error the package raises for a bad input or a failed run is a
``TokencastError`` of one of four families, and each family carries the
stable exit code and the message label the command line reports it with:
``ConfigError`` (2, config error), ``DataError`` (3, data error),
``NumericAbort`` (4, numeric abort) and ``ProtocolError`` (5, protocol
violation). The other classes narrow ``DataError``. Each family also keeps
its ``ValueError`` or ``RuntimeError`` base for library callers.
"""

# The most float64 elements (8 GiB) that one size a setting implies may reach;
# a larger size is a ConfigError, raised before anything is allocated.
MAX_ELEMENTS = 2**30


class TokencastError(Exception):
    """Base of the error families; a family sets both class attributes."""

    exit_code: int
    label: str


class ConfigError(TokencastError, ValueError):
    """Invalid configuration value or combination."""

    exit_code, label = 2, "config error"


class DataError(TokencastError, ValueError):
    """Dataset ingestion or content problem (bad cell, ragged row, missing file)."""

    exit_code, label = 3, "data error"


class ShapeError(DataError):
    """Operand shapes are incompatible for the requested operation."""


class InputTooShortError(DataError):
    """Series or window shorter than the minimum the operation needs."""


class CheckpointFormatError(DataError):
    """Corrupt or truncated checkpoint file; message carries the byte offset."""


class CheckpointVersionError(CheckpointFormatError):
    """Checkpoint version not supported by this build."""


class ProtocolError(TokencastError, RuntimeError):
    """Evaluation protocol violated (e.g. zero-shot on a dataset the checkpoint
    was pretrained or fine-tuned on)."""

    exit_code, label = 5, "protocol violation"


class NumericAbort(TokencastError, RuntimeError):
    """Training hit a non-finite loss; carries epoch/batch/lr diagnostics."""

    exit_code, label = 4, "numeric abort"

    def __init__(self, message: str, epoch: int, batch: int, learning_rate: float):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.learning_rate = learning_rate
