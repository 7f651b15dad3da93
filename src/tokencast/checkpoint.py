"""Binary checkpoint persistence.

Layout (all integers little-endian):

    magic "GPHT" | u32 version | u64 config-block length | config block
    | u32 array count | arrays...

where the config block is UTF-8 ``key=value`` lines (model fields plus
``meta.*`` training metadata) and each array record is

    u16 name length | name UTF-8 | u8 scope (0 non-head, 1 head) | u8 rank
    | u32 per dimension | float64 row-major values

Arrays are ordered by name; save -> load round-trips bit-exactly. A
``Checkpoint`` holds no version or scope: saving writes ``VERSION`` and each
scope byte from ``model.parameter_layout``, and loading rejects any other
version and requires exactly the arrays, shapes and scope bytes that the
config implies.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointFormatError, CheckpointVersionError, DataError
from .model import (
    SCOPE_HEAD,
    SCOPE_NON_HEAD,
    ModelConfig,
    ModelParams,
    format_value,
    parameter_layout,
    parse_field,
)

MAGIC = b"GPHT"
VERSION = 1


@dataclass
class Checkpoint:
    config: ModelConfig
    arrays: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)


def from_params(params: ModelParams, metadata: dict[str, str] | None = None) -> Checkpoint:
    """Snapshot live parameters into a detached checkpoint."""
    return Checkpoint(
        config=params.config,
        arrays={n: t.values.copy() for n, t in params.arrays.items()},
        metadata=dict(metadata or {}),
    )


def to_params(ckpt: Checkpoint) -> ModelParams:
    """Materialize trainable parameters from a checkpoint."""
    return ModelParams(config=ckpt.config, arrays={
        n: Tensor(v.copy(), requires_grad=True) for n, v in ckpt.arrays.items()})


def _encode_config_block(config: ModelConfig, metadata: dict[str, str]) -> bytes:
    lines = [f"{f.name}={format_value(getattr(config, f.name))}" for f in fields(config)]
    for key in sorted(metadata):
        value = metadata[key]
        if "\n" in key or "=" in key or "\n" in str(value):
            raise CheckpointFormatError(f"metadata key/value not encodable: {key!r}")
        lines.append(f"meta.{key}={value}")
    return "\n".join(lines).encode("utf-8")


def _decode_config_block(block: str) -> tuple[ModelConfig, dict[str, str]]:
    values: dict[str, str] = {}
    metadata: dict[str, str] = {}
    for line in block.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        if key.startswith("meta."):
            metadata[key[5:]] = value
        else:
            values[key] = value
    try:
        config = ModelConfig(**{f.name: parse_field(f, values[f.name])
                                for f in fields(ModelConfig)})
    except (KeyError, ValueError) as exc:
        raise CheckpointFormatError(f"invalid config block: {exc}") from exc
    return config, metadata


def _check_arrays(config: ModelConfig, arrays: dict[str, np.ndarray],
                  file_scope: dict[str, str]) -> None:
    """Require exactly the arrays, shapes and scope codes the config implies."""
    expected = {name: (shape, scope) for name, shape, scope in parameter_layout(config)}
    missing = sorted(set(expected) - set(arrays))
    unexpected = sorted(set(arrays) - set(expected))
    if missing or unexpected:
        raise CheckpointFormatError(
            f"arrays disagree with the config: missing {missing[:3]}"
            f"{' ...' if len(missing) > 3 else ''}, unexpected {unexpected[:3]}"
            f"{' ...' if len(unexpected) > 3 else ''}"
        )
    for name, (shape, scope) in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointFormatError(
                f"array {name} has shape {arrays[name].shape}, the config "
                f"implies {shape}"
            )
        if file_scope[name] != scope:
            raise CheckpointFormatError(
                f"array {name} has scope {file_scope[name]}, the config implies {scope}"
            )


def serialize(ckpt: Checkpoint) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    block = _encode_config_block(ckpt.config, ckpt.metadata)
    buf.write(struct.pack("<Q", len(block)))
    buf.write(block)
    heads = {name for name, _, scope in parameter_layout(ckpt.config)
             if scope == SCOPE_HEAD}
    names = sorted(ckpt.arrays)
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype="<f8")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", 1 if name in heads else 0))
        buf.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(arr.tobytes())
    return buf.getvalue()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise CheckpointFormatError(
                f"truncated checkpoint: needed {n} bytes for {what} at byte "
                f"offset {self.offset}, have {len(self.data) - self.offset}"
            )
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def text(self, n: int, what: str) -> str:
        start = self.offset
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(
                f"{what} at byte offset {start} is not UTF-8: {exc}") from None

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))[0]


def deserialize(data: bytes) -> Checkpoint:
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointFormatError(
            f"bad magic {magic!r} at byte offset 0, expected {MAGIC!r}"
        )
    version = r.unpack("<I", "version")
    if version != VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}, this build reads {VERSION}"
        )
    block_len = r.unpack("<Q", "config block length")
    config, metadata = _decode_config_block(r.text(block_len, "config block"))
    count = r.unpack("<I", "array count")
    arrays: dict[str, np.ndarray] = {}
    file_scope: dict[str, str] = {}
    for _ in range(count):
        name_len = r.unpack("<H", "array name length")
        name = r.text(name_len, "array name")
        if name in arrays:
            raise CheckpointFormatError(f"duplicate array name {name!r}")
        scope_code = r.unpack("<B", "scope code")
        rank = r.unpack("<B", "rank")
        shape = tuple(r.unpack("<I", f"dimension of {name}") for _ in range(rank))
        n_values = int(np.prod(shape)) if shape else 1
        raw = r.take(8 * n_values, f"values of {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        file_scope[name] = SCOPE_HEAD if scope_code == 1 else SCOPE_NON_HEAD
    if r.offset != len(data):
        raise CheckpointFormatError(
            f"{len(data) - r.offset} trailing bytes at offset {r.offset}"
        )
    _check_arrays(config, arrays, file_scope)
    return Checkpoint(config=config, arrays=arrays, metadata=metadata)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(ckpt))


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return deserialize(data)


def checkpoint_hash(ckpt: Checkpoint) -> str:
    """Stable content hash (sha256 of the serialized form)."""
    return hashlib.sha256(serialize(ckpt)).hexdigest()
