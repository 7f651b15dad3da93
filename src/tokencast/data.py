"""Dataset ingestion, chronological splitting, channel-independent mixing,
window sampling, and synthetic series generation.

A mixed dataset is just an ordered list of univariate segments, one per
(source dataset, channel); windows never cross a segment boundary. All
sampling is reproducible from an explicit seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

Range = tuple[int, int]


@dataclass
class MultivariateSeries:
    """C aligned channels of equal length; timestamps are ignored if present."""

    name: str
    values: np.ndarray  # (C, length) float64

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DatasetSplit:
    """Contiguous, ordered train/validation/test index ranges over time."""

    train: Range
    validation: Range
    test: Range


@dataclass(frozen=True)
class Segment:
    source: str
    channel: int
    values: np.ndarray


@dataclass
class MixedDataset:
    segments: list[Segment]
    role: str


def load_csv_dataset(path, name: str) -> MultivariateSeries:
    """Read a header-first CSV; an optional leading "date" column is skipped.

    Every remaining cell must parse as a finite float; ragged rows and
    non-finite cells raise DataError naming the offending row/column.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        skip_first = bool(header) and header[0].strip().lower() == "date"
        col_names = header[1:] if skip_first else header
        if not col_names:
            raise DataError(f"{path}: no numeric columns after the date column")
        rows: list[list[float]] = []
        for row_idx, row in enumerate(reader, start=2):
            cells = row[1:] if skip_first else row
            if len(cells) != len(col_names):
                raise DataError(
                    f"{path}: ragged row {row_idx}: expected {len(col_names)} "
                    f"value cells, got {len(cells)}"
                )
            parsed = []
            for col_idx, cell in enumerate(cells):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_idx}, column '{col_names[col_idx]}': "
                        f"cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: row {row_idx}, column '{col_names[col_idx]}': "
                        f"non-finite value {cell!r}"
                    )
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return MultivariateSeries(name=name, values=np.asarray(rows, dtype=np.float64).T)


def series_to_csv(series: MultivariateSeries) -> str:
    """One column per channel under a ch<i> header (load_csv_dataset inverse)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"ch{i}" for i in range(series.num_channels)])
    for t in range(series.length):
        writer.writerow([repr(float(v)) for v in series.values[:, t]])
    return buf.getvalue()


def chronological_split(
    series: MultivariateSeries,
    ratio_train: float,
    ratio_val: float,
    ratio_test: float,
) -> DatasetSplit:
    """Prefix-partition the time axis at floor(ratio * length) boundaries."""
    ratios = (ratio_train, ratio_val, ratio_test)
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ConfigError(f"split ratios must be positive and finite, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios} (sum {sum(ratios)})")
    n = series.length
    # the +1e-9 guard keeps float dust (0.7+0.1 != 0.8 exactly) from moving a boundary
    a = int(math.floor(ratio_train * n + 1e-9))
    b = int(math.floor((ratio_train + ratio_val) * n + 1e-9))
    return DatasetSplit(train=(0, a), validation=(a, b), test=(b, n))


def build_mixed_dataset(
    datasets: list[tuple[MultivariateSeries, DatasetSplit]],
    role: str,
) -> MixedDataset:
    """Turn every channel of every dataset's role range into one segment.

    Segment order is (dataset order, channel order). Empty role ranges are
    skipped.
    """
    if role not in ("train", "validation", "test"):
        raise ConfigError(f"unknown role {role!r}")
    if not datasets:
        raise ConfigError("build_mixed_dataset needs at least one dataset")
    segments: list[Segment] = []
    for series, split in datasets:
        lo, hi = getattr(split, role)
        if hi <= lo:
            continue
        for c in range(series.num_channels):
            segments.append(Segment(series.name, c, series.values[c, lo:hi]))
    return MixedDataset(segments=segments, role=role)


def sample_windows(
    mixed: MixedDataset,
    lookback_len: int,
    horizon_len: int,
    stride: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Every window inside every segment, shuffled: a float64 array of shape
    (N, lookback_len + horizon_len), lookback first, then the target.

    Starts at offsets 0, stride, 2*stride, ... within each segment; segments
    shorter than lookback_len + horizon_len contribute nothing, and no
    windows at all gives shape (0, span). Rows are in (segment, start) order
    gathered by a seeded permutation, so one seed = one epoch order.
    """
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    span = lookback_len + horizon_len
    windows = [sliding_window_view(seg.values, span)[::stride]
               for seg in mixed.segments if len(seg.values) >= span]
    rows = np.concatenate(windows) if windows else np.empty((0, span))
    return rows[np.random.default_rng(seed).permutation(len(rows))]


# ---------------------------------------------------------------------------
# synthetic series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineComponent:
    period: float
    amplitude: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class TrendComponent:
    slope: float


@dataclass(frozen=True)
class NoiseComponent:
    sigma: float


Component = SineComponent | TrendComponent | NoiseComponent


@dataclass
class SynthSpec:
    name: str
    length: int
    channels: int = 1
    components: list = field(default_factory=list)


def synth_generate(spec: SynthSpec, seed: int = 0) -> MultivariateSeries:
    """Sum the spec's components per channel; only noise varies by channel."""
    if spec.length <= 0:
        raise ConfigError(f"synthetic length must be positive, got {spec.length}")
    if spec.channels <= 0:
        raise ConfigError(f"channel count must be positive, got {spec.channels}")
    if seed < 0:
        raise ConfigError(f"synthetic seed must be >= 0, got {seed}")
    for comp in spec.components:
        if isinstance(comp, SineComponent) and comp.period <= 0:
            raise ConfigError(f"sine period must be positive, got {comp.period}")
        if isinstance(comp, NoiseComponent) and comp.sigma < 0:
            raise ConfigError(f"noise sigma must be nonnegative, got {comp.sigma}")
    t = np.arange(spec.length, dtype=np.float64)
    deterministic = np.zeros(spec.length)
    for comp in spec.components:
        if isinstance(comp, SineComponent):
            deterministic += comp.amplitude * np.sin(2.0 * np.pi * t / comp.period + comp.phase)
        elif isinstance(comp, TrendComponent):
            deterministic += comp.slope * t
    rng = np.random.default_rng(seed)
    values = np.tile(deterministic, (spec.channels, 1))
    for comp in spec.components:
        if isinstance(comp, NoiseComponent) and comp.sigma > 0:
            values = values + rng.normal(0.0, comp.sigma, size=values.shape)
    return MultivariateSeries(name=spec.name, values=values)
