import numpy as np
import pytest

from tokencast.data import (
    DatasetSplit,
    MultivariateSeries,
    NoiseComponent,
    SineComponent,
    SynthSpec,
    TrendComponent,
    build_mixed_dataset,
    chronological_split,
    load_csv_dataset,
    sample_windows,
    series_to_csv,
    synth_generate,
)
from tokencast.errors import ConfigError, DataError


def make_series(name, channels, length, offset=0.0):
    values = np.arange(channels * length, dtype=np.float64).reshape(channels, length) + offset
    return MultivariateSeries(name=name, values=values)


class TestLoadCsv:
    def test_date_column_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        lines = ["date,a,b"] + [f"2020-01-{i:02d},{i},{i * 2}" for i in range(1, 11)]
        p.write_text("\n".join(lines))
        s = load_csv_dataset(p, "d")
        assert s.num_channels == 2 and s.length == 10
        np.testing.assert_array_equal(s.values[1], np.arange(1, 11) * 2)

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,a\n2020-01-01,1.5\n2020-01-02,2.5\n")
        s = load_csv_dataset(p, "bom")
        np.testing.assert_array_equal(s.values, [[1.5, 2.5]])

    def test_ett_shaped_file(self, tmp_path):
        p = tmp_path / "ett.csv"
        header = "date," + ",".join(f"v{i}" for i in range(7))
        rows = [f"t{r}," + ",".join(str(r + c) for c in range(7)) for r in range(20)]
        p.write_text("\n".join([header] + rows))
        assert load_csv_dataset(p, "ett").num_channels == 7

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,NaN\n")
        with pytest.raises(DataError, match="row 3.*'b'"):
            load_csv_dataset(p, "bad")

    def test_text_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a\n1\nhello\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv_dataset(p, "bad")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv_dataset(p, "bad")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv"):
            load_csv_dataset(tmp_path / "nope.csv", "x")

    def test_write_read_roundtrip(self, tmp_path, rng):
        s = MultivariateSeries("r", rng.normal(size=(3, 17)))
        (tmp_path / "r.csv").write_bytes(series_to_csv(s).encode("utf-8"))
        back = load_csv_dataset(tmp_path / "r.csv", "r")
        np.testing.assert_array_equal(back.values, s.values)


class TestSplit:
    def test_exact_division(self):
        s = chronological_split(make_series("x", 1, 10), 0.7, 0.1, 0.2)
        assert s.train == (0, 7) and s.validation == (7, 8) and s.test == (8, 10)

    def test_ett_lengths(self):
        s = chronological_split(make_series("x", 1, 17420), 0.6, 0.2, 0.2)
        assert s.train == (0, 10452)
        assert s.validation == (10452, 13936)
        assert s.test == (13936, 17420)

    def test_bad_sum(self):
        with pytest.raises(ConfigError, match="sum"):
            chronological_split(make_series("x", 1, 10), 0.5, 0.2, 0.2)

    def test_nonpositive_ratio(self):
        nan, inf = float("nan"), float("inf")
        for ratios in [(1.0, -0.2, 0.2), (0.7, 0.1, nan), (nan, 0.1, 0.2),
                       (0.7, inf, 0.2), (inf, -inf, 1.0)]:
            with pytest.raises(ConfigError, match="positive and finite"):
                chronological_split(make_series("x", 1, 10), *ratios)

    def test_partition_covers_series(self, rng):
        for n in rng.integers(10, 5000, size=20):
            s = chronological_split(make_series("x", 1, int(n)), 0.6, 0.2, 0.2)
            assert s.train[0] == 0 and s.test[1] == n
            assert s.train[1] == s.validation[0] and s.validation[1] == s.test[0]


class TestMixedDataset:
    def test_segment_count(self):
        a = make_series("a", 7, 100)
        b = make_series("b", 21, 100)
        sa = chronological_split(a, 0.7, 0.1, 0.2)
        sb = chronological_split(b, 0.7, 0.1, 0.2)
        mixed = build_mixed_dataset([(a, sa), (b, sb)], "train")
        assert len(mixed.segments) == 28

    def test_train_content_is_prefix(self):
        a = make_series("a", 2, 100)
        split = chronological_split(a, 0.6, 0.2, 0.2)
        mixed = build_mixed_dataset([(a, split)], "train")
        np.testing.assert_array_equal(mixed.segments[0].values, a.values[0, :60])
        np.testing.assert_array_equal(mixed.segments[1].values, a.values[1, :60])

    def test_deterministic_ordering(self):
        a = make_series("a", 3, 50)
        b = make_series("b", 2, 50)
        sa = chronological_split(a, 0.7, 0.1, 0.2)
        sb = chronological_split(b, 0.7, 0.1, 0.2)
        m1 = build_mixed_dataset([(a, sa), (b, sb)], "test")
        m2 = build_mixed_dataset([(a, sa), (b, sb)], "test")
        assert [(s.source, s.channel) for s in m1.segments] == [
            (s.source, s.channel) for s in m2.segments
        ]

    def test_empty_range_skipped_and_counted(self):
        a = make_series("a", 3, 50)
        split = DatasetSplit(train=(0, 50), validation=(50, 50), test=(50, 50))
        mixed = build_mixed_dataset([(a, split)], "validation")
        assert mixed.segments == []

    def test_bad_role(self):
        with pytest.raises(ConfigError):
            build_mixed_dataset([(make_series("a", 1, 10), DatasetSplit((0, 6), (6, 8), (8, 10)))], "dev")


class TestSampleWindows:
    def make_mixed(self, lengths):
        datasets = []
        for i, n in enumerate(lengths):
            s = make_series(f"s{i}", 1, n)
            datasets.append((s, DatasetSplit((0, n), (n, n), (n, n))))
        return build_mixed_dataset(datasets, "train")

    def test_window_count(self):
        windows = sample_windows(self.make_mixed([100]), 48, 48, stride=1, seed=0)
        assert len(windows) == 5

    def test_too_short_segment(self):
        windows = sample_windows(self.make_mixed([95]), 48, 48)
        assert isinstance(windows, np.ndarray) and windows.shape == (0, 96)

    def test_target_follows_lookback(self):
        windows = sample_windows(self.make_mixed([60]), 10, 5, stride=3, seed=1)
        assert windows.shape == (16, 15) and windows.dtype == np.float64
        # values are arange: each row runs on by one, across the lookback/target cut
        np.testing.assert_array_equal(np.diff(windows, axis=1), 1.0)
        assert sorted(windows[:, 0]) == list(range(0, 46, 3))

    def test_seed_controls_order(self):
        mixed = self.make_mixed([200])
        a = sample_windows(mixed, 20, 5, seed=7)
        b = sample_windows(mixed, 20, 5, seed=7)
        c = sample_windows(mixed, 20, 5, seed=8)
        np.testing.assert_array_equal(a, b)
        assert list(a[:, 0]) != list(c[:, 0])

    def test_windows_never_cross_segments(self):
        # sentinel per segment: any mixed-tag window would show two values
        seg_a = MultivariateSeries("a", np.full((1, 30), 1.0))
        seg_b = MultivariateSeries("b", np.full((1, 30), 2.0))
        full = DatasetSplit((0, 30), (30, 30), (30, 30))
        mixed = build_mixed_dataset([(seg_a, full), (seg_b, full)], "train")
        windows = sample_windows(mixed, 8, 4, seed=0)
        assert len(windows) == 2 * 19
        for row in windows:
            assert len(set(row)) == 1

    def test_bad_stride(self):
        with pytest.raises(ConfigError):
            sample_windows(self.make_mixed([100]), 8, 4, stride=0)


class TestSynth:
    def test_sine_peak(self):
        spec = SynthSpec("s", length=96, components=[SineComponent(period=48, amplitude=1.0)])
        series = synth_generate(spec)
        assert series.values[0, 12] == pytest.approx(1.0)

    def test_zero_noise_deterministic_components(self):
        spec = SynthSpec(
            "s", length=50, channels=3,
            components=[SineComponent(24.0), TrendComponent(0.01), NoiseComponent(0.0)],
            seed=3,
        )
        series = synth_generate(spec)
        t = np.arange(50.0)
        expected = np.sin(2 * np.pi * t / 24.0) + 0.01 * t
        for c in range(3):
            np.testing.assert_allclose(series.values[c], expected, atol=1e-12)

    def test_reproducible(self):
        spec = SynthSpec("s", length=40, channels=2, components=[NoiseComponent(1.0)], seed=5)
        a = synth_generate(spec)
        b = synth_generate(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_channels_draw_independent_noise(self):
        spec = SynthSpec("s", length=40, channels=2, components=[NoiseComponent(1.0)], seed=5)
        series = synth_generate(spec)
        assert not np.array_equal(series.values[0], series.values[1])

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            synth_generate(SynthSpec("s", 10, components=[SineComponent(0.0)]))

    def test_bad_length(self):
        with pytest.raises(ConfigError, match="length"):
            synth_generate(SynthSpec("s", 0, components=[NoiseComponent(1.0)]))
