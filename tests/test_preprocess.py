import numpy as np
import pytest

from tokencast.errors import InputTooShortError
from tokencast.preprocess import EPS, denormalize, instance_normalize


class TestBatch:
    # 46 points of token length 4 hold 11 full tokens; at most 3 are kept, so
    # the 34 oldest points of every row (the 2-point remainder included) are
    # ignored
    T, MAX_TOKENS, L = 4, 3, 46

    def batch(self, rng):
        x = rng.normal(size=(5, self.L)) * rng.uniform(0.1, 9.0, size=(5, 1))
        return x + rng.uniform(-50.0, 50.0, size=(5, 1))

    def test_shapes(self, rng):
        tokens, mu, scale = instance_normalize(self.batch(rng), self.T, self.MAX_TOKENS)
        assert tokens.shape == (5, 3, 4)
        assert mu.shape == scale.shape == (5, 1)

    def test_oldest_points_ignored_bit_exactly(self, rng):
        x = self.batch(rng)
        other = x.copy()
        other[:, :-12] = rng.normal(size=(5, self.L - 12)) * 1e6
        for a, b in zip(instance_normalize(x, self.T, self.MAX_TOKENS),
                        instance_normalize(other, self.T, self.MAX_TOKENS)):
            np.testing.assert_array_equal(a, b)

    def test_stats_per_row(self, rng):
        x = self.batch(rng)
        tokens, mu, scale = instance_normalize(x, self.T, self.MAX_TOKENS)
        for r in range(5):
            np.testing.assert_array_equal(mu[r, 0], x[r, -12:].mean())
            np.testing.assert_array_equal(scale[r, 0], x[r, -12:].std() + EPS)
            solo = instance_normalize(x[r], self.T, self.MAX_TOKENS)[0]
            np.testing.assert_array_equal(tokens[r], solo)

    def test_constant_row_stays_finite(self, rng):
        x = self.batch(rng)
        x[2] = 7.25
        tokens, mu, scale = instance_normalize(x, self.T, self.MAX_TOKENS)
        assert np.isfinite(tokens).all()
        np.testing.assert_array_equal(tokens[2], 0.0)
        assert mu[2, 0] == 7.25 and scale[2, 0] == EPS

    def test_roundtrip(self, rng):
        x = self.batch(rng)
        tokens, mu, scale = instance_normalize(x, self.T, self.MAX_TOKENS)
        back = denormalize(tokens.reshape(5, -1), mu, scale)
        np.testing.assert_allclose(back, x[:, -12:], rtol=0, atol=1e-10)


class TestTokenize:
    def test_standard_shape(self, rng):
        tokens, _, _ = instance_normalize(rng.normal(size=336), 48, 7)
        assert tokens.shape == (7, 48)

    def test_roundtrip_bit_exact(self, rng):
        # tokens are the normalized window in time order, bit for bit
        w = rng.normal(size=336)
        tokens, mu, scale = instance_normalize(w, 48, 7)
        np.testing.assert_array_equal(tokens.reshape(-1), (w - mu) / scale)

    def test_remainder_drops_oldest(self, rng):
        w = rng.normal(size=100)
        other = w.copy()
        other[:4] = 99.0
        tokens, mu, _ = instance_normalize(w, 48, 7)
        assert tokens.shape == (2, 48)
        np.testing.assert_array_equal(instance_normalize(other, 48, 7)[0], tokens)
        assert mu[0] == w[4:].mean()

    def test_too_short(self):
        with pytest.raises(InputTooShortError):
            instance_normalize(np.zeros(10), 48, 7)

    def test_order_preserved(self):
        tokens, mu, scale = instance_normalize(np.arange(12.0), 4, 3)
        np.testing.assert_array_equal(tokens[1], (np.arange(4.0, 8.0) - mu) / scale)
        assert (np.diff(tokens.reshape(-1)) > 0).all()


class TestNormalize:
    def test_constant_window(self):
        out, mu, scale = instance_normalize(np.array([5.0, 5.0, 5.0, 5.0]), 4, 1)
        np.testing.assert_array_equal(out, np.zeros((1, 4)))
        assert mu[0] == 5.0 and scale[0] == EPS

    def test_two_point(self):
        out, mu, scale = instance_normalize(np.array([0.0, 2.0]), 2, 1)
        assert mu[0] == 1.0 and scale[0] == 1.0 + EPS
        np.testing.assert_allclose(out, [[-0.99999, 0.99999]], rtol=1e-4)

    def test_moments(self, rng):
        w = rng.normal(3.0, 2.0, size=500)
        out, _, _ = instance_normalize(w, 5, 100)
        assert abs(out.mean()) < 1e-10
        assert abs(out.std() - 1.0) < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(InputTooShortError):
            instance_normalize(np.array([]), 1, 1)


class TestDenormalize:
    def test_roundtrip_identity(self, rng):
        for _ in range(20):
            w = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), size=64)
            out, mu, scale = instance_normalize(w, 8, 8)
            np.testing.assert_allclose(denormalize(out.reshape(-1), mu, scale), w,
                                       atol=1e-10)

    def test_zero_maps_to_mean(self):
        _, mu, scale = instance_normalize(np.array([1.0, 2.0, 3.0]), 3, 1)
        np.testing.assert_array_equal(denormalize(np.zeros(5), mu, scale), np.full(5, 2.0))

    def test_hand_case(self):
        out = denormalize(np.array([1.0]), np.array([1.0]), np.array([2.0]))
        np.testing.assert_array_equal(out, [3.0])


class TestEquivariance:
    def test_affine_inputs_normalize_identically(self, rng):
        w = rng.normal(size=128)
        base, _, _ = instance_normalize(w, 16, 8)
        scaled, _, _ = instance_normalize(3.0 * w + 7.0, 16, 8)
        assert np.abs(scaled - base).max() < 1e-3
