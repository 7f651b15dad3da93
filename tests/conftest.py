import struct

import numpy as np
import pytest

from tokencast.autodiff import Tensor, backward
from tokencast.checkpoint import serialize
from tokencast.model import format_value


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Numerical gradient of scalar f at x, one coordinate at a time.

    Independent oracle: only evaluates the forward function, never the tape.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_gradient(build_loss, x0: np.ndarray, rtol: float = 1e-4, step: float = 1e-5):
    """Compare tape gradient of build_loss(Tensor) against central differences.

    build_loss maps a Tensor leaf to a scalar Tensor; it is also reused (on
    plain arrays wrapped without grad) as the forward function for the oracle.
    """
    leaf = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    loss = build_loss(leaf)
    backward(loss)
    analytic = leaf.grad

    def forward_only(x):
        return float(build_loss(Tensor(x)).values)

    numeric = central_difference(forward_only, np.array(x0, dtype=np.float64), step)
    err = relative_error(analytic, numeric)
    assert err < rtol, f"gradient mismatch: rel err {err:.3e} >= {rtol}"
    return err


def serialize_with_config(ckpt, *extra_lines, **changes) -> bytes:
    """``ckpt`` serialized, then ``changes`` written into its config block and
    ``extra_lines`` appended to it.

    A ``ModelConfig`` refuses a bad value when it is built, so a file that
    carries one is made by editing the block in the bytes.
    """
    data = serialize(ckpt)
    (length,) = struct.unpack_from("<Q", data, 8)
    lines = dict(line.split("=", 1) for line in data[16:16 + length].decode().splitlines())
    lines.update((key, format_value(value)) for key, value in changes.items())
    block = "\n".join([f"{key}={value}" for key, value in lines.items()]
                      + list(extra_lines)).encode()
    return data[:8] + struct.pack("<Q", len(block)) + block + data[16 + length:]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
