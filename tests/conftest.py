import os
import struct
import threading

import numpy as np
import pytest

from tokencast.autodiff import Tensor, backward
from tokencast.checkpoint import serialize
from tokencast.errors import ConfigError
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


def naive_baselines(
    lookback: np.ndarray, horizon: int, season_period: int
) -> tuple[np.ndarray, np.ndarray]:
    """Persistence (repeat last value) and seasonal-naive (repeat last season)."""
    lookback = np.asarray(lookback, dtype=np.float64)
    if season_period < 1:
        raise ConfigError(f"season period must be >= 1, got {season_period}")
    if season_period > lookback.shape[-1]:
        raise ConfigError(
            f"season period {season_period} exceeds lookback length "
            f"{lookback.shape[-1]}"
        )
    persistence = np.broadcast_to(
        lookback[..., -1:], lookback.shape[:-1] + (horizon,)
    ).copy()
    season = lookback[..., -season_period:]
    idx = np.arange(horizon) % season_period
    return persistence, season[..., idx]


def residual_chain(tokens, stages) -> list[np.ndarray]:
    """Every stage's input, then the residual the last stage leaves, rebuilt
    from ``ModelOutput.stages`` by the residual rule: stage i+1 receives stage
    i's input minus stage i's prediction shifted right by one token."""
    chain = [np.asarray(tokens, dtype=np.float64)]
    for prediction in stages:
        shifted = np.zeros_like(prediction.values)
        shifted[..., 1:, :] = prediction.values[..., :-1, :]
        chain.append(chain[-1] - shifted)
    return chain


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


@pytest.fixture(autouse=True)
def no_child_left():
    # evaluate's workers beyond the first are forked children, and the only
    # other processes tests start are reaped by subprocess.run, so none may
    # outlive its test
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_thread_left():
    # training may validate an epoch on a second thread, which it joins
    # before it returns or raises, so none may outlive its test
    before = set(threading.enumerate())
    yield
    left = set(threading.enumerate()) - before
    assert not left, f"threads left running: {sorted(t.name for t in left)}"
