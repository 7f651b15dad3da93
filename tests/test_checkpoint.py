import struct
from dataclasses import replace

import numpy as np
import pytest

from tokencast.checkpoint import (
    checkpoint_hash,
    deserialize,
    from_params,
    load_checkpoint,
    save_checkpoint,
    serialize,
    to_params,
)
from tokencast.errors import CheckpointFormatError, CheckpointVersionError, DataError
from tokencast.model import ModelConfig, init_model


def small_checkpoint():
    cfg = ModelConfig(num_stages=2, pool_kernels=(2, 1), token_len=4, max_tokens=3,
                      model_width=6, layers_per_stage=1, attention_heads=2,
                      feedforward_width=8, seed=3)
    params = init_model(cfg)
    return from_params(params, {"epoch": "7", "best_val_mse": repr(0.125),
                                "seed": "3", "train_sources": "a,b"})


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ckpt = small_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.config == ckpt.config
        assert back.metadata == ckpt.metadata
        assert back.scopes == ckpt.scopes
        assert set(back.arrays) == set(ckpt.arrays)
        for name in ckpt.arrays:
            np.testing.assert_array_equal(back.arrays[name], ckpt.arrays[name])

    def test_serialize_stable(self):
        ckpt = small_checkpoint()
        assert serialize(ckpt) == serialize(ckpt)
        assert checkpoint_hash(ckpt) == checkpoint_hash(ckpt)

    def test_to_params_from_params_cycle(self):
        ckpt = small_checkpoint()
        again = from_params(to_params(ckpt), ckpt.metadata)
        assert serialize(again) == serialize(ckpt)

    def test_arrays_ordered_by_name(self):
        data = serialize(small_checkpoint())
        back = deserialize(data)
        assert list(back.arrays) == sorted(back.arrays)


class TestFormatErrors:
    def test_bad_magic(self):
        with pytest.raises(CheckpointFormatError, match="magic.*offset 0"):
            deserialize(b"NOPE" + b"\x00" * 100)

    def test_unknown_version(self):
        data = b"GPHT" + struct.pack("<I", 999)
        with pytest.raises(CheckpointVersionError, match="999"):
            deserialize(data + b"\x00" * 64)

    def test_truncated_file_reports_offset(self):
        data = serialize(small_checkpoint())
        with pytest.raises(CheckpointFormatError, match="offset"):
            deserialize(data[: len(data) // 2])

    def test_trailing_garbage(self):
        data = serialize(small_checkpoint())
        with pytest.raises(CheckpointFormatError, match="trailing"):
            deserialize(data + b"xx")

    def test_truncation_never_partial(self, tmp_path):
        path = tmp_path / "t.ckpt"
        data = serialize(small_checkpoint())
        path.write_bytes(data[:-9])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


class TestConfigAgreement:
    def test_width_disagreeing_with_arrays(self):
        ckpt = small_checkpoint()
        ckpt.config = replace(ckpt.config, model_width=16)
        with pytest.raises(CheckpointFormatError, match="shape"):
            deserialize(serialize(ckpt))

    def test_invalid_config_block(self):
        ckpt = small_checkpoint()
        ckpt.config = replace(ckpt.config, pool_kernels=(3, 1))
        with pytest.raises(CheckpointFormatError, match="invalid config block"):
            deserialize(serialize(ckpt))

    def test_missing_array(self):
        ckpt = small_checkpoint()
        del ckpt.arrays["stage1.head.bias"]
        with pytest.raises(CheckpointFormatError, match="missing.*stage1.head.bias"):
            deserialize(serialize(ckpt))

    def test_unexpected_array(self):
        ckpt = small_checkpoint()
        ckpt.arrays["stage2.head.bias"] = np.zeros(4)
        ckpt.scopes["stage2.head.bias"] = "head"
        with pytest.raises(CheckpointFormatError, match="unexpected.*stage2.head.bias"):
            deserialize(serialize(ckpt))

    def test_wrong_scope(self):
        ckpt = small_checkpoint()
        ckpt.scopes["stage0.head.weight"] = "non-head"
        with pytest.raises(CheckpointFormatError, match="scope"):
            deserialize(serialize(ckpt))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path)


class TestWireFormat:
    def test_header_layout(self):
        data = serialize(small_checkpoint())
        assert data[:4] == b"GPHT"
        assert struct.unpack("<I", data[4:8])[0] == 1
        block_len = struct.unpack("<Q", data[8:16])[0]
        block = data[16:16 + block_len].decode("utf-8")
        assert "token_len=4" in block
        assert "meta.train_sources=a,b" in block

    def test_scope_codes_present(self):
        ckpt = small_checkpoint()
        data = serialize(ckpt)
        back = deserialize(data)
        heads = [n for n, s in back.scopes.items() if s == "head"]
        assert sorted(heads) == [
            "stage0.head.bias", "stage0.head.weight",
            "stage1.head.bias", "stage1.head.weight",
        ]

    def test_hash_changes_with_values(self):
        a = small_checkpoint()
        b = small_checkpoint()
        b.arrays["stage0.head.bias"][0] += 1.0
        assert checkpoint_hash(a) != checkpoint_hash(b)
