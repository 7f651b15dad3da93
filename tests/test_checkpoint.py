import math
import struct
from dataclasses import fields, replace

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
from tokencast.config import parse_run_config, render_resolved
from tokencast.errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    DataError,
)
from tokencast.model import ModelConfig, init_model
from tokencast.train import TrainConfig

from conftest import serialize_with_config, serialize_with_record


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

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)])
    def test_dimensions_past_int64_read_as_truncated(self, dims):
        # their product wraps in a fixed-width integer: to 0 for the second
        data = serialize_with_record(small_checkpoint(), "stage0.embed.bias", dims=dims)
        with pytest.raises(CheckpointFormatError,
                           match=f"truncated checkpoint: needed {8 * math.prod(dims)} "
                                 "bytes for values of stage0.embed.bias"):
            deserialize(data)

    @pytest.mark.parametrize("code", [2, 255])
    def test_unknown_scope_code(self, code):
        data = serialize_with_record(small_checkpoint(), "stage0.embed.bias", scope=code)
        at = data.index(b"stage0.embed.bias") + len("stage0.embed.bias")
        with pytest.raises(CheckpointFormatError,
                           match=f"stage0.embed.bias has scope code {code} at byte "
                                 rf"offset {at}, expected 0 \(non-head\) or 1 \(head\)"):
            deserialize(data)

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
        data = serialize_with_config(small_checkpoint(), pool_kernels=(3, 1))
        with pytest.raises(CheckpointFormatError, match="invalid config block"):
            deserialize(data)

    @pytest.mark.parametrize("pool_kernels", [(3, 1), (0, 1)])
    def test_serialize_rejects_invalid_config(self, pool_kernels):
        # an invalid config cannot be built, so none reaches serialize
        ckpt = small_checkpoint()
        with pytest.raises(ConfigError, match="pool kernel"):
            replace(ckpt.config, pool_kernels=pool_kernels)

    @pytest.mark.parametrize("line", ["learning_rat=0.5", "token_len=4", "meta.seed=9"])
    def test_unknown_or_repeated_key_rejected(self, line):
        # a repeated line would silently replace the first one
        with pytest.raises(CheckpointFormatError, match=line.split("=")[0]):
            deserialize(serialize_with_config(small_checkpoint(), line))

    def test_missing_array(self):
        ckpt = small_checkpoint()
        del ckpt.arrays["stage1.head.bias"]
        with pytest.raises(CheckpointFormatError, match="missing.*stage1.head.bias"):
            deserialize(serialize(ckpt))

    def test_unexpected_array(self):
        ckpt = small_checkpoint()
        ckpt.arrays["stage2.head.bias"] = np.zeros(4)
        with pytest.raises(CheckpointFormatError, match="unexpected.*stage2.head.bias"):
            deserialize(serialize(ckpt))

    def test_wrong_scope(self):
        data = bytearray(serialize(small_checkpoint()))
        name = b"stage0.head.weight"
        at = data.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        assert data[at] == 1
        data[at] = 0
        with pytest.raises(CheckpointFormatError,
                           match="stage0.head.weight has scope non-head"):
            deserialize(bytes(data))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path)


class TestConfigRoundTrip:
    # every field differs from its default
    MODEL = ModelConfig(num_stages=3, pool_kernels=(6, 3, 1), token_len=6, max_tokens=5,
                        model_width=12, layers_per_stage=3, attention_heads=3,
                        feedforward_width=20, dropout_rate=0.25, seed=11)
    TRAIN = TrainConfig(epochs=7, batch_size=5, learning_rate=3e-4, beta1=0.8, beta2=0.99,
                        adam_eps=1e-7, stride=2, patience=9, seed=13)
    RESOLVED = (
        "[model]\nstages = 3\npool_kernels = 6,3,1\ntoken_len = 6\nmax_tokens = 5\n"
        "width = 12\nlayers_per_stage = 3\nheads = 3\nfeedforward_width = 20\n"
        "dropout = 0.25\nseed = 11\n\n"
        "[train]\nepochs = 7\nbatch_size = 5\nlearning_rate = 0.0003\nbeta1 = 0.8\n"
        "beta2 = 0.99\nadam_eps = 1e-07\nstride = 2\npatience = 9\nseed = 13\n"
    )

    def test_every_field_survives(self, tmp_path):
        for cfg in (self.MODEL, self.TRAIN):
            for f in fields(cfg):
                assert getattr(cfg, f.name) != f.default, f.name
        back = deserialize(serialize(from_params(init_model(self.MODEL))))
        assert back.config == self.MODEL
        text = render_resolved(model=self.MODEL, train=self.TRAIN)
        assert text == self.RESOLVED
        cfg = tmp_path / "resolved.cfg"
        cfg.write_text(text)
        run = parse_run_config(cfg)
        assert run.model_config() == self.MODEL
        assert run.train_config() == self.TRAIN


class TestWireFormat:
    def test_header_layout(self):
        data = serialize(small_checkpoint())
        assert data[:4] == b"GPHT"
        assert struct.unpack("<I", data[4:8])[0] == 1
        block_len = struct.unpack("<Q", data[8:16])[0]
        block = data[16:16 + block_len].decode("utf-8")
        assert block == (
            "num_stages=2\npool_kernels=2,1\ntoken_len=4\nmax_tokens=3\n"
            "model_width=6\nlayers_per_stage=1\nattention_heads=2\n"
            "feedforward_width=8\ndropout_rate=0.0\nseed=3\n"
            "meta.best_val_mse=0.125\nmeta.epoch=7\nmeta.seed=3\n"
            "meta.train_sources=a,b"
        )

    def test_scope_codes_present(self):
        data = serialize(small_checkpoint())
        offset = 16 + struct.unpack("<Q", data[8:16])[0]
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        codes = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            name = data[offset + 2:offset + 2 + name_len].decode("utf-8")
            offset += 2 + name_len
            codes[name], rank = data[offset], data[offset + 1]
            shape = struct.unpack_from(f"<{rank}I", data, offset + 2)
            offset += 2 + 4 * rank + 8 * int(np.prod(shape))
        assert offset == len(data)
        assert set(codes.values()) == {0, 1}
        heads = [n for n, code in codes.items() if code == 1]
        assert sorted(heads) == [
            "stage0.head.bias", "stage0.head.weight",
            "stage1.head.bias", "stage1.head.weight",
        ]

    def test_hash_changes_with_values(self):
        a = small_checkpoint()
        b = small_checkpoint()
        b.arrays["stage0.head.bias"][0] += 1.0
        assert checkpoint_hash(a) != checkpoint_hash(b)
