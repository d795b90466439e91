"""Binary checkpoint format: round trips, typed corruption errors, version 1
files, atomic saves, the state's two kinds of entry and the size, load-memory
and save-memory budgets."""

import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import checkpoint as ckpt
from rgbtseg.checkpoint import (BadMagicError, BadVersionError, CheckpointError,
                                ChecksumError, FrozenDigest, TruncatedError,
                                deserialize, load_checkpoint, save_checkpoint,
                                serialize)
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Bytes a default-config checkpoint may hold beyond its trainable data (85,712
# float64 values, 685,696 B): 13,539 B of record headers and frozen-tensor
# digests. Version 1 also stored the 346,368 frozen values, 3,465,731 B in all.
CHECKPOINT_OVERHEAD_BUDGET = 16 * 2**10

# The tracemalloc peak of loading a default-config checkpoint into a built
# model, in MiB: 1.4 with the file blob and one copy of each trainable array;
# 6.7 when the frozen data was stored, read and copied out as well.
LOAD_PEAK_MIB_BUDGET = 2

# The tracemalloc peak of saving a default-config model's state, in MiB: 1.5
# with one copy of each trainable array and the file blob built in one join;
# 5.4 when the state copied every frozen array too and the trainable bytes
# were copied three times on the way to the blob.
SAVE_PEAK_MIB_BUDGET = 2


def _state():
    rng = np.random.default_rng(0)
    return {
        "a.W": FrozenDigest.of(rng.normal(size=(3, 4))),
        "b.bias": rng.normal(size=(5,)),
    }


def test_round_trip_bytes_and_values(tmp_path):
    state = _state()
    blob = serialize(state)
    assert blob[:4] == b"TSEG"
    path = tmp_path / "ckpt.tseg"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert serialize(loaded) == blob
    for name, value in state.items():
        got = loaded[name]
        assert type(got) is type(value)
        if isinstance(value, FrozenDigest):
            assert got == value
        else:
            assert got.shape == value.shape and got.tobytes() == value.tobytes()
            assert got.flags.owndata and got.flags.writeable


def test_bad_magic():
    blob = serialize(_state())
    with pytest.raises(BadMagicError):
        deserialize(b"NOPE" + blob[4:])


def test_bad_version():
    blob = serialize(_state())
    body = blob[:4] + struct.pack("<I", 99) + blob[8:-4]
    with pytest.raises(BadVersionError):
        deserialize(body + struct.pack("<I", zlib.crc32(body)))


def test_flipped_byte_fails_checksum():
    blob = serialize(_state())
    corrupt = blob[:20] + bytes([blob[20] ^ 0xFF]) + blob[21:]
    with pytest.raises(ChecksumError):
        deserialize(corrupt)


def test_truncation_is_typed():
    blob = serialize(_state())
    with pytest.raises((TruncatedError, ChecksumError)):
        deserialize(blob[:10])
    with pytest.raises(CheckpointError):
        deserialize(blob[: len(blob) - 7])


def test_unsupported_dtype_rejected():
    for dtype in (np.int64, np.float32):
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            serialize({"x": np.zeros(3, dtype=dtype)})


def test_record_dtype_code_other_than_float64_rejected():
    # a hand-built record of dtype code 1 holding three float32 zeros
    name = b"x"
    body = (b"TSEG" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<BBIB", 1, 1, 3, 0) + np.zeros(3, "<f4").tobytes())
    with pytest.raises(CheckpointError, match="unknown dtype code 1 for 'x'"):
        deserialize(body + struct.pack("<I", zlib.crc32(body)))


def test_empty_state_round_trips():
    assert deserialize(serialize({})) == {}


def test_a_0d_entry_round_trips_with_its_rank():
    state = {"x": np.array(2.0), "y": FrozenDigest.of(np.array(-1.5))}
    loaded = deserialize(serialize(state))
    assert loaded["x"].shape == ()
    assert loaded["x"].tobytes() == state["x"].tobytes()
    assert loaded["y"] == state["y"]
    assert loaded["y"].shape == ()


def test_frozen_flag_other_than_0_or_1_rejected():
    body = serialize({"x": np.zeros(3)})[:-4]
    body = body[:-25] + b"\x02" + body[-24:]
    with pytest.raises(CheckpointError, match="frozen flag 2 for 'x' is not 0 or 1"):
        deserialize(body + struct.pack("<I", zlib.crc32(body)))


def _serialize_v1(registry):
    """Version 1 as it was written: every record holds its raw data."""
    out = [b"TSEG", struct.pack("<II", 1, len(registry.items()))]
    for name, (tensor, frozen) in registry.items():
        arr, nb = tensor.data, name.encode()
        out += [struct.pack("<I", len(nb)), nb,
                struct.pack(f"<BB{arr.ndim}IB", 0, arr.ndim, *arr.shape, frozen),
                arr.astype("<f8").tobytes()]
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


def _trained_model(cfg):
    """A model of ``cfg`` whose trainable tensors moved away from their init."""
    model = RgbtSegModel(cfg)
    rng = np.random.default_rng(3)
    for _, tensor in model.registry.trainable():
        tensor.data += rng.normal(0.0, 0.05, tensor.shape)
    return model


def _logits(model):
    rng = np.random.default_rng(4)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, model.cfg.model.d_t,
                                       model.cfg.backbone_seed)
    return model.forward(rng.uniform(0.0, 1.0, (32, 32, 3)),
                         rng.uniform(0.0, 1.0, (32, 32, 1)), vocab).logits.data


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_every_config_loads_back_with_bitwise_equal_logits(tmp_path, config):
    cfg = RunConfig.from_json_file(CONFIGS / f"{config}.json")
    saved = _trained_model(cfg)
    save_checkpoint(saved.state_dict(), tmp_path / "ckpt.tseg")
    restored = RgbtSegModel(cfg)
    restored.load_state(load_checkpoint(tmp_path / "ckpt.tseg"))
    assert _logits(restored).tobytes() == _logits(saved).tobytes()


def test_a_version_1_file_loads_into_the_same_model():
    saved = _trained_model(RunConfig())
    blob = _serialize_v1(saved.registry)
    state = deserialize(blob)
    # a v1 frozen record comes back as the digest a v2 file stores
    assert serialize(state) == serialize(saved.state_dict())
    restored = RgbtSegModel(RunConfig())
    restored.load_state(state)
    assert _logits(restored).tobytes() == _logits(saved).tobytes()


def test_a_version_1_file_with_other_frozen_data_is_refused():
    saved = RgbtSegModel(RunConfig())
    name, tensor = saved.registry.frozen()[0]
    tensor.data.flat[0] += 1.0
    restored = RgbtSegModel(RunConfig())
    with pytest.raises(ValueError, match=f"frozen parameter '{name}' does not match"):
        restored.load_state(deserialize(_serialize_v1(saved.registry)))


@pytest.mark.parametrize("fail", ["serialize", "write"])
def test_a_failed_save_leaves_the_old_file_whole(tmp_path, monkeypatch, fail):
    path = tmp_path / "ckpt.tseg"
    save_checkpoint(_state(), path)
    old = path.read_bytes()

    def interrupted(*args):
        raise KeyboardInterrupt

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    if fail == "serialize":
        monkeypatch.setattr(ckpt, "serialize", interrupted)
    else:
        monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises((KeyboardInterrupt, OSError)):
        save_checkpoint({"c": np.ones(7)}, path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_the_default_checkpoint_stays_within_the_size_budget():
    model = RgbtSegModel(RunConfig())
    trainable_bytes = sum(t.data.nbytes for _, t in model.registry.trainable())
    assert trainable_bytes == 685_696
    size = len(serialize(model.state_dict()))
    assert size <= trainable_bytes + CHECKPOINT_OVERHEAD_BUDGET, size


def test_loading_the_default_checkpoint_stays_within_the_memory_budget(tmp_path,
                                                                      traced_memory):
    path = tmp_path / "ckpt.tseg"
    save_checkpoint(RgbtSegModel(RunConfig()).state_dict(), path)
    model = RgbtSegModel(RunConfig())
    with traced_memory() as mem:
        model.load_state(load_checkpoint(path))
    assert mem.peak <= LOAD_PEAK_MIB_BUDGET * 2**20, f"{mem.peak / 2**20:.1f} MiB"


def test_saving_the_default_checkpoint_stays_within_the_memory_budget(tmp_path,
                                                                     traced_memory):
    model = RgbtSegModel(RunConfig())
    with traced_memory() as mem:
        save_checkpoint(model.state_dict(), tmp_path / "ckpt.tseg")
    assert mem.peak <= SAVE_PEAK_MIB_BUDGET * 2**20, f"{mem.peak / 2**20:.1f} MiB"


def test_a_state_dict_copies_trainable_arrays_and_digests_frozen_ones():
    model = RgbtSegModel(RunConfig())
    for name, value in model.state_dict().items():
        data = model.registry.get(name).data
        if model.registry.is_frozen(name):
            assert value == FrozenDigest.of(data), name
        else:
            assert not np.shares_memory(value, data), name
            assert value.tobytes() == data.tobytes(), name


@pytest.mark.parametrize("entry", ["digest_for_trainable", "array_for_frozen"])
def test_load_state_refuses_an_entry_of_the_other_kind_and_copies_nothing(entry):
    state = _trained_model(RunConfig()).state_dict()
    model = RgbtSegModel(RunConfig())
    if entry == "digest_for_trainable":
        name, tensor = model.registry.trainable()[-1]
        state[name] = FrozenDigest.of(state[name])
    else:
        name, tensor = model.registry.frozen()[-1]
        state[name] = tensor.data.copy()
    before = {n: t.data.tobytes() for n, (t, _) in model.registry.items()}
    with pytest.raises(ValueError, match=f"frozen flag mismatch for '{re.escape(name)}'"):
        model.load_state(state)
    assert {n: t.data.tobytes() for n, (t, _) in model.registry.items()} == before
