"""Synthetic benchmark: determinism, class structure, dataset file I/O, and
loaded samples held at file precision."""

import json
import tracemalloc

import numpy as np
import pytest

from rgbtseg.config import RunConfig
from rgbtseg.data import (CLASS_NAMES, ManifestError, NOISE_SIGMA, RgbtSample,
                          gen_sample, gen_synthetic, load_dataset, save_dataset)
from rgbtseg.model import RgbtSegModel
from rgbtseg.pnm import read_pgm, read_ppm, to_float
from rgbtseg.prompts import ClassVocabulary
from rgbtseg.train import train


def test_deterministic_generation():
    a = gen_sample((64, 64), seed=5, index=3)
    b = gen_sample((64, 64), seed=5, index=3)
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.thermal, b.thermal)
    assert np.array_equal(a.labels, b.labels)


def test_samples_independent_of_batch_position():
    solo = gen_sample((64, 64), seed=5, index=3)
    batch = gen_synthetic(5, (64, 64), seed=5)
    assert np.array_equal(solo.labels, batch[3].labels)


def test_all_classes_present():
    for s in gen_synthetic(8, (64, 64), seed=11):
        assert set(np.unique(s.labels)) == {0, 1, 2, 3}


def test_thermal_only_is_rgb_camouflaged():
    """Class 2 pixels match the background color up to pixel noise, and are
    hot; this is what makes the fusion ablation well-posed."""
    for s in gen_synthetic(6, (64, 64), seed=21):
        bg = s.rgb[s.labels == 0]
        hidden = s.rgb[s.labels == 2]
        # compare medians: both classes share one pre-noise color
        assert np.abs(np.median(bg, axis=0) - np.median(hidden, axis=0)).max() \
            <= 4 * NOISE_SIGMA
        assert np.median(s.thermal[s.labels == 2]) \
            > np.median(s.thermal[s.labels == 0]) + 0.3


def test_rgb_only_is_thermally_cold():
    for s in gen_synthetic(6, (64, 64), seed=22):
        assert np.median(s.thermal[s.labels == 3]) \
            < np.median(s.thermal[s.labels == 0])


def test_value_ranges():
    s = gen_sample((64, 64), seed=0, index=0)
    assert s.rgb.min() >= 0.0 and s.rgb.max() <= 1.0
    assert s.thermal.min() >= 0.0 and s.thermal.max() <= 1.0


def test_save_load_round_trip(tmp_path):
    samples = gen_synthetic(3, (32, 32), seed=2, split="test")
    save_dataset(samples, tmp_path / "ds")
    loaded, classes = load_dataset(tmp_path / "ds" / "manifest.json")
    assert classes == CLASS_NAMES
    assert len(loaded) == 3
    assert all(s.split == "test" for s in loaded)
    # labels survive exactly; images within 8-bit quantization
    for orig, got in zip(samples, loaded):
        assert np.array_equal(orig.labels, got.labels)
        assert np.abs(orig.rgb - got.rgb).max() <= 1.0 / 255.0


def test_manifest_errors(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{]")
    with pytest.raises(ManifestError):
        load_dataset(path)
    path.write_text(json.dumps({"classes": ["a"]}))
    with pytest.raises(ManifestError):
        load_dataset(path)


def test_loaded_fields_read_bitwise_as_their_files_convert(tmp_path):
    manifest = save_dataset(gen_synthetic(3, (32, 48), seed=2), tmp_path)
    entries = json.loads(manifest.read_text())["samples"]
    loaded, _ = load_dataset(manifest)
    for entry, s in zip(entries, loaded):
        expected = {
            "rgb": to_float(read_ppm(tmp_path / entry["rgb"])),
            "thermal": to_float(read_pgm(tmp_path / entry["thermal"]))[..., None],
            "labels": read_pgm(tmp_path / entry["label"]).astype(np.int64),
        }
        for field, dtype in (("rgb", np.float64), ("thermal", np.float64),
                             ("labels", np.int64)):
            got, want = getattr(s, field), expected[field]
            assert got.dtype == want.dtype == dtype, field
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


def test_generated_fields_are_returned_as_they_are():
    s = gen_sample((32, 32), seed=0, index=0)
    assert s.rgb is s.rgb and s.thermal is s.thermal and s.labels is s.labels
    assert s.shapes == ((32, 32, 3), (32, 32, 1), (32, 32))


# the bytes of a pixel in the PPM/PGM triple: 3 RGB, 1 thermal, 1 label
FILE_BYTES_PER_PIXEL = 5


def test_loaded_samples_retain_the_file_bytes(tmp_path):
    n, size = 8, 64
    save_dataset(gen_synthetic(n, (size, size), seed=4), tmp_path)
    load_dataset(tmp_path)  # the first call may build module-level state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples, _ = load_dataset(tmp_path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(samples) == n
    # float64 images and int64 labels would retain 40 bytes per pixel
    assert retained <= 1.1 * FILE_BYTES_PER_PIXEL * n * size * size, retained


def test_training_on_loaded_samples_equals_training_on_float_copies(tmp_path):
    save_dataset(gen_synthetic(8, (32, 32), seed=6), tmp_path)
    loaded, names = load_dataset(tmp_path)
    copies = [RgbtSample(rgb=s.rgb, thermal=s.thermal, labels=s.labels,
                         split=s.split) for s in loaded]
    states = []
    for samples in (loaded, copies):
        cfg = RunConfig()
        cfg.train.steps = 3
        model = RgbtSegModel(cfg)
        vocab = ClassVocabulary.from_names(names, cfg.model.d_t, cfg.backbone_seed)
        train(model, vocab, samples, cfg.train)
        states.append(model.state_dict())
    for name, (arr, _) in states[0].items():
        assert arr.tobytes() == states[1][name][0].tobytes(), name
