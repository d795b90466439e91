"""Class vocabularies, toy text embeddings, point prompts."""

import numpy as np
import pytest

from rgbtseg.prompts import (ClassVocabulary, PointError, PointPrompt,
                             PromptEncoder, VocabularyFormatError,
                             load_text_embeddings, save_text_embeddings,
                             toy_text_embed)
from rgbtseg.model import RgbtSegModel
from rgbtseg.params import ParamRegistry


def test_toy_text_embed_unit_norm_and_deterministic():
    a = toy_text_embed("person", 32, seed=1)
    b = toy_text_embed("person", 32, seed=1)
    c = toy_text_embed("car", 32, seed=1)
    assert np.isclose(np.linalg.norm(a), 1.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_toy_text_embed_rejects_empty_name():
    with pytest.raises(ValueError):
        toy_text_embed("", 8)


def test_vocabulary_validation():
    with pytest.raises(VocabularyFormatError):
        ClassVocabulary([], np.zeros((0, 4)), 4)
    with pytest.raises(VocabularyFormatError):
        ClassVocabulary(["a", "a"], np.zeros((2, 4)), 4)
    with pytest.raises(VocabularyFormatError):
        ClassVocabulary(["a"], np.zeros((2, 4)), 4)


def test_vocabulary_json_round_trip(tmp_path):
    vocab = ClassVocabulary.from_names(["bg", "person", "car"], 16, seed=9)
    path = tmp_path / "classes.json"
    save_text_embeddings(path, vocab)
    loaded = load_text_embeddings(path)
    assert loaded.names == vocab.names
    assert np.allclose(loaded.embeddings, vocab.embeddings, atol=1e-12)


def test_vocabulary_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(VocabularyFormatError):
        load_text_embeddings(path)
    path.write_text('{"dim": 4, "classes": [{"name": "a", "embedding": [1, 0]}]}')
    with pytest.raises(VocabularyFormatError):
        load_text_embeddings(path)
    path.write_text('{"dim": 3, "classes": [{"name": "a", "embedding": [true, false, 0.5]}]}')
    with pytest.raises(VocabularyFormatError, match="class 'a' embedding"):
        load_text_embeddings(path)


def test_point_encoding_shapes_and_bounds():
    reg = ParamRegistry()
    enc = PromptEncoder(reg, 64, seed=0)
    empty = enc.encode_points(PointPrompt([]), (64, 64))
    assert empty.shape == (0, 64)
    two = enc.encode_points(PointPrompt([(3.0, 4.0, 1), (60.0, 10.0, 0)]), (64, 64))
    assert two.shape == (2, 64)
    with pytest.raises(PointError):
        enc.encode_points(PointPrompt([(65.0, 0.0, 1)]), (64, 64))
    with pytest.raises(PointError):
        enc.encode_points(PointPrompt([(1.0, 1.0, 2)]), (64, 64))


# a 64-wide, 48-high image: its first and last column and row, and just past them
@pytest.mark.parametrize("x, y", [(0.0, 0.0), (63.0, 0.0), (0.0, 47.0), (63.0, 47.0)])
def test_a_point_on_the_first_or_last_row_or_column_is_accepted(x, y):
    enc = PromptEncoder(ParamRegistry(), 64, seed=0)
    assert enc.encode_points(PointPrompt([(x, y, 1)]), (48, 64)).shape == (1, 64)


@pytest.mark.parametrize("x, y", [(64.0, 0.0), (0.0, 48.0), (-1.0, 0.0), (0.0, -1.0)])
def test_a_point_just_outside_the_image_is_refused(x, y):
    enc = PromptEncoder(ParamRegistry(), 64, seed=0)
    with pytest.raises(PointError, match=fr"point \({x}, {y}\) outside image 64x48"):
        enc.encode_points(PointPrompt([(x, y, 1)]), (48, 64))


def test_prompt_encoder_param_freezing(default_cfg):
    reg = RgbtSegModel(default_cfg).registry
    assert reg.is_frozen("prompt.fourier")
    assert not reg.is_frozen("prompt.point_labels")
    assert not reg.is_frozen("prompt.dense")
    assert not reg.get("prompt.dense").data.any()


def test_point_labels_are_gathered_by_index():
    reg = ParamRegistry()
    enc = PromptEncoder(reg, 8, seed=3)
    points = [(3.0, 4.0, 1), (60.0, 10.0, 0), (20.0, 30.0, 1)]
    out = enc.encode_points(PointPrompt(points), (64, 64))
    coords = np.array([((x + 0.5) / 64, (y + 0.5) / 64) for x, y, _ in points])
    pos = enc._fourier_encode(coords)
    assert np.array_equal(out.data, pos + enc.point_labels.data[[1, 0, 1]])
    out.sum().backward()
    assert np.array_equal(enc.point_labels.grad, [[1.0] * 8, [2.0] * 8])
