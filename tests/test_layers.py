"""Building blocks: linear/conv, layer norm, attention, SE gate, patch
embedding, grid reshapes, transposed conv, bilinear resize."""

import numpy as np
import pytest

from rgbtseg.layers import (ConvTranspose2x2, LayerNorm, Linear, Mlp,
                            MultiHeadAttention, PatchEmbed, SEBlock,
                            TransformerBlock, bilinear_resize, tokens_to_grid)
from rgbtseg.params import ParamRegistry
from rgbtseg.tensor import ShapeError, Tensor


def _reg():
    return ParamRegistry()


def test_linear_is_affine_map(rng):
    reg = _reg()
    lin = Linear(reg, "lin", 3, 5, rng)
    x = rng.normal(size=(7, 3))
    out = lin(Tensor(x)).data
    assert np.allclose(out, x @ lin.W.data + lin.b.data)


def test_linear_applies_to_last_axis_only(rng):
    reg = _reg()
    lin = Linear(reg, "lin", 4, 2, rng)
    x = rng.normal(size=(5, 6, 4))
    out = lin(Tensor(x)).data
    assert out.shape == (5, 6, 2)
    assert np.allclose(out[2, 3], x[2, 3] @ lin.W.data + lin.b.data)


def test_linear_shape_error(rng):
    lin = Linear(_reg(), "lin", 4, 2, rng)
    with pytest.raises(ShapeError):
        lin(Tensor(np.ones((3, 5))))


def test_zero_init_linear(rng):
    lin = Linear(_reg(), "lin", 4, 4, rng, zero_init=True)
    assert not lin.W.data.any()
    assert not lin.b.data.any()


def test_layer_norm_statistics(rng):
    ln = LayerNorm(_reg(), "ln", 16)
    x = rng.normal(size=(9, 16)) * 5 + 3
    out = ln(Tensor(x)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_attention_shapes_and_determinism(rng):
    attn = MultiHeadAttention(_reg(), "attn", 16, 4, rng)
    x = Tensor(rng.normal(size=(10, 16)))
    a = attn(x, x, x).data
    b = attn(x, x, x).data
    assert a.shape == (10, 16)
    assert np.array_equal(a, b)


def test_lora_does_not_shift_base_weights(rng):
    """Base Q/K/V/out draws are identical whether or not adapters exist."""
    r1 = np.random.default_rng(11)
    r2 = np.random.default_rng(11)
    plain = MultiHeadAttention(_reg(), "a", 16, 4, r1)
    adapted = MultiHeadAttention(_reg(), "a", 16, 4, r2, lora_rank=4)
    assert np.array_equal(plain.k_proj.W.data, adapted.k_proj.W.data)
    assert np.array_equal(plain.out_proj.W.data, adapted.out_proj.W.data)
    assert np.array_equal(plain.q_proj.W.data, adapted.q_proj.W0.data)


def test_se_block_gates_channels(rng):
    se = SEBlock(_reg(), "se", 8, 4, rng)
    x = rng.normal(size=(25, 8))  # a 5x5 grid's tokens
    out = se(Tensor(x)).data
    ratio = out / x
    # a single per-channel gate in (0, 1) applied to every token
    assert np.allclose(ratio, ratio[0], atol=1e-12)
    assert (ratio > 0).all() and (ratio < 1).all()


def test_patch_embed_row_major_flatten(rng):
    """Token i·Wp + j equals the projection of patch (i, j) flattened in
    (row, col, channel) order."""
    pe = PatchEmbed(_reg(), "pe", 2, 3, 6, rng)
    img = rng.normal(size=(4, 6, 3))  # a 2x3 patch grid
    out = pe(Tensor(img)).data
    assert out.shape == (2 * 3, 6)
    for i in range(2):
        for j in range(3):
            patch = img[2 * i:2 * i + 2, 2 * j:2 * j + 2, :].reshape(-1)  # row-major
            assert np.allclose(out[i * 3 + j], patch @ pe.W.data + pe.b.data)


def test_patch_embed_divisibility(rng):
    pe = PatchEmbed(_reg(), "pe", 8, 3, 16, rng)
    with pytest.raises(ShapeError):
        pe(Tensor(np.ones((65, 64, 3))))


def test_grid_token_round_trip():
    """Row-major tokens become the grid they were flattened from."""
    x = np.arange(24.0).reshape(2, 3, 4)
    back = tokens_to_grid(Tensor(x.reshape(2 * 3, 4)), 2, 3)
    assert np.array_equal(back.data, x)


def test_transformer_block_residual_structure(rng):
    blk = TransformerBlock(_reg(), "blk", 16, 4, rng)
    x = Tensor(rng.normal(size=(6, 16)))
    out = blk(x)
    assert out.shape == (6, 16)


def test_conv_transpose_doubles_resolution(rng):
    up = ConvTranspose2x2(_reg(), "up", 8, 4, rng)
    x = Tensor(rng.normal(size=(3, 5, 8)))
    assert up(x).shape == (6, 10, 4)


def test_bilinear_resize_identity(rng):
    x = Tensor(rng.normal(size=(4, 4, 2)))
    assert np.allclose(bilinear_resize(x, 4, 4).data, x.data)


def test_bilinear_resize_constant_preserved():
    x = Tensor(np.full((2, 2, 1), 3.5))
    out = bilinear_resize(x, 8, 8).data
    assert np.allclose(out, 3.5)


def test_mlp_shape(rng):
    mlp = Mlp(_reg(), "mlp", 8, rng, mult=4)
    assert mlp(Tensor(rng.normal(size=(5, 8)))).shape == (5, 8)
