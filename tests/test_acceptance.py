"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (visible via pytest -rA). The seeded
training runs (criteria 3-5) are shared module-scoped fixtures; the full
200-step benchmark pair stays well under the 10-minute budget on a laptop
CPU (measured ~31 s full model, ~62 s baseline).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import checkpoint as ckpt_io
from rgbtseg import cli
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.losses import cross_entropy, dice_loss
from rgbtseg.metrics import iou_per_class, miou
from rgbtseg.model import RgbtSegModel
from rgbtseg.optim import AdamW
from rgbtseg.params import ParamRegistry, param_ledger
from rgbtseg.pnm import write_pgm, write_ppm
from rgbtseg.prompts import ClassVocabulary, save_text_embeddings
from rgbtseg.tensor import Tensor
from rgbtseg.train import evaluate, train
from rgbtseg.verify import run_suite

TRAIN_SEED, TEST_SEED = 1000, 2000


def _report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def bench():
    return (gen_synthetic(64, (64, 64), seed=TRAIN_SEED, split="train"),
            gen_synthetic(32, (64, 64), seed=TEST_SEED, split="test"))


def _train_and_eval(bench, **model_flags):
    train_set, test_set = bench
    cfg = RunConfig()
    for key, value in model_flags.items():
        assert hasattr(cfg.model, key)
        setattr(cfg.model, key, value)
    cfg.train.steps = 200
    model = RgbtSegModel(cfg)
    vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t,
                                       cfg.backbone_seed)
    train(model, vocab, train_set, cfg.train)
    return evaluate(model, vocab, test_set)["overall"]


@pytest.fixture(scope="module")
def run_full(bench):
    return _train_and_eval(bench)


@pytest.fixture(scope="module")
def run_baseline(bench):
    return _train_and_eval(bench, enable_dffm=False)


@pytest.fixture(scope="module")
def run_no_text(bench):
    return _train_and_eval(bench, enable_text=False)


def test_1_gradient_correctness():
    start = time.time()
    results, ok = run_suite()
    elapsed = time.time() - start
    worst = max(rep.max_rel_err for _, rep in results)
    full = dict(results)["full_model"].max_rel_err
    _report("1 gradcheck",
            ok and worst <= 1e-4 and elapsed <= 120.0,
            f"worst rel err {worst:.2e}, full model {full:.2e}, {elapsed:.1f}s")


def test_2_init_identity(default_cfg, vocab, rng):
    model = RgbtSegModel(default_cfg)
    rgb = Tensor(rng.uniform(0.0, 1.0, (64, 64, 3)))
    th_a = Tensor(rng.uniform(0.0, 1.0, (64, 64, 1)))
    th_b = Tensor(rng.uniform(0.0, 1.0, (64, 64, 1)))
    enc_a = model.encoder.forward(rgb, th_a).data
    enc_b = model.encoder.forward(rgb, th_b).data
    thermal_independent = np.array_equal(enc_a, enc_b)

    cfg_off = RunConfig()
    cfg_off.model.enable_decoder_lora = False
    model_off = RgbtSegModel(cfg_off)
    logits_on = model.forward(rgb, th_a, vocab).logits.data
    logits_off = model_off.forward(rgb, th_a, vocab).logits.data
    lora_identity = np.array_equal(logits_on, logits_off)

    _report("2 init-identity", thermal_independent and lora_identity,
            f"encoder thermal-independent={thermal_independent}, "
            f"decoder LoRA-identity={lora_identity}")


def test_3_freeze_invariance(bench, vocab):
    train_set, _ = bench
    cfg = RunConfig()
    cfg.train.steps = 50
    model = RgbtSegModel(cfg)
    before = {name: (arr.copy(), frozen)
              for name, (arr, frozen) in model.state_dict().items()}
    train(model, vocab, train_set, cfg.train)
    after = model.state_dict()

    frozen_ok = all(np.array_equal(before[n][0], arr)
                    for n, (arr, frozen) in after.items() if frozen)
    groups = {
        "thermal_embed": lambda n: n.startswith("encoder.thermal_embed"),
        "dffm": lambda n: n.startswith("encoder.dffm"),
        "lora": lambda n: ".lora." in n,
        "text_head": lambda n: n.startswith("decoder.text_attn")
                               or n.startswith("decoder.head"),
    }
    changed = {
        g: any(not np.array_equal(before[n][0], arr)
               for n, (arr, frozen) in after.items() if not frozen and match(n))
        for g, match in groups.items()
    }
    _report("3 freeze-invariance", frozen_ok and all(changed.values()),
            f"frozen unchanged={frozen_ok}, trainable changed={changed}")


def test_4_fusion_ablation(run_full, run_baseline):
    # class 2 is "thermal_only"; measured gap at calibration time: 0.548
    gap = run_full.per_class[2] - run_baseline.per_class[2]
    _report("4 fusion-ablation", gap >= 0.20,
            f"thermal-only IoU {run_full.per_class[2]:.3f} vs "
            f"{run_baseline.per_class[2]:.3f}, gap {gap:.3f} >= 0.20")


def test_5_text_ablation(run_full, run_no_text):
    delta = run_full.miou - run_no_text.miou
    _report("5 text-ablation", delta >= -0.01,
            f"mIoU with text {run_full.miou:.3f} vs without "
            f"{run_no_text.miou:.3f}, delta {delta:+.3f} >= -0.01")


def test_6_class_permutation_equivariance(default_cfg, rng, tmp_path):
    model = RgbtSegModel(default_cfg)
    rgb = rng.uniform(0.0, 1.0, (64, 64, 3))
    th = rng.uniform(0.0, 1.0, (64, 64, 1))

    module_ok = True
    for c in (2, 4, 8):
        names = [f"class_{i}" for i in range(c)]
        vocab = ClassVocabulary.from_names(names, default_cfg.model.d_t, seed=5)
        perm = rng.permutation(c)
        permuted = ClassVocabulary([names[i] for i in perm],
                                   vocab.embeddings[perm], vocab.dim)
        logits = model.forward(rgb, th, vocab).logits.data
        logits_p = model.forward(rgb, th, permuted).logits.data
        module_ok &= np.array_equal(logits[..., perm], logits_p)

    # end to end through cmd_infer: permuting the classes file permutes ids
    out = tmp_path / "run"
    out.mkdir()
    ckpt_io.save_checkpoint(model.state_dict(), out / "checkpoint.tseg")
    (out / "config.json").write_text(default_cfg.to_json())
    write_ppm(tmp_path / "in_rgb.ppm", (rgb * 255).astype(np.uint8))
    write_pgm(tmp_path / "in_th.pgm", (th[:, :, 0] * 255).astype(np.uint8))
    vocab = ClassVocabulary.from_names(CLASS_NAMES, default_cfg.model.d_t,
                                       default_cfg.backbone_seed)
    perm = np.array([2, 0, 3, 1])
    permuted = ClassVocabulary([CLASS_NAMES[i] for i in perm],
                               vocab.embeddings[perm], vocab.dim)
    save_text_embeddings(tmp_path / "classes_a.json", vocab)
    save_text_embeddings(tmp_path / "classes_b.json", permuted)
    masks = {}
    for tag in ("a", "b"):
        rc = cli.main(["infer", "--ckpt", str(out / "checkpoint.tseg"),
                       "--rgb", str(tmp_path / "in_rgb.ppm"),
                       "--thermal", str(tmp_path / "in_th.pgm"),
                       "--classes", str(tmp_path / f"classes_{tag}.json"),
                       "--out", str(tmp_path / f"mask_{tag}.pgm")])
        assert rc == 0
        from rgbtseg.pnm import read_pgm
        masks[tag] = read_pgm(tmp_path / f"mask_{tag}.pgm")
    # id j under the permuted vocabulary names the original class perm[j]
    cli_ok = np.array_equal(perm[masks["b"]], masks["a"])
    _report("6 permutation-equivariance", module_ok and cli_ok,
            f"module bitwise={module_ok}, cmd_infer bitwise={cli_ok}")


def test_7_metric_oracle(rng):
    def oracle(pred, gt, c):
        ious = []
        for k in range(c):
            inter = np.sum((pred == k) & (gt == k))
            union = np.sum((pred == k) | (gt == k))
            ious.append(np.nan if union == 0 else inter / union)
        return np.array(ious)

    exact = True
    for _ in range(100):
        c = int(rng.integers(2, 6))
        pred = rng.integers(0, c, (16, 16))
        gt = rng.integers(0, c, (16, 16))
        ours = iou_per_class(pred, gt, c)
        ref = oracle(pred, gt, c)
        exact &= np.array_equal(ours, ref, equal_nan=True)
        present = ref[~np.isnan(ref)]
        exact &= miou(ours) == present.mean()
    _report("7 metric-oracle", exact, "100 random 16x16 pairs, exact match")


def test_8_analytic_losses():
    logits = Tensor(np.zeros((3, 5, 4)))  # uniform over C=4 everywhere
    labels = np.zeros((3, 5), dtype=np.int64)
    ce_err = abs(cross_entropy(logits, labels).item() - math.log(4.0))

    # a (numerically) perfect prediction: one-hot at huge margin
    labels2 = np.arange(16).reshape(4, 4) % 3
    perfect = np.full((4, 4, 3), -1e4)
    perfect[np.arange(4)[:, None], np.arange(4)[None, :], labels2] = 1e4
    dice_val = abs(dice_loss(Tensor(perfect), labels2).item())

    reg = ParamRegistry()
    p = reg.register("p", Tensor(np.array([2.0, -3.0])), frozen=False)
    opt = AdamW(reg, lr=5e-4, weight_decay=0.01)
    before = p.data.copy()
    opt.step()  # no gradient: pure decoupled decay
    shrink_err = np.abs(p.data - before * (1.0 - 5e-4 * 0.01)).max()

    _report("8 analytic-losses",
            ce_err <= 1e-12 and dice_val <= 1e-12 and shrink_err <= 1e-15,
            f"CE err {ce_err:.1e}, dice {dice_val:.1e}, "
            f"AdamW shrink err {shrink_err:.1e}")


def test_9_ledger(default_cfg):
    m = default_cfg.model
    d, p, r, n, hidden = m.d, m.patch, m.lora_rank, m.depth, m.d // m.se_reduction
    d_m = d // 4
    closed_form = (
        (p * p * 1 * d + d)                                   # thermal embed
        + n * (3 * (d * d + d) + (d * hidden + hidden) + (hidden * d + d))  # dffm
        + n * 2 * 2 * r * d                                   # encoder LoRA q+v
        + m.decoder_layers * 2 * 2 * 2 * r * d                # decoder LoRA
        + (d * (4 * (d // 2)) + d // 2)                       # upscale stage 1
        + ((d // 2) * (4 * d_m) + d_m)                        # upscale stage 2
        + ((d_m + m.d_v) * m.d_k + m.d_k)                     # class head
        + (d_m * m.d_k + m.d_t * m.d_k + m.d_t * m.d_v)       # text attention
        + (d + m.mask_tokens * d + d + 2 * d)                 # tokens + prompts
    )
    ledger = param_ledger(RgbtSegModel(default_cfg).registry)
    match = ledger.trainable_total == closed_form

    def total(**flags):
        cfg = RunConfig()
        for k, v in flags.items():
            setattr(cfg.model, k, v)
        return param_ledger(RgbtSegModel(cfg).registry).trainable_total

    all_off = total(enable_dffm=False, enable_decoder_lora=False,
                    enable_text=False)
    monotone = all_off < ledger.trainable_total
    for flag in ("enable_dffm", "enable_decoder_lora", "enable_text"):
        monotone &= total(**{flag: False}) < ledger.trainable_total
    _report("9 ledger", match and monotone,
            f"trainable {ledger.trainable_total} == closed form {closed_form}, "
            f"flags-off {all_off} < full")


def test_10_persistence(default_cfg, vocab, rng, tmp_path):
    model = RgbtSegModel(default_cfg)
    rgb = rng.uniform(0.0, 1.0, (64, 64, 3))
    th = rng.uniform(0.0, 1.0, (64, 64, 1))
    logits_before = model.forward(rgb, th, vocab).logits.data

    blob = ckpt_io.serialize(model.state_dict())
    path = tmp_path / "model.tseg"
    path.write_bytes(blob)
    reread = ckpt_io.serialize(ckpt_io.load_checkpoint(path))
    byte_identical = reread == blob

    restored = RgbtSegModel(default_cfg)
    restored.load_state(ckpt_io.deserialize(blob))
    output_identical = np.array_equal(
        restored.forward(rgb, th, vocab).logits.data, logits_before)

    import struct
    import zlib
    bad_version_body = blob[:4] + b"\xff\xff\xff\xff" + blob[8:-4]
    bad_version = bad_version_body + struct.pack("<I", zlib.crc32(bad_version_body))
    typed = True
    corruptions = [
        (b"XXXX" + blob[4:], ckpt_io.BadMagicError),
        (bad_version, ckpt_io.BadVersionError),
        (blob[:-5] + bytes([blob[-5] ^ 0x01]) + blob[-4:], ckpt_io.ChecksumError),
        (blob[: len(blob) // 2], ckpt_io.CheckpointError),
    ]
    for bad, expected in corruptions:
        try:
            ckpt_io.deserialize(bad)
            typed = False
        except expected:
            pass
        except Exception:
            typed = False
    _report("10 persistence",
            byte_identical and output_identical and typed,
            f"round-trip bytes={byte_identical}, forward={output_identical}, "
            f"typed errors={typed}")
