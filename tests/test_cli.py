"""Operator surface: commands, determinism, exit codes."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import cli, verify
from rgbtseg.checkpoint import (FrozenDigest, load_checkpoint, save_checkpoint,
                                serialize)
from rgbtseg.config import RunConfig
from rgbtseg.model import RgbtSegModel
from rgbtseg.optim import AdamW
from rgbtseg.pnm import read_pgm, write_pgm
from rgbtseg.prompts import (ClassVocabulary, VocabularyFormatError, load_text_embeddings,
                             save_text_embeddings)


def _dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    assert cli.main(["gen-data", "--out", str(out), "--n", "6",
                     "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def short_run(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("run") / "out"
    assert cli.main(["train", "--data", str(dataset), "--out", str(out),
                     "--steps", "2"]) == 0
    return out


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["gen-data", "--out", str(out), "--n", "2",
                         "--seed", "9"]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_gen_data_bad_size_exits_2(tmp_path):
    out = tmp_path / "ds"
    assert cli.main(["gen-data", "--out", str(out), "--n", "1",
                     "--size", "65"]) == 2
    assert not out.exists()


def test_train_outputs(short_run):
    for name in ("checkpoint.tseg", "metrics.tsv", "config.json",
                 "classes.json"):
        assert (short_run / name).exists(), name
    lines = (short_run / "metrics.tsv").read_text().strip().splitlines()
    assert len(lines) == 2  # one line per step
    step, loss, miou = lines[0].split("\t")
    assert step == "0"
    float(loss), float(miou)


def test_train_zero_steps_equals_init(tmp_path, dataset):
    out = tmp_path / "zero"
    assert cli.main(["train", "--data", str(dataset), "--out", str(out),
                     "--steps", "0"]) == 0
    state = load_checkpoint(out / "checkpoint.tseg")
    fresh = RgbtSegModel(RunConfig()).state_dict()
    assert set(state) == set(fresh)
    for name, value in state.items():
        assert type(value) is type(fresh[name])
        if isinstance(value, FrozenDigest):
            assert value == fresh[name]
        else:
            assert value.tobytes() == fresh[name].tobytes()


def test_eval_deterministic(short_run, dataset, tmp_path):
    results = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}.json"
        assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                         "--data", str(dataset), "--out", str(out)]) == 0
        results.append(out.read_bytes())
    assert results[0] == results[1]
    doc = json.loads(results[0])
    assert "overall" in doc and "miou" in doc["overall"]


def test_eval_without_a_classes_file_scores_the_manifest_names(short_run, dataset,
                                                              tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("checkpoint.tseg", "config.json"):
        shutil.copy(short_run / name, bare)
    docs = []
    for run in (short_run, bare):
        out = tmp_path / f"{run.name}.json"
        assert cli.main(["eval", "--ckpt", str(run / "checkpoint.tseg"),
                         "--data", str(dataset), "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    classes = json.loads((dataset / "manifest.json").read_text())["classes"]
    assert list(docs[1]["overall"]["per_class"]) == classes
    # the run's classes.json holds the toy embeddings of the same names
    assert docs[1] == docs[0]


def test_eval_missing_checkpoint_exits_2(dataset, tmp_path):
    assert cli.main(["eval", "--ckpt", str(tmp_path / "nope.tseg"),
                     "--data", str(dataset),
                     "--out", str(tmp_path / "r.json")]) == 2


def test_eval_config_mismatching_checkpoint_exits_2(short_run, dataset, tmp_path, capsys):
    cfg = RunConfig()
    cfg.model.enable_dffm = False
    path = tmp_path / "no_dffm.json"
    path.write_text(cfg.to_json())
    assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                     "--data", str(dataset), "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter set mismatch")
    assert len(err.splitlines()) == 1


def _other_backbone_seed(run, tmp_path):
    """The run's checkpoint with a ``--config`` of another backbone_seed; every
    frozen tensor differs, so the first one is named."""
    cfg = RunConfig.from_json_file(run / "config.json")
    cfg.backbone_seed += 1
    config = tmp_path / "other_seed.json"
    config.write_text(cfg.to_json())
    frozen = [n for n, (_, f) in RgbtSegModel(cfg).registry.items() if f]
    return [str(run / "checkpoint.tseg"), "--config", str(config)], frozen[0]


def _flipped_digest(run, tmp_path):
    """A copy of the run's checkpoint with one byte of the last frozen
    record's digest flipped and the checksum recomputed."""
    blob = (run / "checkpoint.tseg").read_bytes()
    name = [n for n, v in load_checkpoint(run / "checkpoint.tseg").items()
            if isinstance(v, FrozenDigest)][-1]
    nb = name.encode()
    header = blob.index(struct.pack("<I", len(nb)) + nb) + 4 + len(nb)
    digest = header + 2 + 4 * blob[header + 1] + 1  # dtype, ndim, dims, frozen
    body = blob[:digest] + bytes([blob[digest] ^ 0x01]) + blob[digest + 1:-4]
    ckpt = tmp_path / "bare" / "checkpoint.tseg"
    ckpt.parent.mkdir()
    for sibling in ("config.json", "classes.json"):
        shutil.copy(run / sibling, ckpt.parent)
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return [str(ckpt)], name


@pytest.mark.parametrize("command", ["eval", "infer"])
@pytest.mark.parametrize("case", [_other_backbone_seed, _flipped_digest],
                         ids=["other_backbone_seed", "flipped_digest_byte"])
def test_frozen_weight_mismatch_exits_2_naming_the_parameter(short_run, dataset, tmp_path,
                                                             capsys, command, case):
    ckpt_args, name = case(short_run, tmp_path)
    out = tmp_path / "out"
    argv = {"eval": ["--data", str(dataset)],
            "infer": ["--rgb", str(dataset / "sample_0000_rgb.ppm"),
                      "--thermal", str(dataset / "sample_0000_th.pgm")]}[command]
    capsys.readouterr()
    assert cli.main([command, "--ckpt", *ckpt_args, *argv, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"error: frozen parameter '{name}' does not match the "
                          "checkpoint's SHA-256")
    assert len(err.splitlines()) == 1
    assert stdout == ""
    assert not out.exists()


def test_manifest_entry_missing_field_exits_2(dataset, tmp_path, capsys):
    doc = json.loads((dataset / "manifest.json").read_text())
    del doc["samples"][0]["label"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--data", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: manifest sample 0 has no 'label' field\n"


def test_train_without_train_split_warns(tmp_path, capsys):
    data = tmp_path / "ds"
    assert cli.main(["gen-data", "--out", str(data), "--n", "1",
                     "--split", "test"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                     "--steps", "0"]) == 0
    err = capsys.readouterr().err
    assert err == "warning: no samples tagged 'train'; training on all samples\n"


def test_train_refusal_without_train_split_is_one_line(tmp_path, capsys):
    """A refusal after the fallback to every sample prints no warning."""
    data = tmp_path / "ds"
    assert cli.main(["gen-data", "--out", str(data), "--n", "1",
                     "--split", "test"]) == 0
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(out),
                     "--classes", _three_class_vocab(tmp_path), "--steps", "1"]) == 2
    assert capsys.readouterr().err == ("error: manifest sample 0: labels must lie in "
                                       "[0, 3) or equal ignore=255; found 0..3\n")
    assert not out.exists()


def test_train_on_a_manifest_whose_pixels_are_all_ignored_logs_nan_miou(tmp_path, capsys):
    """The losses' warning is one line, like the program's own."""
    data = tmp_path / "ds"
    assert cli.main(["gen-data", "--out", str(data), "--n", "2", "--size", "32"]) == 0
    for path in data.glob("*_label.pgm"):
        write_pgm(path, np.full_like(read_pgm(path), 255))
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(out), "--steps", "2"]) == 0
    assert capsys.readouterr().err == ("warning: every pixel of an image is ignored; "
                                       "its loss is defined as 0\n")
    assert [line.split("\t")[2] for line in
            (out / "metrics.tsv").read_text().splitlines()] == ["nan", "nan"]
    assert (out / "checkpoint.tseg").exists()


def test_infer_deterministic_and_in_range(short_run, dataset, tmp_path):
    rgb = str(dataset / "sample_0000_rgb.ppm")
    th = str(dataset / "sample_0000_th.pgm")
    masks = []
    for tag in ("a", "b"):
        out = tmp_path / f"mask_{tag}.pgm"
        assert cli.main(["infer", "--ckpt", str(short_run / "checkpoint.tseg"),
                         "--rgb", rgb, "--thermal", th, "--out", str(out),
                         "--overlay", str(tmp_path / f"ov_{tag}.ppm")]) == 0
        masks.append(out.read_bytes())
    assert masks[0] == masks[1]
    mask = read_pgm(tmp_path / "mask_a.pgm")
    assert mask.min() >= 0 and mask.max() < 4


def test_infer_with_points(short_run, dataset, tmp_path):
    assert cli.main(["infer", "--ckpt", str(short_run / "checkpoint.tseg"),
                     "--rgb", str(dataset / "sample_0000_rgb.ppm"),
                     "--thermal", str(dataset / "sample_0000_th.pgm"),
                     "--points", "10,12,1;40,40,0",
                     "--out", str(tmp_path / "m.pgm")]) == 0


def test_params_ledger_output(capsys):
    assert cli.main(["params"]) == 0
    out = capsys.readouterr().out
    assert "total trainable" in out
    assert "85712" in out


def test_params_flag_monotonicity(tmp_path, capsys):
    cfg = RunConfig()
    cfg.model.enable_dffm = False
    cfg.model.enable_decoder_lora = False
    cfg.model.enable_text = False
    path = tmp_path / "off.json"
    path.write_text(cfg.to_json())
    assert cli.main(["params", "--config", str(path)]) == 0
    off_out = capsys.readouterr().out

    def total(text):
        for line in text.splitlines():
            if line.startswith("total trainable"):
                return int(line.split()[-1])
        raise AssertionError("missing total")

    assert total(off_out) < 85712


def test_bad_config_exits_2(tmp_path, dataset):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"patch": 7}}))
    assert cli.main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "o"), "--config", str(path)]) == 2
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc, message", [
    ({"train": {"batch": 2.5}}, "train.batch must be an int, got 2.5"),
    ({"model": {"d": 64.0}}, "model.d must be an int, got 64.0"),
    ({"model": {"heads": True}}, "model.heads must be an int, got True"),
    ({"train": {"steps": 1.5}}, "train.steps must be an int, got 1.5"),
    ({"train": {"ignore_label": 2}},
     "train.ignore_label is retired; it loads only as 255, got 2"),
    (None, "config must be an object, got None"),
    ("abc", "config must be an object, got 'abc'"),
    ([1], "config must be an object, got [1]"),
    ({"model": 3}, "config section 'model' must be an object, got 3"),
    ({"train": []}, "config section 'train' must be an object, got []"),
    ({"model": {"x": 1, "d": 64, "a": 2}},
     "unknown keys in config section 'model': ['a', 'x']"),
    ({"train": {"step": 3}}, "unknown keys in config section 'train': ['step']"),
    ({"train": {"lr": float("nan")}}, "train.lr must be finite, got nan"),
    ({"model": {"lora_alpha": float("inf")}},
     "model.lora_alpha is retired; it loads only as null or equal to lora_rank, got inf"),
    ({"train": {"lambda_dice": float("inf")}}, "train.lambda_dice must be finite, got inf"),
    ({"train": {"weight_decay": float("-inf")}},
     "train.weight_decay must be finite, got -inf"),
    ({"train": {"lr": 0}},
     "invalid training hyperparameter: train.lr must be positive, got 0"),
    ({"train": {"lambda_dice": -0.5}},
     "invalid training hyperparameter: train.lambda_dice must be non-negative, got -0.5"),
    ({"model": {"lora_alpha": -1.0}},
     "model.lora_alpha is retired; it loads only as null or equal to lora_rank, got -1.0"),
    ({"train": {"cosine_lr": True}},
     "train.cosine_lr is retired; it loads only as false, got True"),
    ({"model": {"heads": 5}}, "d 64 not divisible by heads 5"),
    ({"model": {"se_reduction": 5}},
     "model.se_reduction is retired; it loads only as 4, got 5"),
    ({"model": {"patch": 8.0}}, "model.patch is retired; it loads only as 8, got 8.0"),
    ({"backbone_seed": -1}, "backbone_seed must be non-negative, got -1"),
    ({"train": {"seed": -1}}, "train.seed must be non-negative, got -1"),
    ({"model": {"lora_rank": 64}}, "lora_rank must satisfy 1 <= r < d, got 64"),
    ({"model": {"lora_rank": 0}}, "lora_rank must be positive, got 0"),
    ({"model": {"d": 0}}, "d must be positive, got 0"),
    ({"model": {"d": 66, "heads": 2}}, "d 66 must be divisible by 4 (upscaling)"),
    ({"x": 1}, "unknown config keys: ['x']"),
    ({"train": {"steps": -1}}, "steps must be >= 0 and batch >= 1"),
], ids=["batch_float", "d_float", "heads_bool", "steps_float", "ignore_in_range",
        "top_null", "top_string", "top_list", "model_not_object", "train_not_object",
        "model_unknown_key", "train_unknown_key", "lr_nan", "lora_alpha_inf",
        "lambda_dice_inf", "weight_decay_minus_inf", "lr_zero", "lambda_dice_negative",
        "lora_alpha_negative", "cosine_lr_true", "heads_not_dividing_d",
        "se_reduction_retired", "patch_retired_float",
        "backbone_seed_negative", "seed_negative", "lora_rank_not_below_d",
        "lora_rank_zero", "d_zero", "d_not_divisible_by_4", "top_unknown_key", "steps_negative"])
def test_bad_config_exits_2_with_one_line(tmp_path, dataset, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["train", "--data", str(dataset), "--out", str(tmp_path / "o"),
                     "--config", str(path), "--steps", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""


def _run_python(*argv):
    """``python argv`` in a fresh process that imports this checkout's
    rgbtseg, so that everything it prints to stderr, numpy's own warnings
    included, is captured."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def _run_cli(*argv):
    return _run_python("-m", "rgbtseg.cli", *argv)


def test_a_training_step_and_a_predict_load_no_scipy_module():
    script = """
import sys
import rgbtseg.cli, rgbtseg.verify
from rgbtseg import train
from rgbtseg.config import RunConfig
from rgbtseg.data import CLASS_NAMES, gen_synthetic
from rgbtseg.model import RgbtSegModel
from rgbtseg.prompts import ClassVocabulary

cfg = RunConfig()
cfg.train.steps = 1
model = RgbtSegModel(cfg)
vocab = ClassVocabulary.from_names(CLASS_NAMES, cfg.model.d_t, cfg.backbone_seed)
samples = gen_synthetic(4, (32, 32), seed=0)
train.train(model, vocab, samples, cfg.train)
model.predict(samples[0].rgb, samples[0].thermal, vocab)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_train_on_empty_manifest_exits_2_with_one_line(tmp_path):
    data = tmp_path / "ds"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"classes": ["a", "b"],
                                                    "samples": []}))
    proc = _run_cli("train", "--data", data, "--out", tmp_path / "o")
    assert proc.returncode == 2
    assert proc.stderr == "error: no training samples\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [{"train": {"weight_decay": 1e9}},
                                 {"train": {"lr": 1e300}}],
                         ids=["weight_decay_1e9", "lr_1e300"])
def test_diverging_run_exits_3_with_one_stderr_line(dataset, tmp_path, doc):
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli("train", "--data", dataset, "--out", tmp_path / "o",
                    "--config", path, "--steps", "100")
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("numeric abort: non-finite value")


def test_nan_poisoned_mid_run_exits_3_naming_the_op(dataset, tmp_path, capsys,
                                                    monkeypatch):
    step = AdamW.step

    def poisoning_step(self):
        step(self)
        if self.t == 2:
            self.registry.get("encoder.thermal_embed.W").data[0, 0] = np.nan

    monkeypatch.setattr(AdamW, "step", poisoning_step)
    capsys.readouterr()
    assert cli.main(["train", "--data", str(dataset), "--out", str(tmp_path / "o"),
                     "--steps", "4"]) == 3
    err = capsys.readouterr().err
    assert err == "numeric abort: non-finite value produced by op 'linear'\n"


def test_a_run_directory_with_the_retired_keys_still_evaluates(short_run, dataset,
                                                               tmp_path):
    """Before eleven keys were retired, ``to_json`` wrote them into every
    config.json, at the values below; such a run directory loads the same
    config and evaluates to the same bytes."""
    doc = json.loads((short_run / "config.json").read_text())
    old_doc = json.loads((short_run / "config.json").read_text())
    old_doc["model"].update(image_size=64, patch=8, lora_alpha=None, decoder_layers=2,
                            mask_tokens=4, d_k=32, d_v=32, se_reduction=4)
    old_doc["train"].update(dice_smooth=1.0, ignore_label=255, cosine_lr=False)
    assert len(old_doc["model"]) + len(old_doc["train"]) + 1 == 27
    old = tmp_path / "old_run"
    shutil.copytree(short_run, old)
    (old / "config.json").write_text(json.dumps(old_doc, indent=2))
    assert RunConfig.from_json_file(old / "config.json") == RunConfig.from_dict(doc)
    outs = []
    for run in (short_run, old):
        outs.append(tmp_path / f"eval_{run.name}.json")
        assert cli.main(["eval", "--ckpt", str(run / "checkpoint.tseg"),
                         "--data", str(dataset), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("model", [{"lora_alpha": 4.0}, {"lora_rank": 2, "lora_alpha": 2}])
def test_a_retired_lora_alpha_equal_to_the_rank_loads(model):
    rank = model.get("lora_rank", 4)
    assert RunConfig.from_dict({"model": model}).model.lora_rank == rank


def test_print_config_round_trips(capsys):
    assert cli.main(["--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    RunConfig.from_dict(doc)


def test_gradcheck_command_exits_0(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    # the full-model check's line names its worst pick
    worst_pick, = re.findall(r"^  ok  full_model .*, worst at (\S+)$", out, re.M)
    assert worst_pick in verify.PICKS
    *_, worst, wall = out.splitlines()
    assert worst.startswith("worst: ")
    assert re.fullmatch(r"suite wall time: \d+\.\d\d s", wall)


@pytest.mark.parametrize("num_classes", [3, 5])
def test_eval_vocab_mismatching_text_free_head_exits_2(dataset, tmp_path, capsys,
                                                        num_classes):
    cfg = RunConfig()
    cfg.model.enable_dffm = False
    cfg.model.enable_decoder_lora = False
    cfg.model.enable_text = False
    config = tmp_path / "baseline.json"
    config.write_text(cfg.to_json())
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(dataset), "--out", str(run),
                     "--config", str(config), "--steps", "0"]) == 0
    classes = tmp_path / "classes.json"
    save_text_embeddings(classes, ClassVocabulary.from_names(
        [f"class_{i}" for i in range(num_classes)], cfg.model.d_t))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.tseg"),
                     "--data", str(dataset), "--classes", str(classes),
                     "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {num_classes} classes do not match the text-free "
                   "head's 4\n")


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(samples=5), "manifest needs 'classes' and 'samples' lists"),
    (lambda doc: doc.update(samples=[5]), "manifest sample 0 is not an object"),
    (lambda doc: doc["samples"][0].update(rgb=5),
     "manifest sample 0 field 'rgb' is not a string"),
    (lambda doc: doc["samples"][0].update(split=["train"]),
     "manifest sample 0 field 'split' is not a string"),
    (lambda doc: doc.update(classes=[1, 2, 3, 4]),
     "manifest 'classes' must be a non-empty list of names"),
    (lambda doc: doc.update(classes=[]),
     "manifest 'classes' must be a non-empty list of names"),
], ids=["samples_not_list", "sample_not_object", "path_not_string", "split_not_string",
        "classes_not_strings", "classes_empty"])
def test_manifest_malformed_sample_exits_2(dataset, tmp_path, capsys, edit, message):
    doc = json.loads((dataset / "manifest.json").read_text())
    edit(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["train", "--data", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_sample_size_mismatch_exits_2_before_any_output(short_run, dataset, tmp_path,
                                                        capsys, command):
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    write_pgm(data / "sample_0003_label.pgm", np.zeros((32, 32), np.uint8))
    out = tmp_path / "o"
    argv = (["train", "--data", str(data), "--out", str(out), "--steps", "1"]
            if command == "train" else
            ["eval", "--ckpt", str(short_run / "checkpoint.tseg"), "--data", str(data),
             "--out", str(out)])
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("error: manifest sample 3: label is 32x32, "
                                       "rgb is 64x64\n")
    assert not out.exists()


def _data_with_a_label_9(dataset, tmp_path):
    """The dataset with one pixel of sample 2's 4-class label map set to 9."""
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    labels = read_pgm(data / "sample_0002_label.pgm")
    labels[5, 7] = 9
    write_pgm(data / "sample_0002_label.pgm", labels)
    return data


LABEL_9 = ("error: manifest sample 2: labels must lie in [0, 4) or equal ignore=255; "
           "found 0..9\n")


def test_a_label_outside_the_classes_exits_2_before_any_output(dataset, tmp_path, capsys):
    data = _data_with_a_label_9(dataset, tmp_path)
    out = tmp_path / "o"
    capsys.readouterr()
    assert cli.main(["train", "--data", str(data), "--out", str(out), "--steps", "1"]) == 2
    assert capsys.readouterr().err == LABEL_9
    assert not out.exists()


def test_eval_refuses_a_label_outside_the_classes_before_predicting(
        short_run, dataset, tmp_path, capsys, monkeypatch):
    data = _data_with_a_label_9(dataset, tmp_path)
    out = tmp_path / "r.json"
    predicted = []
    monkeypatch.setattr(RgbtSegModel, "predict", lambda *a, **k: predicted.append(a))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                     "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == LABEL_9
    assert predicted == []
    assert not out.exists()


def _strict_json(text):
    """``text`` parsed as JSON that holds no ``NaN`` or ``Infinity``."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_eval_scores_a_split_with_no_labelled_pixel_as_null(short_run, dataset, tmp_path,
                                                            capsys):
    """Its row prints ``nan`` and writes ``null``, and the other rows are
    scored as if it were not there."""
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    for entry in doc["samples"][:2]:
        entry["split"] = "unlabelled"
        write_pgm(data / entry["label"], np.full_like(read_pgm(data / entry["label"]), 255))
    (data / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_eval(short_run / "checkpoint.tseg", data, tmp_path)) == 0
    out, err = capsys.readouterr()
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert err == "" and rows["unlabelled"] == ["absent"] * 4 + ["nan"]
    result = _strict_json((tmp_path / "r.json").read_text())
    assert result["unlabelled"] == {"per_class": dict.fromkeys(doc["classes"]),
                                    "miou": None, "num_samples": 2}
    assert result["train"]["per_class"] == result["overall"]["per_class"]
    assert result["train"]["miou"] == result["overall"]["miou"] > 0


def _empty_manifest(tmp_path):
    data = tmp_path / "ds"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"classes": ["a", "b"],
                                                    "samples": []}))
    return data


def test_eval_on_an_empty_manifest_exits_2_naming_the_cause(short_run, tmp_path, capsys):
    data = _empty_manifest(tmp_path)
    capsys.readouterr()
    assert cli.main(_eval(short_run / "checkpoint.tseg", data, tmp_path)) == 2
    assert capsys.readouterr() == ("", "error: no samples to evaluate\n")
    assert not (tmp_path / "r.json").exists()


def test_eval_split_refusal_on_an_empty_manifest_is_one_line(short_run, tmp_path, capsys):
    """The refusal comes without the warning for a split no sample is tagged
    with."""
    data = _empty_manifest(tmp_path)
    capsys.readouterr()
    assert cli.main([*_eval(short_run / "checkpoint.tseg", data, tmp_path),
                     "--split", "test"]) == 2
    assert capsys.readouterr() == ("", "error: no samples to evaluate\n")
    assert not (tmp_path / "r.json").exists()


def test_eval_refuses_a_split_tagged_overall_with_one_line(short_run, dataset, tmp_path,
                                                           capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    doc["samples"][0]["split"] = "overall"
    (data / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_eval(short_run / "checkpoint.tseg", data, tmp_path)) == 2
    assert capsys.readouterr() == ("", "error: split tag 'overall' is reserved for "
                                       "the row over all splits; retag those samples\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["gen-data", "--out", "ds"], ["gradcheck"]],
                         ids=["gen_data", "gradcheck"])
def test_seed_0_is_a_valid_seed(argv):
    assert cli.build_parser().parse_args([*argv, "--seed", "0"]).seed == 0


def _empty_image_pair(tmp_path):
    """``--rgb``/``--thermal`` of a 0x0 PPM/PGM pair: headers, no pixels."""
    (tmp_path / "e.ppm").write_bytes(b"P6\n0 0\n255\n")
    (tmp_path / "e.pgm").write_bytes(b"P5\n0 0\n255\n")
    return ["--rgb", str(tmp_path / "e.ppm"), "--thermal", str(tmp_path / "e.pgm")]


def _file(tmp_path, name, content: bytes):
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


def _checkpoint(tmp_path, edit):
    """A one-record checkpoint whose body is edited by ``edit`` and then given
    a valid checksum, so that only the record structure is wrong."""
    body = edit(serialize({"x": np.zeros(3)})[:-4])
    return _file(tmp_path, "edited.tseg", body + struct.pack("<I", zlib.crc32(body)))


def _bare_checkpoint(run, tmp_path):
    """The run's checkpoint alone in a directory: no classes.json beside it."""
    (tmp_path / "bare").mkdir()
    return str(shutil.copy(run / "checkpoint.tseg", tmp_path / "bare"))


def _data_without_a_thermal_file(data, tmp_path):
    copy = tmp_path / "ds"
    shutil.copytree(data, copy)
    (copy / "sample_0002_th.pgm").unlink()
    return str(copy)


def _infer_rgb(run, data, tmp_path, ppm: bytes):
    """``infer`` of the run's checkpoint with the RGB image ``ppm``."""
    return ["infer", "--ckpt", str(run / "checkpoint.tseg"),
            "--rgb", _file(tmp_path, "x.ppm", ppm),
            "--thermal", str(data / "sample_0000_th.pgm"),
            "--out", str(tmp_path / "m.pgm")]


def _eval(ckpt, data, tmp_path):
    return ["eval", "--ckpt", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "r.json")]


def _three_class_vocab(tmp_path):
    path = tmp_path / "classes.json"
    save_text_embeddings(path, ClassVocabulary.from_names(
        ["a", "b", "c"], RunConfig().model.d_t))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (lambda run, data, tmp: ["eval", "--ckpt", str(run / "checkpoint.tseg"),
                             "--data", str(data), "--classes", _three_class_vocab(tmp),
                             "--out", str(tmp / "r.json")],
     "labels must lie in [0, 3) or equal ignore=255; found 0..3"),
    (lambda run, data, tmp: ["eval", "--ckpt", str(run), "--data", str(data),
                             "--out", str(tmp / "r.json")],
     "Is a directory"),
    (lambda run, data, tmp: ["eval", "--ckpt", str(run / "checkpoint.tseg"),
                             "--data", str(data), "--out", str(tmp)],
     "Is a directory"),
    (lambda run, data, tmp: ["infer", "--ckpt", str(run / "checkpoint.tseg"),
                             "--rgb", str(data / "sample_0000_rgb.ppm"),
                             "--thermal", str(data / "sample_0000_th.pgm"),
                             "--points", "1,2", "--out", str(tmp / "m.pgm")],
     "--points: '1,2' is not x,y,label"),
    (lambda run, data, tmp: ["gen-data", "--out", str(run / "config.json" / "ds"),
                             "--n", "1"],
     "Not a directory"),
    (lambda run, data, tmp: ["gen-data", "--out", str(tmp / "ds"), "--n", "-1"],
     "--n -1 must be at least 1"),
    (lambda run, data, tmp: ["gen-data", "--out", str(tmp / "ds"), "--size", "0"],
     "--size 0 must be a positive multiple of the patch size 8"),
    (lambda run, data, tmp: ["infer", "--ckpt", str(run / "checkpoint.tseg"),
                             *_empty_image_pair(tmp), "--out", str(tmp / "m.pgm")],
     "image 0x0 is smaller than patch size 8"),
    (lambda run, data, tmp: ["train", "--data", str(data), "--out", str(tmp / "o"),
                             "--config", _file(tmp, "bad.json", b'{"model": ')],
     "malformed config file: "),
    (lambda run, data, tmp: _eval(_checkpoint(tmp, lambda b: b + b"\0\0"), data, tmp),
     "2 trailing bytes after last record"),
    (lambda run, data, tmp: _eval(_checkpoint(tmp, lambda b: b[:-8]), data, tmp),
     "record 'x' runs past end of file"),
    (lambda run, data, tmp: _eval(_checkpoint(tmp, lambda b: b[:-25]), data, tmp),
     "checkpoint ends mid-record"),
    (lambda run, data, tmp: _infer_rgb(run, data, tmp, b"P6\n1 1\n65535\n" + bytes(6)),
     "unsupported maxval 65535 (only 255)"),
    (lambda run, data, tmp: _infer_rgb(run, data, tmp, b"P6\n8 8\n255"),
     "header ends at byte 10 with no payload"),
    (lambda run, data, tmp: _infer_rgb(run, data, tmp, b"P6\n8 x\n255\n"),
     "expected integer at byte 5, got b'x'"),
    (lambda run, data, tmp: ["infer", "--ckpt", _bare_checkpoint(run, tmp),
                             "--rgb", str(data / "sample_0000_rgb.ppm"),
                             "--thermal", str(data / "sample_0000_th.pgm"),
                             "--out", str(tmp / "m.pgm")],
     "no class vocabulary available; pass --classes"),
    (lambda run, data, tmp: _eval(run / "checkpoint.tseg",
                                  _data_without_a_thermal_file(data, tmp), tmp),
     "referenced thermal file missing: "),
    (lambda run, data, tmp: _eval(run / "checkpoint.tseg", tmp / "no_data", tmp),
     "manifest not found: "),
    (lambda run, data, tmp: ["gradcheck", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    (lambda run, data, tmp: ["gen-data", "--out", str(tmp / "ds"), "--seed", "-3"],
     "argument --seed: must be a non-negative integer, got '-3'"),
], ids=["labels_out_of_range", "ckpt_is_dir", "out_is_dir", "points_too_short",
        "gen_data_out_under_file", "gen_data_n_negative", "gen_data_size_zero",
        "infer_empty_image", "config_malformed_json", "ckpt_trailing_bytes",
        "ckpt_record_cut_short", "ckpt_record_header_cut_short", "ppm_maxval_65535",
        "ppm_header_without_payload", "ppm_non_integer_token", "infer_no_vocabulary",
        "manifest_file_missing", "manifest_missing", "gradcheck_seed_negative",
        "gen_data_seed_negative"])
def test_bad_input_exits_2_with_one_line(short_run, dataset, tmp_path, capsys,
                                         argv, message):
    args = argv(short_run, dataset, tmp_path)
    capsys.readouterr()
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(classes=[5]), "bad class entry: 5"),
    (lambda doc: doc.update(dim=None),
     "embedding 'dim' must be a positive integer, got None"),
    (lambda doc: doc.update(classes=5), "embedding 'classes' must be a list"),
    (lambda doc: doc["classes"][0].update(embedding=3),
     "bad class entry: {'name': 'background', 'embedding': 3}"),
    (lambda doc: doc["classes"][0]["embedding"].__setitem__(0, {}),
     "class 'background' embedding is not a list of numbers"),
    (lambda doc: doc["classes"][0]["embedding"].__setitem__(0, float("nan")),
     "class 'background' has a zero or non-finite embedding"),
    (lambda doc: doc.pop("dim"), "embedding file needs 'dim' and 'classes' fields"),
    (lambda doc: doc.update(classes=[]), "embedding file lists no classes"),
    (lambda doc: doc["classes"].append(doc["classes"][0]),
     "duplicate class name 'background'"),
    (lambda doc: doc.update(dim=0), "embedding 'dim' must be a positive integer, got 0"),
], ids=["entry_not_object", "dim_null", "classes_not_list", "embedding_not_list",
        "embedding_item_not_number", "embedding_nan", "dim_missing", "classes_empty",
        "name_duplicate", "dim_zero"])
def test_malformed_classes_file_exits_2_with_one_line(short_run, dataset, tmp_path,
                                                      capsys, edit, message):
    doc = json.loads((short_run / "classes.json").read_text())
    edit(doc)
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                     "--data", str(dataset), "--classes", str(classes),
                     "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_nan_parameter_exits_3_naming_the_op(short_run, dataset, tmp_path, capsys,
                                             command):
    run = tmp_path / "nan_run"
    run.mkdir()
    for name in ("config.json", "classes.json"):
        (run / name).write_bytes((short_run / name).read_bytes())
    state = load_checkpoint(short_run / "checkpoint.tseg")
    name = next(n for n, v in state.items()
                if n.startswith("encoder.") and isinstance(v, np.ndarray))
    state[name].flat[0] = np.nan
    save_checkpoint(state, run / "checkpoint.tseg")
    args = {"infer": ["--rgb", str(dataset / "sample_0000_rgb.ppm"),
                      "--thermal", str(dataset / "sample_0000_th.pgm"),
                      "--out", str(tmp_path / "m.pgm")],
            "eval": ["--data", str(dataset), "--out", str(tmp_path / "r.json")]}
    capsys.readouterr()
    assert cli.main([command, "--ckpt", str(run / "checkpoint.tseg")]
                    + args[command]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("numeric abort: non-finite value produced by op '")
    assert len(err.splitlines()) == 1
    assert out == ""


def _vocab_file(tmp_path, num_classes, dim):
    path = tmp_path / f"classes_{num_classes}x{dim}.json"
    save_text_embeddings(path, ClassVocabulary.from_names(
        [f"class_{i}" for i in range(num_classes)], dim))
    return str(path)


@pytest.mark.parametrize("num_classes", [255, 256])
def test_a_vocabulary_holds_at_most_255_classes(short_run, dataset, tmp_path, capsys,
                                                num_classes):
    """Label maps and the mask infer writes are 8-bit, and 255 marks an
    ignored pixel. Every way to a vocabulary takes 255 classes; at 256 each
    refuses, and train, eval and infer exit 2 with one line and no output."""
    d_t = RunConfig().model.d_t
    names = [f"class_{i}" for i in range(num_classes)]
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"dim": d_t, "classes": [
        {"name": n, "embedding": [1.0] * d_t} for n in names]}))
    ckpt = str(short_run / "checkpoint.tseg")
    out = tmp_path / "o"
    infer = ["infer", "--ckpt", ckpt, "--rgb", str(dataset / "sample_0000_rgb.ppm"),
             "--thermal", str(dataset / "sample_0000_th.pgm")]
    if num_classes == 255:
        assert ClassVocabulary.from_names(names, d_t).num_classes == 255
        assert load_text_embeddings(classes).num_classes == 255
        assert cli.main([*infer, "--classes", str(classes), "--out", str(out)]) == 0
        assert read_pgm(out).shape == (64, 64)
        return
    message = ("vocabulary has 256 classes; at most 255 fit an 8-bit label map, whose "
               "value 255 marks an ignored pixel")
    for build in (lambda: ClassVocabulary.from_names(names, d_t),
                  lambda: load_text_embeddings(classes)):
        with pytest.raises(VocabularyFormatError) as e:
            build()
        assert str(e.value) == message
    for argv in (["train", "--data", str(dataset), "--steps", "1"],
                 ["eval", "--ckpt", ckpt, "--data", str(dataset)], infer):
        capsys.readouterr()
        assert cli.main([*argv, "--classes", str(classes), "--out", str(out)]) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
        assert not out.exists(), argv


@pytest.mark.parametrize("command", ["train", "eval", "infer"])
def test_class_embedding_dim_mismatch_exits_2_before_any_output(short_run, dataset,
                                                                tmp_path, capsys, command):
    out = tmp_path / "o"
    ckpt = str(short_run / "checkpoint.tseg")
    argv = {"train": ["train", "--data", str(dataset), "--steps", "1"],
            "eval": ["eval", "--ckpt", ckpt, "--data", str(dataset)],
            "infer": ["infer", "--ckpt", ckpt,
                      "--rgb", str(dataset / "sample_0000_rgb.ppm"),
                      "--thermal", str(dataset / "sample_0000_th.pgm")]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--classes", _vocab_file(tmp_path, 4, 16),
                            "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: class embedding dim 16 does not match "
                                   f"the model's d_t {RunConfig().model.d_t}\n")
    assert not out.exists()


def test_eval_split_selects_its_samples_and_an_absent_tag_warns(short_run, dataset,
                                                                 tmp_path, capsys):
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    for sample in doc["samples"][:2]:
        sample["split"] = "test"
    (data / "manifest.json").write_text(json.dumps(doc))
    results = tmp_path / "r.json"
    for split, counts, err in [
            ("test", {"test": 2, "overall": 2}, ""),
            ("night", {"test": 2, "train": 4, "overall": 6},
             "warning: no samples tagged 'night'; evaluating every sample\n")]:
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                         "--data", str(data), "--split", split,
                         "--out", str(results)]) == 0
        assert capsys.readouterr().err == err
        doc = json.loads(results.read_text())
        assert {name: row["num_samples"] for name, row in doc.items()} == counts


def test_train_classes_resize_the_text_free_head_and_the_run_evaluates(dataset, tmp_path):
    cfg = RunConfig()
    cfg.model.enable_text = False
    config = tmp_path / "text_free.json"
    config.write_text(cfg.to_json())
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(dataset), "--out", str(run),
                     "--config", str(config), "--steps", "1",
                     "--classes", _vocab_file(tmp_path, 5, cfg.model.d_t)]) == 0
    assert json.loads((run / "config.json").read_text())["model"]["num_classes"] == 5
    results = tmp_path / "r.json"
    assert cli.main(["eval", "--ckpt", str(run / "checkpoint.tseg"),
                     "--data", str(dataset), "--out", str(results)]) == 0
    per_class = json.loads(results.read_text())["overall"]["per_class"]
    assert list(per_class) == [f"class_{i}" for i in range(5)]
