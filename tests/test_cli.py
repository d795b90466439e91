"""Operator surface: commands, determinism, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rgbtseg import cli
from rgbtseg.checkpoint import load_checkpoint, save_checkpoint
from rgbtseg.config import RunConfig
from rgbtseg.model import RgbtSegModel
from rgbtseg.optim import AdamW
from rgbtseg.pnm import read_pgm, write_pgm
from rgbtseg.prompts import ClassVocabulary, save_text_embeddings


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
    assert all(np.array_equal(state[n][0], fresh[n][0]) for n in state)


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


@pytest.mark.parametrize("doc, message", [
    ({"train": {"batch": 2.5}}, "train.batch must be an int, got 2.5"),
    ({"model": {"d": 64.0}}, "model.d must be an int, got 64.0"),
    ({"model": {"heads": True}}, "model.heads must be an int, got True"),
    ({"train": {"steps": 1.5}}, "train.steps must be an int, got 1.5"),
    ({"train": {"ignore_label": 2}},
     "ignore_label 2 is a class index; with 4 classes it must lie outside [0, 4)"),
    (None, "config must be an object, got None"),
    ("abc", "config must be an object, got 'abc'"),
    ([1], "config must be an object, got [1]"),
    ({"model": 3}, "config section 'model' must be an object, got 3"),
    ({"train": []}, "config section 'train' must be an object, got []"),
    ({"model": {"x": 1, "d": 64, "a": 2}},
     "unknown keys in config section 'model': ['a', 'x']"),
    ({"train": {"step": 3}}, "unknown keys in config section 'train': ['step']"),
], ids=["batch_float", "d_float", "heads_bool", "steps_float", "ignore_in_range",
        "top_null", "top_string", "top_list", "model_not_object", "train_not_object",
        "model_unknown_key", "train_unknown_key"])
def test_bad_config_exits_2_with_one_line(tmp_path, dataset, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["train", "--data", str(dataset), "--out", str(tmp_path / "o"),
                     "--config", str(path), "--steps", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""


def test_train_on_empty_manifest_exits_2_with_one_line(tmp_path):
    data = tmp_path / "ds"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"classes": ["a", "b"],
                                                    "samples": []}))
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rgbtseg.cli", "train", "--data",
                           str(data), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: no training samples\n"
    assert not (tmp_path / "o").exists()


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


def test_print_config_round_trips(capsys):
    assert cli.main(["--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    RunConfig.from_dict(doc)


def test_gradcheck_command_exits_0(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "full_model" in out
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


def _empty_image_pair(tmp_path):
    """``--rgb``/``--thermal`` of a 0x0 PPM/PGM pair: headers, no pixels."""
    (tmp_path / "e.ppm").write_bytes(b"P6\n0 0\n255\n")
    (tmp_path / "e.pgm").write_bytes(b"P5\n0 0\n255\n")
    return ["--rgb", str(tmp_path / "e.ppm"), "--thermal", str(tmp_path / "e.pgm")]


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
], ids=["labels_out_of_range", "ckpt_is_dir", "out_is_dir", "points_too_short",
        "gen_data_out_under_file", "gen_data_n_negative", "gen_data_size_zero",
        "infer_empty_image"])
def test_bad_input_exits_2_with_one_line(short_run, dataset, tmp_path, capsys,
                                         argv, message):
    args = argv(short_run, dataset, tmp_path)
    capsys.readouterr()
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(classes=[5]),
    lambda doc: doc.update(dim=None),
    lambda doc: doc.update(classes=5),
    lambda doc: doc["classes"][0].update(embedding=3),
    lambda doc: doc["classes"][0]["embedding"].__setitem__(0, {}),
    lambda doc: doc["classes"][0]["embedding"].__setitem__(0, float("nan")),
], ids=["entry_not_object", "dim_null", "classes_not_list", "embedding_not_list",
        "embedding_item_not_number", "embedding_nan"])
def test_malformed_classes_file_exits_2_with_one_line(short_run, dataset, tmp_path,
                                                      capsys, edit):
    doc = json.loads((short_run / "classes.json").read_text())
    edit(doc)
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(short_run / "checkpoint.tseg"),
                     "--data", str(dataset), "--classes", str(classes),
                     "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_nan_parameter_exits_3_naming_the_op(short_run, dataset, tmp_path, capsys,
                                             command):
    run = tmp_path / "nan_run"
    run.mkdir()
    for name in ("config.json", "classes.json"):
        (run / name).write_bytes((short_run / name).read_bytes())
    state = load_checkpoint(short_run / "checkpoint.tseg")
    name = next(n for n, (_, frozen) in state.items()
                if n.startswith("encoder.") and not frozen)
    state[name][0].flat[0] = np.nan
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
