"""Synthetic RGB-thermal benchmark and dataset file I/O.

Four classes make the fusion experiments well-posed:
  0 background
  1 "visible"      distinct color in RGB, warm in thermal
  2 "thermal_only" RGB-camouflaged (exactly background color before noise),
                   hot in thermal - unrecoverable from RGB alone
  3 "rgb_only"     distinct color in RGB, thermally cold

Every sample contains at least one instance of each non-background class and
carries Gaussian pixel noise (sigma 0.02) on both modalities. Sample i of a
run with seed s is generated from an independent generator keyed by (s, i),
so generation parallelizes and stays deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pnm import read_pgm, read_ppm, to_float, write_pgm, write_ppm

CLASS_NAMES = ["background", "visible", "thermal_only", "rgb_only"]
NOISE_SIGMA = 0.02


class ManifestError(ValueError):
    pass


@dataclass
class RgbtSample:
    rgb: np.ndarray      # [H, W, 3] float in [0, 1]
    thermal: np.ndarray  # [H, W, 1] float in [0, 1]
    labels: np.ndarray   # [H, W] int class ids
    split: str = "train"


def _distinct_color(rng: np.random.Generator, bg: np.ndarray) -> np.ndarray:
    """A color at channel-wise distance >= 0.3 from the background color."""
    while True:
        c = rng.uniform(0.0, 1.0, size=3)
        if np.abs(c - bg).max() >= 0.3:
            return c


def _paint_shapes(rng, labels, size, class_id, count):
    h, w = size
    # thermal_only objects are drawn larger: they are the one class with no
    # RGB evidence, and tiny camouflaged objects make per-class IoU mostly a
    # measure of boundary resolution rather than of modality use
    if class_id == 2:
        lo_h, hi_h = h // 4, h // 2
        lo_w, hi_w = w // 4, w // 2
    else:
        lo_h, hi_h = max(6, h // 8), max(8, h // 3)
        lo_w, hi_w = max(6, w // 8), max(8, w // 3)
    boxes = []
    for _ in range(count):
        sh = rng.integers(lo_h, hi_h + 1)
        sw = rng.integers(lo_w, hi_w + 1)
        top = rng.integers(0, h - sh + 1)
        left = rng.integers(0, w - sw + 1)
        if rng.random() < 0.5:
            labels[top:top + sh, left:left + sw] = class_id
        else:
            yy, xx = np.mgrid[0:h, 0:w]
            cy, cx = top + sh / 2, left + sw / 2
            r = min(sh, sw) / 2
            labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = class_id
        boxes.append((top, left, sh, sw))
    return boxes


def gen_sample(size: tuple[int, int], seed: int, index: int) -> RgbtSample:
    # later shapes overwrite earlier ones, so retry (deterministically) until
    # every class keeps at least one visible pixel
    for attempt in range(64):
        sample = _gen_sample_once(size, seed, index, attempt)
        if set(np.unique(sample.labels)) == {0, 1, 2, 3}:
            return sample
    raise RuntimeError("failed to generate a sample containing all classes")


def _gen_sample_once(size, seed, index, attempt) -> RgbtSample:
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, index, attempt])))
    h, w = size
    labels = np.zeros((h, w), dtype=np.int64)
    bg_color = rng.uniform(0.25, 0.75, size=3)
    bg_temp = rng.uniform(0.1, 0.3)

    # paint later classes over earlier ones; one guaranteed instance of each
    counts = {1: int(rng.integers(1, 3)), 2: int(rng.integers(1, 3)),
              3: int(rng.integers(1, 3))}
    order = [1, 2, 3]
    rng.shuffle(order)
    colors = {0: bg_color, 2: bg_color}
    temps = {0: bg_temp}
    for cid in order:
        _paint_shapes(rng, labels, size, cid, counts[cid])
    colors[1] = _distinct_color(rng, bg_color)
    colors[3] = _distinct_color(rng, bg_color)
    temps[1] = rng.uniform(0.7, 0.9)
    temps[2] = rng.uniform(0.8, 1.0)
    temps[3] = rng.uniform(0.0, 0.05)

    rgb = np.empty((h, w, 3))
    thermal = np.empty((h, w, 1))
    for cid in range(4):
        m = labels == cid
        rgb[m] = colors[cid]
        thermal[m, 0] = temps[cid]
    rgb = np.clip(rgb + rng.normal(0.0, NOISE_SIGMA, rgb.shape), 0.0, 1.0)
    thermal = np.clip(thermal + rng.normal(0.0, NOISE_SIGMA, thermal.shape), 0.0, 1.0)
    return RgbtSample(rgb=rgb, thermal=thermal, labels=labels)


def gen_synthetic(n: int, size: tuple[int, int] = (64, 64), seed: int = 0,
                  split: str = "train") -> list[RgbtSample]:
    samples = []
    for i in range(n):
        s = gen_sample(size, seed, i)
        s.split = split
        samples.append(s)
    return samples


def save_dataset(samples: list[RgbtSample], root, classes=CLASS_NAMES) -> Path:
    """Write images and a manifest under ``root``; returns the manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, s in enumerate(samples):
        names = {
            "rgb": f"sample_{i:04d}_rgb.ppm",
            "thermal": f"sample_{i:04d}_th.pgm",
            "label": f"sample_{i:04d}_label.pgm",
        }
        write_ppm(root / names["rgb"], s.rgb)
        write_pgm(root / names["thermal"], s.thermal)
        write_pgm(root / names["label"], s.labels.astype(np.uint8))
        entries.append({**names, "split": s.split})
    manifest = root / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"classes": list(classes), "samples": entries}, fh, indent=1)
    return manifest


def load_dataset(manifest_path) -> tuple[list[RgbtSample], list[str]]:
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    if not manifest_path.exists():
        raise ManifestError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ManifestError(f"malformed manifest: {e}") from e
    if not (isinstance(doc, dict) and isinstance(doc.get("classes"), list)
            and isinstance(doc.get("samples"), list)):
        raise ManifestError("manifest needs 'classes' and 'samples' lists")
    if not doc["classes"] or not all(isinstance(c, str) for c in doc["classes"]):
        raise ManifestError("manifest 'classes' must be a non-empty list of names")
    root = manifest_path.parent
    samples = []
    for i, entry in enumerate(doc["samples"]):
        if not isinstance(entry, dict):
            raise ManifestError(f"manifest sample {i} is not an object")
        for k in ("rgb", "thermal", "label"):
            if k not in entry:
                raise ManifestError(f"manifest sample {i} has no '{k}' field")
        for k in ("rgb", "thermal", "label", "split"):
            if not isinstance(entry.get(k, ""), str):
                raise ManifestError(f"manifest sample {i} field '{k}' is not a string")
        paths = {k: root / entry[k] for k in ("rgb", "thermal", "label")}
        for k, p in paths.items():
            if not p.exists():
                raise ManifestError(f"referenced {k} file missing: {p}")
        sample = RgbtSample(
            rgb=to_float(read_ppm(paths["rgb"])),
            thermal=to_float(read_pgm(paths["thermal"]))[:, :, None],
            labels=read_pgm(paths["label"]).astype(np.int64),
            split=entry.get("split", "train"),
        )
        size = sample.rgb.shape[:2]
        for k, a in (("thermal", sample.thermal), ("label", sample.labels)):
            if a.shape[:2] != size:
                raise ManifestError(
                    f"manifest sample {i}: {k} is {a.shape[0]}x{a.shape[1]}, "
                    f"rgb is {size[0]}x{size[1]}")
        samples.append(sample)
    return samples, list(doc["classes"])
