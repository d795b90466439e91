"""Decoder prompt inputs: point prompts, the dense no-mask embedding, and
per-class text embeddings from a pluggable provider.

Text embeddings arrive either from a JSON file (precomputed offline by any
encoder) or from a deterministic toy provider that hashes the class name.
Both paths yield unit-norm vectors; vocabulary order is the class-index order
used everywhere downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .params import ParamRegistry, derive_rng
from .tensor import Tensor


class VocabularyFormatError(ValueError):
    pass


class PointError(ValueError):
    pass


def toy_text_embed(name: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-norm stand-in for a real text encoder."""
    if not name:
        raise ValueError("class name must be non-empty")
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


@dataclass
class ClassVocabulary:
    """Ordered class names with L2-normalized text embeddings [C, dim].

    At most ``TrainConfig.ignore_label`` (255) classes: label maps and the
    mask ``infer`` writes are 8-bit, and their value 255 marks an ignored
    pixel, so it can be no class index."""
    names: list[str]
    embeddings: np.ndarray
    dim: int

    def __post_init__(self):
        if len(self.names) == 0:
            raise VocabularyFormatError("vocabulary needs at least one class")
        if len(self.names) > TrainConfig.ignore_label:
            raise VocabularyFormatError(
                f"vocabulary has {len(self.names)} classes; at most "
                f"{TrainConfig.ignore_label} fit an 8-bit label map, whose value "
                f"{TrainConfig.ignore_label} marks an ignored pixel")
        if len(set(self.names)) != len(self.names):
            raise VocabularyFormatError("duplicate class names in vocabulary")
        if self.embeddings.shape != (len(self.names), self.dim):
            raise VocabularyFormatError(
                f"embedding matrix shape {self.embeddings.shape} does not match "
                f"{len(self.names)} classes of dim {self.dim}"
            )

    @property
    def num_classes(self) -> int:
        return len(self.names)

    @staticmethod
    def from_names(names: list[str], dim: int, seed: int = 0) -> "ClassVocabulary":
        emb = np.stack([toy_text_embed(n, dim, seed) for n in names])
        return ClassVocabulary(list(names), emb, dim)


def load_text_embeddings(path) -> ClassVocabulary:
    """Parse a text-embedding JSON file and L2-normalize the rows.

    Schema: {"dim": int, "classes": [{"name": str, "embedding": [dim floats]}]}.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise VocabularyFormatError(f"malformed embedding file: {e}") from e
    if not isinstance(doc, dict) or "dim" not in doc or "classes" not in doc:
        raise VocabularyFormatError("embedding file needs 'dim' and 'classes' fields")
    dim, classes = doc["dim"], doc["classes"]
    if type(dim) is not int or dim <= 0:
        raise VocabularyFormatError(f"embedding 'dim' must be a positive integer, "
                                    f"got {dim!r}")
    if not isinstance(classes, list):
        raise VocabularyFormatError("embedding 'classes' must be a list")
    if not classes:
        raise VocabularyFormatError("embedding file lists no classes")
    names, rows = [], []
    for entry in classes:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and entry["name"] and isinstance(entry.get("embedding"), list)):
            raise VocabularyFormatError(f"bad class entry: {entry!r}")
        name, emb = entry["name"], entry["embedding"]
        if len(emb) != dim:
            raise VocabularyFormatError(
                f"class '{name}' has dim {len(emb)}, expected {dim}"
            )
        if name in names:
            raise VocabularyFormatError(f"duplicate class name '{name}'")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in emb):
            raise VocabularyFormatError(
                f"class '{name}' embedding is not a list of numbers")
        v = np.asarray(emb, dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0 or not np.isfinite(norm):
            raise VocabularyFormatError(
                f"class '{name}' has a zero or non-finite embedding")
        names.append(name)
        rows.append(v / norm)
    return ClassVocabulary(names, np.stack(rows), dim)


def save_text_embeddings(path, vocab: ClassVocabulary) -> None:
    doc = {
        "dim": vocab.dim,
        "classes": [
            {"name": n, "embedding": vocab.embeddings[i].tolist()}
            for i, n in enumerate(vocab.names)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


FOREGROUND = 1
BACKGROUND = 0


@dataclass
class PointPrompt:
    """Pixel-coordinate points with foreground/background labels."""
    points: list[tuple[float, float, int]]  # (x, y, label)

    def __len__(self):
        return len(self.points)


class PromptEncoder:
    """Encodes spatial prompts and owns the dense no-mask embedding.

    Point positions use a random-Fourier encoding with a seeded, frozen
    frequency matrix; the same matrix generates the decoder's image
    positional grid so point and pixel coordinates live in one space.
    """

    def __init__(self, reg: ParamRegistry, d: int, seed: int):
        self.d = d
        rng = derive_rng(seed, "prompt.fourier")
        self.fourier = reg.register("prompt.fourier",
                                    Tensor(rng.normal(size=(2, d // 2))))
        rl = derive_rng(seed, "prompt.point_labels")
        self.point_labels = reg.register(
            "prompt.point_labels", Tensor(rl.normal(0.0, 0.02, size=(2, d))))
        self.dense = reg.register("prompt.dense", Tensor(np.zeros(d)))

    def _fourier_encode(self, coords01: np.ndarray) -> np.ndarray:
        proj = 2.0 * np.pi * coords01 @ self.fourier.data
        return np.concatenate([np.sin(proj), np.cos(proj)], axis=-1)

    def encode_points(self, prompt: PointPrompt, image_size: tuple[int, int]) -> Tensor:
        """Sparse prompt embeddings [K, d]; K may be zero."""
        h, w = image_size
        if len(prompt) == 0:
            return Tensor(np.zeros((0, self.d)))
        coords, labels = [], []
        for x, y, label in prompt.points:
            if not (0 <= x < w and 0 <= y < h):
                raise PointError(f"point ({x}, {y}) outside image {w}x{h}")
            if label not in (FOREGROUND, BACKGROUND):
                raise PointError(f"point label must be 0 or 1, got {label}")
            coords.append(((x + 0.5) / w, (y + 0.5) / h))
            labels.append(label)
        pos = self._fourier_encode(np.asarray(coords))
        return Tensor(pos) + self.point_labels[np.asarray(labels, dtype=np.intp)]

    def positional_grid(self, hp: int, wp: int) -> Tensor:
        """Frozen positional encoding at the centers of an hp x wp patch grid,
        as the grid's row-major tokens [hp·wp, d]."""
        ys = (np.arange(hp) + 0.5) / hp
        xs = (np.arange(wp) + 0.5) / wp
        coords = np.stack(np.meshgrid(xs, ys, indexing="xy"), axis=-1)  # [hp, wp, 2]
        return Tensor(self._fourier_encode(coords.reshape(-1, 2)))
