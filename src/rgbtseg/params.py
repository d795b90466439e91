"""Named parameter registry with frozen/trainable bookkeeping, and the
trainable-parameter ledger. ``ledger_group`` alone decides what trains:
layers register every tensor as trainable, and ``RgbtSegModel`` freezes each
name that no ledger group claims."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import FrozenDigest
from .tensor import Tensor


class DuplicateParamError(ValueError):
    pass


class ParamRegistry:
    """Ordered mapping of hierarchical parameter names to tensors.

    Entries register as trainable until ``freeze``. Frozen entries never
    receive gradients (``requires_grad`` is False) and never enter optimizer
    state; their bitwise constancy across training is a tested invariant.
    """

    def __init__(self):
        self._entries: dict[str, tuple[Tensor, bool]] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise DuplicateParamError(f"parameter '{name}' already registered")
        tensor.requires_grad = True
        self._entries[name] = (tensor, False)
        return tensor

    def freeze(self, name: str) -> None:
        tensor = self._entries[name][0]
        tensor.requires_grad = False
        self._entries[name] = (tensor, True)

    def get(self, name: str) -> Tensor:
        return self._entries[name][0]

    def is_frozen(self, name: str) -> bool:
        return self._entries[name][1]

    def items(self):
        return self._entries.items()

    def trainable(self):
        return [(n, t) for n, (t, frozen) in self._entries.items() if not frozen]

    def frozen(self):
        return [(n, t) for n, (t, frozen) in self._entries.items() if frozen]

    def zero_grad(self) -> None:
        for _, (t, _) in self._entries.items():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray | FrozenDigest]:
        """The records a checkpoint holds: a copy of each trainable array, and
        the ``FrozenDigest`` of each frozen one, hashed in place (a frozen
        tensor never changes, and a checkpoint stores only its digest)."""
        return {n: FrozenDigest.of(t.data) if f else np.array(t.data)
                for n, (t, f) in self._entries.items()}

    def load_state(self, state: dict[str, np.ndarray | FrozenDigest]) -> None:
        """Copy the trainable arrays of ``state`` into the registered tensors in
        place; a frozen tensor must hash to its entry's ``FrozenDigest``. Every
        name, shape, kind (a digest or an array) and digest is checked before
        anything is copied."""
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ValueError(
                f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, (tensor, frozen) in self._entries.items():
            value = state[name]
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': {value.shape} vs {tensor.data.shape}"
                )
            if isinstance(value, FrozenDigest) != frozen:
                kind = "frozen" if frozen else "trainable"
                raise ValueError(f"frozen flag mismatch for '{name}': {kind} in the model")
            if frozen and FrozenDigest.of(tensor.data) != value:
                raise ValueError(
                    f"frozen parameter '{name}' does not match the checkpoint's "
                    "SHA-256: this model regenerates other frozen weights (another "
                    "backbone_seed, or a numpy whose random stream changed)"
                )
        for name, tensor in self.trainable():
            tensor.data[...] = state[name]


def derive_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-component generator keyed by (seed, name).

    Keying by name keeps frozen surrogate weights identical across ablation
    configs that add or remove unrelated parameter groups.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


# -- parameter ledger -----------------------------------------------------------

LEDGER_GROUPS = [
    "thermal_patch_embed",
    "dffm",
    "encoder_lora",
    "decoder_lora",
    "decoder_heads",
    "text_attention",
    "prompt_embeddings",
]


def ledger_group(name: str) -> str | None:
    """The ledger group of a trainable parameter; None for a frozen one."""
    if name.startswith("encoder.thermal_embed"):
        return "thermal_patch_embed"
    if name.startswith("encoder.dffm"):
        return "dffm"
    if name.startswith("encoder.blocks") and ".lora." in name:
        return "encoder_lora"
    if name.startswith("decoder.twoway") and ".lora." in name:
        return "decoder_lora"
    if name.startswith("decoder.upscale") or name.startswith("decoder.head"):
        return "decoder_heads"
    if name.startswith("decoder.text_attn"):
        return "text_attention"
    if name.startswith(("prompt.point_labels", "prompt.dense", "decoder.tokens")):
        return "prompt_embeddings"
    return None


@dataclass
class LedgerReport:
    groups: dict[str, int] = field(default_factory=dict)
    trainable_total: int = 0
    frozen_total: int = 0

    def lines(self) -> list[str]:
        width = max(len(g) for g in LEDGER_GROUPS)
        out = [f"{'group':<{width}}  trainable"]
        for g in LEDGER_GROUPS:
            if g in self.groups:
                out.append(f"{g:<{width}}  {self.groups[g]:>9d}")
        out.append(f"{'total trainable':<{width}}  {self.trainable_total:>9d}")
        out.append(f"{'total frozen':<{width}}  {self.frozen_total:>9d}")
        return out


def param_ledger(registry) -> LedgerReport:
    """Group trainable parameter counts; totals are exact sums."""
    report = LedgerReport()
    for name, (tensor, frozen) in registry.items():
        if frozen:
            report.frozen_total += tensor.size
            continue
        group = ledger_group(name)
        report.groups[group] = report.groups.get(group, 0) + tensor.size
        report.trainable_total += tensor.size
    return report
