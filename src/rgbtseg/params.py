"""Named parameter registry with frozen/trainable bookkeeping, and the
trainable-parameter ledger."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class DuplicateParamError(ValueError):
    pass


class ParamRegistry:
    """Ordered mapping of hierarchical parameter names to tensors.

    Frozen entries never receive gradients (``requires_grad`` stays False)
    and never enter optimizer state; their bitwise constancy across training
    is a tested invariant.
    """

    def __init__(self):
        self._entries: dict[str, tuple[Tensor, bool]] = {}

    def register(self, name: str, tensor: Tensor, frozen: bool) -> Tensor:
        if name in self._entries:
            raise DuplicateParamError(f"parameter '{name}' already registered")
        tensor.requires_grad = not frozen
        self._entries[name] = (tensor, frozen)
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> Tensor:
        return self._entries[name][0]

    def is_frozen(self, name: str) -> bool:
        return self._entries[name][1]

    def items(self):
        return self._entries.items()

    def names(self):
        return list(self._entries)

    def trainable(self):
        return [(n, t) for n, (t, frozen) in self._entries.items() if not frozen]

    def frozen(self):
        return [(n, t) for n, (t, frozen) in self._entries.items() if frozen]

    def zero_grad(self) -> None:
        for _, (t, _) in self._entries.items():
            t.grad = None

    def state_dict(self) -> dict[str, tuple[np.ndarray, bool]]:
        return {n: (np.array(t.data), f) for n, (t, f) in self._entries.items()}

    def load_state(self, state: dict[str, tuple[np.ndarray, bool]]) -> None:
        """Copy arrays from ``state`` into the registered tensors in place."""
        missing = set(self._entries) - set(state)
        extra = set(state) - set(self._entries)
        if missing or extra:
            raise ValueError(
                f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, (arr, frozen) in state.items():
            tensor, reg_frozen = self._entries[name]
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': {arr.shape} vs {tensor.data.shape}"
                )
            if frozen != reg_frozen:
                raise ValueError(f"frozen flag mismatch for '{name}'")
            tensor.data[...] = arr


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


def _classify(name: str) -> str | None:
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
    if name.startswith("prompt.") or name.startswith("decoder.tokens"):
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
        group = _classify(name)
        if group is None:
            raise KeyError(f"trainable parameter '{name}' fits no ledger group")
        report.groups[group] = report.groups.get(group, 0) + tensor.size
        report.trainable_total += tensor.size
    return report
