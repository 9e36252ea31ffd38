"""Sink-token prediction from stable activation outliers.

Sink tokens — the positions that attract disproportionate attention — carry
extreme-magnitude activations at a handful of model-specific channels of the
decoder-block outputs. Those outliers emerge at a fixed early layer, persist
through the middle of the stack, and are wiped out near the end by a
down-projection output of opposite sign. This module:

* predicts sink positions at the emergence layer by top-k magnitude over the
  profiled outlier channels (``detect_sinks``), run once per sequence during
  prefill;
* discovers a model's emergence layer and outlier channels from per-layer
  activation dumps (``discover_profile``);
* labels each layer of a dump series with its evolution stage
  (``classify_stages``): initial, emergence, stabilization, dissipation,
  final;
* provides the preserve-first-N baseline (``preserve_first_n``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dumpio import record_to_json
from .errors import BoundsError, ConfigError, DiscoveryError, ShapeError
from .tensors import as_tensor, integer_at_least, positive_number, row_mask, token_indices

STAGES = ("initial", "emergence", "stabilization", "dissipation", "final")


@dataclass(frozen=True)
class SinkSet:
    """Predicted sink-token indices (sorted, unique) and the requested budget."""

    indices: tuple[int, ...]
    k_requested: int

    def __post_init__(self):
        idx = tuple(token_indices(self.indices).tolist())
        object.__setattr__(self, "k_requested", integer_at_least(self.k_requested, 0, "k_requested"))
        if list(idx) != sorted(set(idx)):
            raise ConfigError("sink indices must be unique and ascending", indices=list(idx))
        if len(idx) > self.k_requested:
            raise ConfigError(
                "sink set larger than its requested budget",
                size=len(idx),
                k_requested=self.k_requested,
            )
        object.__setattr__(self, "indices", idx)

    @classmethod
    def empty(cls, k_requested: int = 0) -> "SinkSet":
        return cls((), k_requested)

    @classmethod
    def of(cls, indices, k_requested: int | None = None) -> "SinkSet":
        idx = tuple(np.unique(token_indices(indices)).tolist())
        return cls(idx, len(idx) if k_requested is None else k_requested)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def mask(self, n: int) -> np.ndarray:
        """Boolean token mask of length n; indices must be < n."""
        return row_mask(self.indices, n)


@dataclass(frozen=True)
class SinkProfile:
    """Per-model emergence layer and stable-outlier channels."""

    model_name: str
    total_layers: int
    emergence_layer: int
    hidden_size: int
    outlier_channels: tuple[int, ...]

    def __post_init__(self):
        for name in ("total_layers", "hidden_size"):
            object.__setattr__(self, name, integer_at_least(getattr(self, name), 1, name))
        object.__setattr__(self, "emergence_layer", integer_at_least(self.emergence_layer, 0, "emergence_layer"))
        channels = tuple(integer_at_least(c, 0, "outlier channel") for c in self.outlier_channels)
        object.__setattr__(self, "outlier_channels", channels)
        if self.emergence_layer >= self.total_layers:
            raise ConfigError(
                "emergence layer outside the stack",
                emergence_layer=self.emergence_layer,
                total_layers=self.total_layers,
            )
        if not self.outlier_channels:
            raise ConfigError("profile needs at least one outlier channel")
        if any(c >= self.hidden_size for c in self.outlier_channels):
            raise BoundsError(
                "outlier channel outside hidden size",
                hidden_size=self.hidden_size,
                channels=list(self.outlier_channels),
            )


def detect_sinks(h, profile: SinkProfile, k: int, magnitude_ratio: float | None = None) -> SinkSet:
    """Predict sink tokens from the emergence-layer output ``h`` [tokens, hidden].

    Every token is scored by its largest magnitude across the profile's
    outlier channels; the top ``k`` tokens win, ties broken toward the lower
    index. With ``magnitude_ratio`` set, a channel entry only qualifies when
    its magnitude reaches ``ratio`` times that channel's median magnitude, so
    fewer than ``k`` tokens may be returned; without it this is pure top-k.
    """
    arr = as_tensor(h, ndim=2, name="hidden states")
    if arr.shape[1] != profile.hidden_size:
        raise ShapeError(
            "hidden size does not match profile",
            expected=profile.hidden_size,
            actual=int(arr.shape[1]),
        )
    k = integer_at_least(k, 0, "k")
    magnitude_ratio = None if magnitude_ratio is None else positive_number(magnitude_ratio, "magnitude_ratio")
    if k == 0 or arr.shape[0] == 0:
        return SinkSet.empty(k)
    mag = np.abs(arr[:, list(profile.outlier_channels)])
    # Without a ratio the threshold is -inf, so every entry qualifies and this is pure top-k.
    threshold = -np.inf if magnitude_ratio is None else magnitude_ratio * np.median(mag, axis=0)
    qualified = mag >= threshold
    score = np.where(qualified, mag, -1.0).max(axis=1)
    candidates = np.flatnonzero(qualified.any(axis=1))
    if candidates.size == 0:
        return SinkSet.empty(k)
    order = candidates[np.argsort(-score[candidates], kind="stable")]
    chosen = np.sort(order[: min(k, order.size)])
    return SinkSet(chosen, k)


def preserve_first_n(seq_len: int, n: int) -> SinkSet:
    """Preserve-first-N baseline: the first min(N, seq_len) token positions."""
    seq_len = integer_at_least(seq_len, 0, "seq_len")
    n = integer_at_least(n, 0, "N")
    return SinkSet(tuple(range(min(n, seq_len))), n)


def discover_profile(
    dumps, ratio: float = 100.0, max_channels: int = 8, model_name: str = "discovered"
) -> SinkProfile:
    """Locate stable-outlier channels and the emergence layer from H dumps.

    ``dumps`` are per-layer decoder-block outputs, all [tokens, hidden]. A
    channel crosses at a layer when its peak magnitude reaches ``ratio`` times
    that layer's median magnitude; channels crossing in at least half of the
    outlier-bearing layers qualify, capped at ``max_channels`` by peak
    magnitude. The threshold is relative, so the result is invariant to
    uniform rescaling of the dumps.
    """
    max_channels = integer_at_least(max_channels, 1, "max_channels")
    ratio = positive_number(ratio, "ratio")
    layers = [as_tensor(d, ndim=2, name="layer dump") for d in dumps]
    if not layers:
        raise DiscoveryError("no layer dumps supplied")
    shape = layers[0].shape
    if any(l.shape != shape for l in layers):
        raise ShapeError("layer dumps must share one [tokens, hidden] shape")
    chan_peak = np.stack([np.abs(l).max(axis=0) for l in layers])  # [L, d]
    medians = np.array([np.median(np.abs(l)) for l in layers])
    crosses = chan_peak >= ratio * medians[:, None]
    hot_layers = np.flatnonzero(crosses.any(axis=1))
    if hot_layers.size == 0:
        raise DiscoveryError("no channel crosses the outlier threshold", ratio=ratio)
    freq = crosses[hot_layers].mean(axis=0)
    stable = np.flatnonzero(freq >= 0.5)
    if stable.size == 0:
        raise DiscoveryError(
            "crossings never persist across half of the outlier-bearing layers", ratio=ratio
        )
    peak = chan_peak.max(axis=0)
    ranked = stable[np.argsort(-peak[stable], kind="stable")][:max_channels]
    channels = tuple(int(c) for c in np.sort(ranked))
    first_cross = np.flatnonzero(crosses[:, list(channels)].any(axis=1))
    emergence = int(first_cross[0])
    return SinkProfile(
        model_name=model_name,
        total_layers=len(layers),
        emergence_layer=emergence,
        hidden_size=int(shape[1]),
        outlier_channels=channels,
    )


@dataclass
class LayerStageRow:
    layer: int
    max_abs_down_in: float
    max_abs_down_out: float
    max_abs_post_attn: float
    max_abs_hidden: float
    stage: str


@dataclass
class StageReport:
    """Per-layer outlier magnitudes with the assigned evolution stage."""

    rows: list[LayerStageRow]
    threshold: float
    warnings: list[str] = field(default_factory=list)

    @property
    def stages(self) -> list[str]:
        return [r.stage for r in self.rows]

    def layers_in(self, stage: str) -> list[int]:
        return [r.layer for r in self.rows if r.stage == stage]

    @property
    def emergence_layers(self) -> list[int]:
        return self.layers_in("emergence")

    @property
    def dissipation_layers(self) -> list[int]:
        return self.layers_in("dissipation")

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "warnings": list(self.warnings),
            "layers": [record_to_json(r) for r in self.rows],
        }


def _sign_hits(x_d_out: np.ndarray, channels, threshold: float) -> dict:
    """(token, channel) -> sign for outlier-channel entries above threshold."""
    sub = x_d_out[:, channels]
    hot = np.abs(sub) >= threshold
    hits = {}
    for t, j in zip(*np.nonzero(hot)):
        hits[(int(t), int(channels[j]))] = 1 if sub[t, j] > 0 else -1
    return hits


def classify_stages(layer_dumps, profile: SinkProfile, ratio: float = 100.0) -> StageReport:
    """Assign evolution stages to a per-layer dump series.

    ``layer_dumps`` is a sequence of dicts with keys ``X_d_in`` (down-proj
    input), ``X_d_out`` (down-proj output), ``H_prime`` (post-attention
    residual), and ``H`` (block output). The outlier threshold is ``ratio``
    times the median magnitude of ``H`` off the profile channels, pooled over
    all layers. Stages always form a contiguous forward-only partition; dump
    series that do not fit the expected progression keep the forward labels
    and collect warnings.
    """
    ratio = positive_number(ratio, "ratio")
    required = ("X_d_in", "X_d_out", "H_prime", "H")
    dumps = []
    for i, entry in enumerate(layer_dumps):
        missing = [k for k in required if k not in entry]
        if missing:
            raise ConfigError(f"layer {i} dump missing kinds {missing}")
        dumps.append({k: as_tensor(entry[k], ndim=2, name=k) for k in required})
    if not dumps:
        raise ConfigError("no layer dumps supplied")
    channels = [c for c in profile.outlier_channels if c < dumps[0]["H"].shape[1]]
    if len(channels) != len(profile.outlier_channels):
        raise ShapeError("profile channels outside dump width")

    off = np.ones(dumps[0]["H"].shape[1], dtype=bool)
    off[channels] = False
    baseline = float(np.median(np.concatenate([np.abs(d["H"][:, off]).ravel() for d in dumps])))
    threshold = ratio * max(baseline, np.finfo(np.float64).tiny)

    rows: list[LayerStageRow] = []
    warnings: list[str] = []
    stage = "initial"
    signs: dict = {}

    for l, d in enumerate(dumps):
        hits = _sign_hits(d["X_d_out"], channels, threshold)
        h_hot = bool(np.abs(d["H"][:, channels]).max(initial=0.0) >= threshold)
        hp_hot = bool(np.abs(d["H_prime"][:, channels]).max(initial=0.0) >= threshold)
        flipped = bool(hits) and bool(signs) and all(
            signs.get(key, -s) == -s for key, s in hits.items()
        ) and any(key in signs for key in hits)

        if stage == "initial":
            if hits and h_hot:
                stage = "emergence"
                signs.update(hits)
            elif h_hot:
                stage = "emergence"
                warnings.append(f"layer {l}: hidden outliers without a down-projection crossing")
        elif stage in ("emergence", "stabilization"):
            if flipped and not h_hot:
                stage = "dissipation"
            elif hits and not flipped:  # a same-sign crossing extends emergence, and is unexpected later
                if stage == "emergence":
                    signs.update(hits)
                else:
                    warnings.append(f"layer {l}: same-sign re-crossing during stabilization")
            elif h_hot or hp_hot:
                stage = "stabilization"
            else:
                stage = "final"
                warnings.append(f"layer {l}: outliers vanished without a dissipation crossing")
        elif stage == "dissipation":
            if flipped and not h_hot:
                pass  # dissipation may span several layers
            elif h_hot:
                stage = "final"
                warnings.append(f"layer {l}: outliers persisted past dissipation")
            else:
                stage = "final"
        else:  # final
            if h_hot or hits:
                warnings.append(f"layer {l}: activity after the final stage began")

        rows.append(
            LayerStageRow(
                layer=l,
                max_abs_down_in=float(np.abs(d["X_d_in"]).max(initial=0.0)),
                max_abs_down_out=float(np.abs(d["X_d_out"][:, channels]).max(initial=0.0)),
                max_abs_post_attn=float(np.abs(d["H_prime"][:, channels]).max(initial=0.0)),
                max_abs_hidden=float(np.abs(d["H"][:, channels]).max(initial=0.0)),
                stage=stage,
            )
        )
    return StageReport(rows=rows, threshold=threshold, warnings=warnings)
