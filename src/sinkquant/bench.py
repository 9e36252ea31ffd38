"""Overhead measurement: prefill wall time vs sink-detection time.

Detection is a single top-k scan over a few profiled channels of one layer's
output, run once per sequence, so its cost should be a vanishing fraction of
the prefill itself. ``run_bench`` measures both on the toy decoder (median
over repeats, monotonic clock) and attaches the footprint of the cache the
last timed prefill built, with the number of sink tokens it kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cache import footprint_megabytes
from .decoder import DecoderConfig, decoder_forward, init_weights, prefill_with_kvsink
from .dumpio import record_to_json
from .errors import ConfigError, UsageError
from .sinks import SinkProfile, detect_sinks
from .tensors import attention_workers, integer_at_least


def reference_config(seed: int = 7) -> DecoderConfig:
    """Small stack used as the timing fixture; attention still dominates at 4K tokens."""
    return DecoderConfig(num_layers=2, hidden=64, heads=1, ffn_hidden=128, seed=seed)


def reference_profile(cfg: DecoderConfig) -> SinkProfile:
    return SinkProfile(
        model_name="bench-fixture",
        total_layers=cfg.num_layers,
        emergence_layer=0,
        hidden_size=cfg.hidden,
        outlier_channels=(1, cfg.hidden // 2),
    )


@dataclass
class BenchReport:
    tokens: int
    repeats: int
    prefill_ms: float
    detect_ms: float
    detect_to_prefill_ratio: float
    footprint: dict
    sinks_kept: int
    attention_workers: int
    config: dict

    def to_json_dict(self) -> dict:
        return {**record_to_json(self), "footprint_mb": footprint_megabytes(self.footprint)}


def run_bench(
    cfg: DecoderConfig | None = None,
    tokens: int = 4096,
    repeats: int = 11,
    scheme: str = "pt_kv_dynamic",
    bits: int = 2,
    group_size: int = 16,
    k: int = 5,
    seed: int = 0,
) -> BenchReport:
    """Median prefill and detection times over ``repeats`` runs.

    The footprint is the last timed prefill's ``memory_footprint()``: the
    bytes its cache holds, with only the sinks detection actually kept.
    ``attention_workers`` is the thread count the prefill's attention ran on.
    """
    try:
        repeats = integer_at_least(repeats, 1, "repeat count")
        tokens = integer_at_least(tokens, 1, "token count")
        seed = integer_at_least(seed, 0, "seed")
    except ConfigError as exc:  # counts come from the command line
        raise UsageError(exc.message, **exc.context) from None
    cfg = cfg or reference_config()
    profile = reference_profile(cfg)
    weights = init_weights(cfg)
    rng = np.random.default_rng(seed)
    h0 = rng.normal(size=(tokens, cfg.hidden))

    # The detection input: the emergence layer's output.
    _, dumps = decoder_forward(h0, weights, cfg, capture=("H",))
    h_emergence = dumps["H"][profile.emergence_layer]

    prefill_times = []
    detect_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, cache, kept = prefill_with_kvsink(
            h0,
            weights,
            cfg,
            profile,
            scheme=scheme,
            bits=bits,
            group_size=group_size,
            k=k,
            mode="kvsink",
        )
        prefill_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        detect_sinks(h_emergence, profile, k, magnitude_ratio=100.0)
        detect_times.append(time.perf_counter() - t0)

    prefill_ms = float(np.median(prefill_times) * 1e3)
    detect_ms = float(np.median(detect_times) * 1e3)
    return BenchReport(
        tokens=tokens,
        repeats=repeats,
        prefill_ms=prefill_ms,
        detect_ms=detect_ms,
        detect_to_prefill_ratio=detect_ms / prefill_ms if prefill_ms > 0 else 0.0,
        footprint=cache.memory_footprint(),
        sinks_kept=len(kept),
        attention_workers=attention_workers(tokens),
        config=cfg.to_json_dict(),
    )
