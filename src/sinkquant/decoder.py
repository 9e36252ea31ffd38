"""Minimal pre-norm transformer decoder with instrumentation hooks.

The block structure is the standard pre-norm stack

    H' = MHSA(LN_attn(H_prev)) + H_prev
    H  = FFN(LN_ffn(H'))  + H'
    FFN(x) = (act(x @ W_g) * (x @ W_u)) @ W_d

with causal multi-head attention, optional grouped-query K/V sharing, and an
optional rotary position embedding toggle. Everything runs in float64 and is
deterministic given (config, weights, input).

Instrumentation:

* any subset of {H, H_prime, X_d_in, X_d_out, Q, K, V, A} can be captured
  per layer;
* injection hooks edit the down-projection output before the FFN residual
  add, either adding a planted magnitude at (token, channel) positions or
  cancelling the incoming residual there — the two edits that synthesize the
  emergence and dissipation of stable outliers;
* ``prefill_with_kvsink`` runs the prefill pass with the KV cache quantized
  in-line (attention consumes the dequantized rows), detecting sink tokens
  from the emergence-layer output and preserving them at full precision from
  the next layer on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from . import dumpio
from .cache import KVCache
from .errors import BoundsError, ConfigError, NumericError, ShapeError
from .sinks import SinkProfile, SinkSet, detect_sinks, preserve_first_n
from .tensors import as_tensor, causal_attention, merge_heads, split_heads

ACTIVATIONS = ("silu", "gelu")
HOOK_MODES = ("add_to_ffn_output", "negate_channels")
PREFILL_MODES = ("kvsink", "pfn", "none")


@dataclass(frozen=True)
class DecoderConfig:
    num_layers: int
    hidden: int
    heads: int
    ffn_hidden: int
    kv_heads: int | None = None
    activation: str = "silu"
    ln_epsilon: float = 1e-5
    rope: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kv_heads is None:
            object.__setattr__(self, "kv_heads", self.heads)
        if self.num_layers < 1:
            raise ConfigError(f"need at least one layer, got {self.num_layers}")
        if self.hidden % self.heads != 0:
            raise ConfigError("hidden size must split across heads", hidden=self.hidden, heads=self.heads)
        if self.heads % self.kv_heads != 0:
            raise ConfigError(
                "query heads must group evenly over kv heads", heads=self.heads, kv_heads=self.kv_heads
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}", allowed=list(ACTIVATIONS))
        if self.rope and (self.hidden // self.heads) % 2 != 0:
            raise ConfigError("rotary embeddings need an even head dim", head_dim=self.hidden // self.heads)

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def kv_width(self) -> int:
        return self.kv_heads * self.head_dim

    def to_json_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "hidden": self.hidden,
            "heads": self.heads,
            "ffn_hidden": self.ffn_hidden,
            "kv_heads": self.kv_heads,
            "activation": self.activation,
            "ln_epsilon": self.ln_epsilon,
            "rope": self.rope,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DecoderConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError("unknown decoder config fields", fields=unknown)
        return cls(**obj)


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wg: np.ndarray
    wu: np.ndarray
    wd: np.ndarray
    ln_attn_gain: np.ndarray
    ln_ffn_gain: np.ndarray

    MATRIX_ROLES = ("wq", "wk", "wv", "wo", "wg", "wu", "wd", "ln_attn_gain", "ln_ffn_gain")


@dataclass
class DecoderWeights:
    layers: list[LayerWeights]


def init_weights(cfg: DecoderConfig, weight_scale: float = 0.5, rng=None) -> DecoderWeights:
    """Small random weights, seeded from the config."""
    rng = rng or np.random.default_rng(cfg.seed)
    d, f, kvw = cfg.hidden, cfg.ffn_hidden, cfg.kv_width

    def mat(fan_in, fan_out):
        return rng.normal(0.0, weight_scale / np.sqrt(fan_in), size=(fan_in, fan_out))

    layers = [
        LayerWeights(
            wq=mat(d, d),
            wk=mat(d, kvw),
            wv=mat(d, kvw),
            wo=mat(d, d),
            wg=mat(d, f),
            wu=mat(d, f),
            wd=mat(f, d),
            ln_attn_gain=np.ones(d),
            ln_ffn_gain=np.ones(d),
        )
        for _ in range(cfg.num_layers)
    ]
    return DecoderWeights(layers=layers)


@dataclass(frozen=True)
class InjectionHook:
    """Edit applied to the down-projection output before the FFN residual."""

    layer: int
    mode: str
    targets: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.mode not in HOOK_MODES:
            raise ConfigError(f"unknown hook mode {self.mode!r}", allowed=list(HOOK_MODES))
        if self.layer < 0:
            raise ConfigError(f"hook layer must be >= 0, got {self.layer}")
        object.__setattr__(
            self, "targets", tuple((int(t), int(c), float(m)) for t, c, m in self.targets)
        )


def _apply_hooks(x_d_out, h_prime, hooks, layer):
    for hook in hooks:
        if hook.layer != layer:
            continue
        for token, channel, magnitude in hook.targets:
            if not (0 <= token < x_d_out.shape[0] and 0 <= channel < x_d_out.shape[1]):
                raise BoundsError(
                    "hook target outside the activation",
                    token=token,
                    channel=channel,
                    shape=list(x_d_out.shape),
                )
            if hook.mode == "add_to_ffn_output":
                x_d_out[token, channel] += magnitude
            else:
                x_d_out[token, channel] -= h_prime[token, channel]
    return x_d_out


def _layer_norm(x, gain, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain


def _activate(x, kind):
    if kind == "silu":
        return x * expit(x)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _rope(x_heads, theta: float = 10000.0):
    """Rotate-half rotary embedding over [heads, tokens, head_dim]."""
    dk = x_heads.shape[-1]
    half = dk // 2
    pos = np.arange(x_heads.shape[1], dtype=np.float64)
    freqs = theta ** (-np.arange(half, dtype=np.float64) / half)
    ang = pos[:, None] * freqs[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    x1, x2 = x_heads[..., :half], x_heads[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def _causal_attention(q_heads, k_heads, v_heads, cfg: DecoderConfig, keep_weights: bool):
    """Grouped-query attention; returns ([heads, n, dk] outputs, [heads, n, n] weights or None)."""
    group = cfg.heads // cfg.kv_heads
    if group > 1:
        k_heads = np.repeat(k_heads, group, axis=0)
        v_heads = np.repeat(v_heads, group, axis=0)
    return causal_attention(q_heads, k_heads, v_heads, keep_weights=keep_weights)


def _check_finite(h, layer, op):
    if not np.all(np.isfinite(h)):
        kind = "NaN" if np.any(np.isnan(h)) else "Inf"
        raise NumericError(f"{kind} produced at layer {layer} ({op})", layer=layer, op=op)


def _validate_capture(capture):
    capture = tuple(capture)
    unknown = sorted(set(capture) - set(dumpio.CAPTURE_KINDS))
    if unknown:
        raise ConfigError("unknown capture kinds", kinds=unknown, allowed=list(dumpio.CAPTURE_KINDS))
    return capture


def _run_stack(h0, weights, cfg, hooks, capture, kv_stage=None):
    """Shared layer loop. ``kv_stage(layer, k_flat, v_flat)`` may substitute
    the K/V actually consumed by attention (the quantize-then-use path)."""
    h = as_tensor(h0, ndim=2, name="input hidden states")
    if h.shape[1] != cfg.hidden:
        raise ShapeError("input width must equal the hidden size", expected=cfg.hidden, actual=int(h.shape[1]))
    if len(weights.layers) != cfg.num_layers:
        raise ConfigError(
            "weights do not match the configured layer count",
            weights=len(weights.layers),
            config=cfg.num_layers,
        )
    capture = _validate_capture(capture)
    dumps = {kind: [] for kind in capture}
    for l, lw in enumerate(weights.layers):
        x = _layer_norm(h, lw.ln_attn_gain, cfg.ln_epsilon)
        q_heads = split_heads(x @ lw.wq, cfg.heads)
        k_heads = split_heads(x @ lw.wk, cfg.kv_heads)
        v_heads = split_heads(x @ lw.wv, cfg.kv_heads)
        if cfg.rope:
            q_heads = _rope(q_heads)
            k_heads = _rope(k_heads)
        if kv_stage is not None:
            k_flat, v_flat = kv_stage(l, merge_heads(k_heads), merge_heads(v_heads))
            k_heads = split_heads(k_flat, cfg.kv_heads)
            v_heads = split_heads(v_flat, cfg.kv_heads)
        attn, attn_weights = _causal_attention(q_heads, k_heads, v_heads, cfg, keep_weights="A" in dumps)
        h_prime = merge_heads(attn) @ lw.wo + h
        _check_finite(h_prime, l, "attention_residual")
        y = _layer_norm(h_prime, lw.ln_ffn_gain, cfg.ln_epsilon)
        x_d_in = _activate(y @ lw.wg, cfg.activation) * (y @ lw.wu)
        x_d_out = _apply_hooks(x_d_in @ lw.wd, h_prime, hooks, l)
        h = x_d_out + h_prime
        _check_finite(h, l, "ffn_residual")
        for kind, value in (
            ("H", h),
            ("H_prime", h_prime),
            ("X_d_in", x_d_in),
            ("X_d_out", x_d_out),
            ("Q", q_heads),
            ("K", k_heads),
            ("V", v_heads),
            ("A", attn_weights),
        ):
            if kind in dumps:
                dumps[kind].append(value.copy())
        yield l, h, dumps


def decoder_forward(h0, weights: DecoderWeights, cfg: DecoderConfig, hooks=(), capture=()):
    """Full-precision forward pass; returns (H_last, captured dumps)."""
    h, dumps = None, {}
    for _, h, dumps in _run_stack(h0, weights, cfg, hooks, capture):
        pass
    return h, dumps


def prefill_with_kvsink(
    h0,
    weights: DecoderWeights,
    cfg: DecoderConfig,
    profile: SinkProfile | None = None,
    *,
    scheme: str = "pt_kv_static",
    bits: int = 4,
    group_size: int = 16,
    sparse_fraction: float | None = None,
    k: int = 5,
    mode: str = "kvsink",
    pfn_n: int | None = None,
    magnitude_ratio: float | None = 100.0,
    hooks=(),
    capture=(),
):
    """Prefill pass with an in-line quantized KV cache.

    Every layer quantizes the non-preserved K/V rows before attention reads
    them back (quantize-then-use), so quantization error is visible in the
    final hidden states. Sink prediction runs once, on the output of the
    profile's emergence layer; earlier layers run with nothing preserved.
    ``mode`` selects what is preserved: predicted sinks (``kvsink``), the
    first N tokens (``pfn``, N defaulting to ``k``), or nothing (``none``).

    Returns (H_last, populated KVCache, preserved SinkSet).
    """
    if mode not in PREFILL_MODES:
        raise ConfigError(f"unknown prefill mode {mode!r}", allowed=list(PREFILL_MODES))
    h_arr = as_tensor(h0, ndim=2, name="input hidden states")
    n = h_arr.shape[0]
    if mode == "kvsink":
        if profile is None:
            raise ConfigError("kvsink mode needs a sink profile")
        if profile.emergence_layer >= cfg.num_layers:
            raise ConfigError(
                "profile emergence layer outside the stack",
                emergence_layer=profile.emergence_layer,
                num_layers=cfg.num_layers,
            )
        preserved = SinkSet.empty(k)
    elif mode == "pfn":
        preserved = preserve_first_n(n, pfn_n if pfn_n is not None else k)
    else:
        preserved = SinkSet.empty(0)

    cache = KVCache(
        cfg.num_layers,
        cfg.kv_width,
        scheme=scheme,
        bits=bits,
        group_size=group_size,
        sparse_fraction=sparse_fraction,
    )

    def kv_stage(layer, k_flat, v_flat):
        cache.bulk_load(layer, k_flat, v_flat, preserved)
        return cache.reconstruct(layer)

    h = h_arr
    dumps = {}
    for l, h, dumps in _run_stack(h_arr, weights, cfg, hooks, capture, kv_stage=kv_stage):
        if mode == "kvsink" and l == profile.emergence_layer:
            preserved = detect_sinks(h, profile, k, magnitude_ratio)
    return h, cache, preserved


def synthesize_sink_model(
    cfg: DecoderConfig,
    plant,
    l_emerge: int,
    l_dissipate: int,
    weight_scale: float = 0.5,
    readout_gain: float = 1.0,
):
    """Weights plus hooks that plant the full outlier life cycle.

    ``plant`` lists (token, channel, magnitude) outliers added to the
    down-projection output at ``l_emerge`` and cancelled at ``l_dissipate``.
    The planted channels' K/V projection rows are amplified so the planted
    tokens also produce extreme key/value rows while the outliers persist —
    the behavior that makes sink tokens quantization-sensitive.
    """
    if plant and not 0 <= l_emerge < l_dissipate < cfg.num_layers:
        raise ConfigError(
            "need l_emerge < l_dissipate < num_layers",
            l_emerge=l_emerge,
            l_dissipate=l_dissipate,
            num_layers=cfg.num_layers,
        )
    rng = np.random.default_rng(cfg.seed)
    weights = init_weights(cfg, weight_scale=weight_scale, rng=rng)
    channels = sorted({int(c) for _, c, _ in plant})
    if any(not 0 <= c < cfg.hidden for c in channels):
        raise BoundsError("planted channel outside hidden size", hidden=cfg.hidden, channels=channels)
    for lw in weights.layers:
        for c in channels:
            lw.wk[c, :] = rng.normal(0.0, readout_gain, size=cfg.kv_width)
            lw.wv[c, :] = rng.normal(0.0, readout_gain, size=cfg.kv_width)
    if not plant:
        return weights, ()
    targets = tuple((int(t), int(c), float(m)) for t, c, m in plant)
    hooks = (
        InjectionHook(l_emerge, "add_to_ffn_output", targets),
        InjectionHook(l_dissipate, "negate_channels", targets),
    )
    return weights, hooks


def save_weights(directory: str, weights: DecoderWeights, cfg: DecoderConfig) -> None:
    """Write each matrix as a tensor dump plus a manifest naming roles."""
    import os

    os.makedirs(directory, exist_ok=True)
    manifest = {"config": cfg.to_json_dict(), "layers": []}
    for l, lw in enumerate(weights.layers):
        entry = {}
        for role in LayerWeights.MATRIX_ROLES:
            fn = f"layer{l:03d}_{role}.kvsd"
            dumpio.write_dump(os.path.join(directory, fn), getattr(lw, role))
            entry[role] = fn
        manifest["layers"].append(entry)
    dumpio.write_json(os.path.join(directory, "weights.json"), manifest)


def load_weights(directory: str) -> tuple[DecoderWeights, DecoderConfig]:
    import os

    manifest = dumpio.read_json(os.path.join(directory, "weights.json"))
    cfg = DecoderConfig.from_json_dict(manifest["config"])
    layers = []
    for entry in manifest["layers"]:
        fields = {
            role: np.asarray(dumpio.read_dump(os.path.join(directory, entry[role])), dtype=np.float64)
            for role in LayerWeights.MATRIX_ROLES
        }
        layers.append(LayerWeights(**fields))
    return DecoderWeights(layers=layers), cfg
