"""Minimal pre-norm transformer decoder with instrumentation hooks.

The block structure is the standard pre-norm stack

    H' = MHSA(LN_attn(H_prev)) + H_prev
    H  = FFN(LN_ffn(H'))  + H'
    FFN(x) = (act(x @ W_g) * (x @ W_u)) @ W_d

with causal multi-head attention, optional grouped-query K/V sharing, and an
optional rotary position embedding toggle. Everything runs in float64 and is
deterministic given (config, weights, input).

Instrumentation:

* ``decoder_forward`` captures any subset of {H, H_prime, X_d_in, X_d_out,
  Q, K, V, A} per layer;
* injection hooks edit the down-projection output before the FFN residual
  add, either adding a planted magnitude at (token, channel) positions or
  cancelling the incoming residual there — the two edits that synthesize the
  emergence and dissipation of stable outliers;
* ``prefill_with_kvsink`` runs the prefill pass with each layer's K/V rows
  quantized in a cache that attention reads back, preserving at full
  precision either the first N tokens (N = 0 for none) from layer 0, or the
  sinks detected at the emergence layer from the next layer on.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, make_dataclass
from functools import partial

import numpy as np
from scipy.special import erf, expit

from . import dumpio
from .cache import KVCache
from .errors import BoundsError, ConfigError, FormatError, NumericError, ShapeError
from .sinks import SinkProfile, SinkSet, detect_sinks, preserve_first_n
from .tensors import as_tensor, causal_attention, integer_at_least, merge_heads, positive_number, split_heads

ACTIVATIONS = ("silu", "gelu")
HOOK_MODES = ("add_to_ffn_output", "negate_channels")
PREFILL_MODES = ("kvsink", "pfn", "none")
WEIGHT_SCALE = 0.5  # weights are drawn from N(0, WEIGHT_SCALE / sqrt(fan_in))
READOUT_GAIN = 1.0  # standard deviation of a planted channel's K/V projection rows
LN_EPSILON = 1e-5
ROPE_THETA = 10000.0


@dataclass(frozen=True)
class DecoderConfig:
    num_layers: int
    hidden: int
    heads: int
    ffn_hidden: int
    kv_heads: int | None = None
    activation: str = "silu"
    rope: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kv_heads is None:
            object.__setattr__(self, "kv_heads", self.heads)
        for name in ("num_layers", "hidden", "heads", "kv_heads", "ffn_hidden", "seed"):
            least = 0 if name == "seed" else 1
            object.__setattr__(self, name, integer_at_least(getattr(self, name), least, name))
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
        return dumpio.record_to_json(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DecoderConfig":
        """Config from parsed JSON; unknown, missing or wrongly typed fields are a ``ConfigError``."""
        return dumpio.record_from_json(cls, obj, ConfigError)


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


def _weight_shapes(cfg: DecoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every role of one layer, in ``LayerWeights.MATRIX_ROLES`` order."""
    d, f, kvw = cfg.hidden, cfg.ffn_hidden, cfg.kv_width
    matrices = ((d, d), (d, kvw), (d, kvw), (d, d), (d, f), (d, f), (f, d))
    return dict(zip(LayerWeights.MATRIX_ROLES, matrices + ((d,), (d,))))


def init_weights(cfg: DecoderConfig, rng=None) -> DecoderWeights:
    """Small random weights, seeded from the config; layer-norm gains are ones."""
    rng = rng or np.random.default_rng(cfg.seed)
    shapes = _weight_shapes(cfg)

    def init(shape):  # matrices are drawn in role order, so the stream of draws is fixed
        return rng.normal(0.0, WEIGHT_SCALE / np.sqrt(shape[0]), size=shape) if len(shape) == 2 else np.ones(shape)

    layers = [LayerWeights(**{role: init(shape) for role, shape in shapes.items()}) for _ in range(cfg.num_layers)]
    return DecoderWeights(layers=layers)


@dataclass(frozen=True)
class InjectionHook:
    """Edit applied to the down-projection output before the FFN residual at (token, channel, magnitude) targets."""

    layer: int
    mode: str
    targets: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.mode not in HOOK_MODES:
            raise ConfigError(f"unknown hook mode {self.mode!r}", allowed=list(HOOK_MODES))
        object.__setattr__(self, "layer", integer_at_least(self.layer, 0, "hook layer"))
        try:
            targets = tuple((operator.index(t), operator.index(c), float(m)) for t, c, m in self.targets)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"hook targets must be (integer token, integer channel, magnitude): {exc}") from exc
        object.__setattr__(self, "targets", targets)


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


def _layer_norm(x, gain):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPSILON) * gain


def _activate(x, kind):
    if kind == "silu":
        return x * expit(x)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _rope(x_heads):
    """Rotate-half rotary embedding over [heads, tokens, head_dim]."""
    dk = x_heads.shape[-1]
    half = dk // 2
    pos = np.arange(x_heads.shape[1], dtype=np.float64)
    freqs = ROPE_THETA ** (-np.arange(half, dtype=np.float64) / half)
    ang = pos[:, None] * freqs[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    x1, x2 = x_heads[..., :half], x_heads[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def _check_finite(h, layer, op):
    if not np.all(np.isfinite(h)):
        kind = "NaN" if np.any(np.isnan(h)) else "Inf"
        raise NumericError(f"{kind} produced at layer {layer} ({op})", layer=layer, op=op)


def _run_stack(h0, weights, cfg, hooks, capture, kv_stage=None):
    """Shared layer loop. ``kv_stage(layer, k_rows, v_rows)`` may substitute the
    [tokens, kv_width] K/V rows attention consumes (the quantize-then-use path)."""
    h = as_tensor(h0, ndim=2, name="input hidden states")
    if h.shape[1] != cfg.hidden:
        raise ShapeError("input width must equal the hidden size", expected=cfg.hidden, actual=int(h.shape[1]))
    if len(weights.layers) != cfg.num_layers:
        raise ConfigError(
            "weights do not match the configured layer count",
            weights=len(weights.layers),
            config=cfg.num_layers,
        )
    dumps = {kind: [] for kind in capture}
    unknown = sorted(set(dumps) - set(dumpio.CAPTURE_KINDS))
    if unknown:
        raise ConfigError("unknown capture kinds", kinds=unknown, allowed=list(dumpio.CAPTURE_KINDS))
    group = cfg.heads // cfg.kv_heads  # query heads per K/V head
    for l, lw in enumerate(weights.layers):
        x = _layer_norm(h, lw.ln_attn_gain)
        q_heads = split_heads(x @ lw.wq, cfg.heads)
        k_rows, v_rows = x @ lw.wk, x @ lw.wv
        if cfg.rope:
            q_heads = _rope(q_heads)
            k_rows = merge_heads(_rope(split_heads(k_rows, cfg.kv_heads)))
        if kv_stage is not None:
            k_rows, v_rows = kv_stage(l, k_rows, v_rows)
        k_heads, v_heads = split_heads(k_rows, cfg.kv_heads), split_heads(v_rows, cfg.kv_heads)
        kv = [np.repeat(t, group, axis=0) if group > 1 else t for t in (k_heads, v_heads)]
        attn, attn_weights = causal_attention(q_heads, *kv, keep_weights="A" in dumps)
        h_prime = merge_heads(attn) @ lw.wo + h
        _check_finite(h_prime, l, "attention_residual")
        y = _layer_norm(h_prime, lw.ln_ffn_gain)
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
            if kind in dumps:  # each is a fresh array that nothing writes after this point
                dumps[kind].append(value)
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
    magnitude_ratio: float | None = 100.0,
    hooks=(),
):
    """Prefill pass with an in-line quantized KV cache.

    Every layer hands its K/V rows to the cache and attention reads back the
    rows it reconstructs (quantize-then-use), so quantization error is visible
    in the final hidden states. One rule preserves rows: a set fixed before
    layer 0, or one detected on a layer's output and kept from the next layer
    on. ``mode`` picks it: the first ``k`` tokens (``pfn``; ``none`` is N = 0),
    or the sinks predicted at the profile's emergence layer (``kvsink``).
    Every argument, the kvsink profile's layer and width too, is checked
    before layer 0.

    Returns (H_last, populated KVCache, preserved SinkSet).
    """
    if mode not in PREFILL_MODES:
        raise ConfigError(f"unknown prefill mode {mode!r}", allowed=list(PREFILL_MODES))
    k = integer_at_least(k, 0, "k")
    magnitude_ratio = None if magnitude_ratio is None else positive_number(magnitude_ratio, "magnitude_ratio")
    h_arr = as_tensor(h0, ndim=2, name="input hidden states")
    detect_at = None  # the layer whose output picks the preserved set; None when it is fixed before layer 0
    if mode == "kvsink":
        if profile is None:
            raise ConfigError("kvsink mode needs a sink profile")
        if profile.emergence_layer >= cfg.num_layers:
            raise ConfigError(
                "profile emergence layer outside the stack",
                emergence_layer=profile.emergence_layer,
                num_layers=cfg.num_layers,
            )
        if profile.hidden_size != cfg.hidden:
            raise ShapeError("hidden size does not match profile", expected=profile.hidden_size, actual=cfg.hidden)
        detect_at, preserved = profile.emergence_layer, SinkSet.empty(k)
    else:
        preserved = preserve_first_n(h_arr.shape[0], k if mode == "pfn" else 0)

    cache = KVCache(
        cfg.num_layers,
        cfg.kv_width,
        scheme=scheme,
        bits=bits,
        group_size=group_size,
        sparse_fraction=sparse_fraction,
    )

    def kv_stage(layer, k_rows, v_rows):
        cache.bulk_load(layer, k_rows, v_rows, preserved)
        return cache.reconstruct(layer)

    h = h_arr
    for l, h, _ in _run_stack(h_arr, weights, cfg, hooks, (), kv_stage=kv_stage):
        if l == detect_at:
            preserved = detect_sinks(h, profile, k, magnitude_ratio)
    return h, cache, preserved


def synthesize_sink_model(
    cfg: DecoderConfig,
    plant,
    l_emerge: int,
    l_dissipate: int,
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
    edits = ((l_emerge, "add_to_ffn_output"), (l_dissipate, "negate_channels")) if plant else ()
    hooks = tuple(InjectionHook(layer, mode, plant) for layer, mode in edits)
    channels = sorted({c for _, c, _ in hooks[0].targets}) if hooks else []
    rng = np.random.default_rng(cfg.seed)
    weights = init_weights(cfg, rng=rng)
    if any(not 0 <= c < cfg.hidden for c in channels):
        raise BoundsError("planted channel outside hidden size", hidden=cfg.hidden, channels=channels)
    for lw in weights.layers:
        for c in channels:
            lw.wk[c, :] = rng.normal(0.0, READOUT_GAIN, size=cfg.kv_width)
            lw.wv[c, :] = rng.normal(0.0, READOUT_GAIN, size=cfg.kv_width)
    return weights, hooks


@dataclass(frozen=True)
class _WeightsManifest:
    """A ``weights.json``: the ``DecoderConfig`` object, then one ``_LayerFiles`` object per layer."""

    config: dict
    layers: list


#: One layer's entry in a ``weights.json``: the dump file of every role.
_LayerFiles = make_dataclass("_LayerFiles", [(role, "str") for role in LayerWeights.MATRIX_ROLES], frozen=True)


def save_weights(directory: str, weights: DecoderWeights, cfg: DecoderConfig) -> None:
    """Write each matrix as a tensor dump plus a manifest naming roles."""
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
    """Weights and config from a ``save_weights`` directory.

    A manifest key or role the format does not name, a layer count or a matrix shape that does
    not fit the config is a ``FormatError``.
    """
    path = os.path.join(directory, "weights.json")
    manifest = dumpio.record_from_json(_WeightsManifest, dumpio.read_json(path), partial(FormatError, path=path))
    entries = [
        dumpio.record_from_json(_LayerFiles, entry, partial(FormatError, path=path, layer=l))
        for l, entry in enumerate(manifest.layers)
    ]
    cfg = DecoderConfig.from_json_dict(manifest.config)
    if len(entries) != cfg.num_layers:
        raise FormatError(
            "weights manifest layer count does not match its config",
            path=path,
            layers=len(entries),
            num_layers=cfg.num_layers,
        )
    shapes = _weight_shapes(cfg)
    layers = []
    for l, entry in enumerate(entries):
        files = {role: os.path.join(directory, name) for role, name in dumpio.record_to_json(entry).items()}
        arrays = {role: np.asarray(dumpio.read_dump(f), dtype=np.float64) for role, f in files.items()}
        for role, arr in arrays.items():
            if arr.shape != shapes[role]:
                raise FormatError(
                    f"layer {l} {role} has shape {list(arr.shape)}, the config needs {list(shapes[role])}",
                    path=files[role],
                    layer=l,
                    role=role,
                    expected=list(shapes[role]),
                    actual=list(arr.shape),
                )
        layers.append(LayerWeights(**arrays))
    return DecoderWeights(layers=layers), cfg
