"""Measurement methodology: error decomposition, attention-bias extraction,
bias disruption under quantization, and Q/K/V norm diagnostics.

All reports store raw values; the optional x100 display scaling some error
tables use is applied only at emission time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .quant import (
    CalibrationSet,
    GroupLayout,
    calibrate,
    dequantize,
    quantize_tensor,
)
from .sinks import SinkSet
from .tensors import as_tensor, causal_attention, l2_norm_per_token, split_heads


def mse(a, b) -> float:
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError("MSE operands must match", a=list(x.shape), b=list(y.shape))
    if x.size == 0:
        return 0.0
    return float(np.mean((x - y) ** 2))


@dataclass
class ErrorRow:
    """Error decomposition of one quantization spec.

    ``wo_sink_groups`` / ``w_sink_groups`` partition per-group error by sink
    membership and apply to dynamic schemes (static groups span all tokens).
    ``excluded`` is the static error over non-sink tokens with sinks removed
    from both calibration and quantization; ``nonsink_elements`` is the same
    element set under sink-inclusive calibration, for comparison.
    """

    bits: int
    axis: str
    mode: str
    group_size: int
    sparse_fraction: float
    overall: float
    wo_sink_groups: float | None = None
    w_sink_groups: float | None = None
    excluded: float | None = None
    nonsink_elements: float | None = None
    elements: int = 0
    sink_group_elements: int = 0

    def to_json_dict(self, display_scale: float | None = None) -> dict:
        s = display_scale or 1.0

        def fmt(v):
            return None if v is None else v * s

        return {
            "bits": self.bits,
            "axis": self.axis,
            "mode": self.mode,
            "group_size": self.group_size,
            "sparse_fraction": self.sparse_fraction,
            "overall": fmt(self.overall),
            "wo_sink_groups": fmt(self.wo_sink_groups),
            "w_sink_groups": fmt(self.w_sink_groups),
            "excluded": fmt(self.excluded),
            "nonsink_elements": fmt(self.nonsink_elements),
            "elements": self.elements,
            "sink_group_elements": self.sink_group_elements,
        }


@dataclass
class ErrorReport:
    rows: list[ErrorRow]
    tokens: int
    hidden: int
    sink_tokens: tuple[int, ...]

    def to_json_dict(self, display_scale: float | None = None) -> dict:
        return {
            "tokens": self.tokens,
            "hidden": self.hidden,
            "sink_tokens": list(self.sink_tokens),
            "display_scale": display_scale,
            "rows": [r.to_json_dict(display_scale) for r in self.rows],
        }


def error_decomposition(
    x, sinks: SinkSet, specs, cal: CalibrationSet | None = None, cal_sinks=None
) -> ErrorReport:
    """Quantization MSE per spec, partitioned by sink membership.

    Dynamic specs report the overall MSE plus the split between groups that
    contain sink tokens and groups that do not. Static specs need ``cal``
    (ConfigError otherwise) and additionally report the non-sink-token error
    with sinks excluded from calibration and quantization.
    """
    arr = as_tensor(x, ndim=2, name="input")
    n = arr.shape[0]
    sink_mask = sinks.mask(n)
    rows = []
    for spec in specs:
        if spec.mode == "static":
            if cal is None:
                raise ConfigError("static specs require a calibration set", spec=spec.axis)
            params_in = calibrate(cal, spec, exclude_sinks=False)
            recon = dequantize(quantize_tensor(arr, spec, params=params_in))
            err2 = (arr - recon) ** 2
            row = ErrorRow(
                bits=spec.bits,
                axis=spec.axis,
                mode=spec.mode,
                group_size=spec.group_size,
                sparse_fraction=spec.sparse_fraction,
                overall=float(err2.mean()),
                nonsink_elements=float(err2[~sink_mask].mean()) if (~sink_mask).any() else None,
                elements=int(arr.size),
            )
            if len(sinks):
                params_ex = calibrate(cal, spec, exclude_sinks=True, sinks_per_sample=cal_sinks)
                sub = arr[~sink_mask]
                recon_ex = dequantize(quantize_tensor(sub, spec, params=params_ex))
                row.excluded = mse(sub, recon_ex)
            rows.append(row)
        else:
            qt = quantize_tensor(arr, spec)
            recon = dequantize(qt)
            err2 = (arr - recon) ** 2
            layout = GroupLayout.for_spec(arr.shape, spec)
            gid = layout.group_ids()
            group_has_sink = np.zeros(layout.n_groups, dtype=bool)
            if sink_mask.any():
                group_has_sink[np.unique(gid[sink_mask, :])] = True
            element_in_sink_group = group_has_sink[gid]
            wo = err2[~element_in_sink_group]
            w = err2[element_in_sink_group]
            rows.append(
                ErrorRow(
                    bits=spec.bits,
                    axis=spec.axis,
                    mode=spec.mode,
                    group_size=spec.group_size,
                    sparse_fraction=spec.sparse_fraction,
                    overall=float(err2.mean()),
                    wo_sink_groups=float(wo.mean()) if wo.size else None,
                    w_sink_groups=float(w.mean()) if w.size else None,
                    elements=int(arr.size),
                    sink_group_elements=int(w.size),
                )
            )
    return ErrorReport(rows=rows, tokens=n, hidden=int(arr.shape[1]), sink_tokens=tuple(sinks))


@dataclass
class BiasResult:
    """Per-token sink contributions for one attention head."""

    bias: np.ndarray  # [tokens - first_token, head_dim]
    first_token: int
    avg_cosine: float
    degenerate_pairs: int
    pairs: int


def _pairwise_mean_cosine(vectors: np.ndarray) -> tuple[float, int, int]:
    m = vectors.shape[0]
    total = m * (m - 1) // 2
    norms = np.linalg.norm(vectors, axis=1)
    good = norms > 0.0
    unit = vectors[good] / norms[good, None]
    g = unit.shape[0]
    if g < 2:
        return 0.0, total, total
    gram = unit @ unit.T
    iu = np.triu_indices(g, k=1)
    vals = np.clip(gram[iu], -1.0, 1.0)
    return float(vals.mean()), total - vals.size, total


def _centroid_mean_cosine(vectors: np.ndarray) -> tuple[float, int, int]:
    norms = np.linalg.norm(vectors, axis=1)
    good = norms > 0.0
    total = vectors.shape[0]
    centroid = vectors.mean(axis=0)
    cn = np.linalg.norm(centroid)
    if cn == 0.0 or not good.any():
        return 0.0, total, total
    cos = np.clip((vectors[good] @ centroid) / (norms[good] * cn), -1.0, 1.0)
    return float(cos.mean()), total - int(good.sum()), total


def attention_bias(A, V, sinks: SinkSet, method: str = "pairwise") -> BiasResult:
    """Per-token bias vectors contributed by sink tokens, with their consistency.

    The bias of token t is the attention-weighted sum of the sink tokens'
    value rows. Tokens before the first sink cannot attend to it and are
    excluded. Consistency is the mean cosine over all unordered pairs of bias
    vectors (or against their centroid with ``method="centroid"``); pairs with
    a zero-norm member are counted as degenerate and skipped.
    """
    attn = as_tensor(A, ndim=2, name="attention matrix")
    vals = as_tensor(V, ndim=2, name="values")
    n = attn.shape[0]
    if attn.shape[1] != n or vals.shape[0] != n:
        raise ShapeError(
            "attention must be [n, n] and values [n, head_dim]",
            attention=list(attn.shape),
            values=list(vals.shape),
        )
    if not len(sinks):
        raise ConfigError("attention bias is undefined for an empty sink set")
    sinks.mask(n)  # bounds check
    if np.any(np.abs(np.triu(attn, k=1)) > 0.0):
        raise ConfigError("attention matrix must be causal (zero above the diagonal)")
    if method not in ("pairwise", "centroid"):
        raise ConfigError(f"unknown cosine method {method!r}", allowed=["pairwise", "centroid"])
    idx = list(sinks)
    first = idx[0]
    bias = attn[first:, idx] @ vals[idx]
    scorer = _pairwise_mean_cosine if method == "pairwise" else _centroid_mean_cosine
    avg, degenerate, pairs = scorer(bias)
    return BiasResult(
        bias=bias, first_token=first, avg_cosine=avg, degenerate_pairs=degenerate, pairs=pairs
    )


def bias_report_from_heads(A_heads, V_heads, sinks: SinkSet, layer: int = 0, method: str = "pairwise"):
    """Per-head bias-consistency rows from captured attention/value heads."""
    a = np.asarray(A_heads, dtype=np.float64)
    v = np.asarray(V_heads, dtype=np.float64)
    if a.ndim != 3 or v.ndim != 3:
        raise ShapeError("expected [heads, n, n] attention and [kv_heads, n, head_dim] values")
    heads, kv_heads = a.shape[0], v.shape[0]
    if heads % kv_heads != 0:
        raise ShapeError("query heads must group evenly over kv heads", heads=heads, kv_heads=kv_heads)
    group = heads // kv_heads
    rows = []
    for h in range(heads):
        result = attention_bias(a[h], v[h // group], sinks, method=method)
        rows.append(
            {
                "layer": layer,
                "head": h,
                "avg_cosine": result.avg_cosine,
                "degenerate_pairs": result.degenerate_pairs,
                "pairs": result.pairs,
            }
        )
    return rows


def bias_disruption(
    keys, values, queries, sinks: SinkSet, specs, num_heads: int = 1, preserve_sinks: bool = False
):
    """How much quantizing K/V moves attention logits and sink biases.

    For each spec the K/V tensors are quantized and dequantized, attention is
    recomputed, and two deltas are reported: the mean L2 shift of the
    per-token bias vectors and the largest absolute logit shift over sink
    columns (raw scaled dot-product scores, before the softmax). With
    ``preserve_sinks`` the sink rows stay at full precision, so the logit
    delta over sink columns is exactly zero.
    """
    k_arr = as_tensor(keys, ndim=2, name="keys")
    v_arr = as_tensor(values, ndim=2, name="values")
    q_arr = as_tensor(queries, ndim=2, name="queries")
    n = k_arr.shape[0]
    if v_arr.shape != k_arr.shape or q_arr.shape[0] != n:
        raise ShapeError("keys/values/queries token counts must match")
    if not len(sinks):
        raise ConfigError("bias disruption is undefined for an empty sink set")
    sink_mask = sinks.mask(n)
    idx = list(sinks)
    first = idx[0]

    q_heads = split_heads(q_arr, num_heads)
    scale = np.sqrt(q_heads.shape[-1])

    def sink_terms(k_heads, v_heads):
        """Sink-column logits [heads, n, |S|] and per-token sink biases."""
        logits = q_heads @ k_heads[:, idx, :].transpose(0, 2, 1) / scale
        _, attn = causal_attention(q_heads, k_heads, v_heads, keep_weights=True)
        return logits, attn[:, first:, idx] @ v_heads[:, idx, :]

    logits_fp, bias_fp = sink_terms(split_heads(k_arr, num_heads), split_heads(v_arr, num_heads))
    sink_cols = np.arange(n)[:, None] >= np.asarray(idx)  # [n, |S|] — positions where t >= s

    rows = []
    for spec in specs:
        def _requant(full):
            if preserve_sinks:
                out = full.copy()
                keep = ~sink_mask
                if keep.any():
                    out[keep] = dequantize(quantize_tensor(full[keep], spec))
                return out
            return dequantize(quantize_tensor(full, spec))

        logits_q, bias_q = sink_terms(
            split_heads(_requant(k_arr), num_heads), split_heads(_requant(v_arr), num_heads)
        )
        score_delta = float(np.abs(logits_q - logits_fp)[:, sink_cols].max(initial=0.0))
        bias_delta = float(np.linalg.norm(bias_q - bias_fp, axis=2).mean())
        rows.append(
            {
                "bits": spec.bits,
                "axis": spec.axis,
                "mode": spec.mode,
                "group_size": spec.group_size,
                "sparse_fraction": spec.sparse_fraction,
                "bias_l2_delta": bias_delta,
                "attention_score_delta": score_delta,
            }
        )
    return rows


def qk_sink_diagnostics(Q, K, sinks: SinkSet, V=None):
    """Per-head query-to-sink-key cosines and sink/non-sink norm ratios.

    Inputs are per-head tensors, either [tokens, head_dim] for one head or
    [heads, tokens, head_dim]. The cosine is averaged over all (non-sink
    query, sink key) pairs; norm ratios divide the mean sink-row norm by the
    mean non-sink-row norm.
    """

    def _as_heads(x, name):
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3:
            raise ShapeError(f"{name} must be [tokens, head_dim] or [heads, tokens, head_dim]")
        return arr

    q = _as_heads(Q, "queries")
    k = _as_heads(K, "keys")
    v = _as_heads(V, "values") if V is not None else None
    if q.shape[0] != k.shape[0] or q.shape[1] != k.shape[1]:
        raise ShapeError("queries and keys must share heads and tokens")
    if not len(sinks):
        raise ConfigError("diagnostics are undefined for an empty sink set")
    n = q.shape[1]
    sink_mask = sinks.mask(n)
    if sink_mask.all():
        raise ConfigError("every token is a sink; no non-sink rows to compare")
    idx = list(sinks)

    def _ratio(arr_heads, h):
        norms = l2_norm_per_token(arr_heads[h])
        non = float(norms[~sink_mask].mean())
        snk = float(norms[sink_mask].mean())
        return snk / non if non > 0 else float("inf")

    rows = []
    for h in range(q.shape[0]):
        qn = np.linalg.norm(q[h], axis=1)
        kn = np.linalg.norm(k[h], axis=1)
        q_good = (~sink_mask) & (qn > 0)
        cos_vals = []
        for s in idx:
            if kn[s] == 0 or not q_good.any():
                continue
            cos_vals.append((q[h][q_good] @ k[h][s]) / (qn[q_good] * kn[s]))
        mean_cos = float(np.clip(np.concatenate(cos_vals), -1, 1).mean()) if cos_vals else 0.0
        row = {
            "head": h,
            "mean_qk_cosine": mean_cos,
            "q_norm_ratio": _ratio(q, h),
            "k_norm_ratio": _ratio(k, h),
        }
        if v is not None:
            row["v_norm_ratio"] = _ratio(v, h)
        rows.append(row)
    return rows


def qkv_norm_profile(q_heads, k_heads, v_heads) -> dict:
    """L2 norms per (head, token) for captured Q/K/V head tensors."""
    out = {}
    for kind, arr in (("Q", q_heads), ("K", k_heads), ("V", v_heads)):
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 3:
            raise ShapeError(f"{kind} must be [heads, tokens, head_dim]", actual=list(a.shape))
        out[kind] = np.linalg.norm(a, axis=2)
    return out


def norm_profile_rows(profile: dict, layer: int = 0) -> list[dict]:
    """Tidy rows (one per head/token/kind) for plotting or CSV export."""
    rows = []
    for kind, mat in profile.items():
        for h in range(mat.shape[0]):
            for t in range(mat.shape[1]):
                rows.append({"layer": layer, "kind": kind, "head": h, "token": t, "l2_norm": float(mat[h, t])})
    return rows


def write_rows_csv(rows: list[dict], path_or_file) -> None:
    """Write homogeneous dict rows as CSV (tidy, plot-tool friendly)."""
    if not rows:
        fields = []
    else:
        fields = list(rows[0].keys())
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if own:
            fh.close()


def rows_to_csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    return buf.getvalue()
