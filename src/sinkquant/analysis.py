"""Measurement methodology: error decomposition, attention-bias extraction,
bias disruption under quantization, and query/key sink diagnostics.

All reports store raw values; the optional x100 display scaling some error
tables use is applied only at emission time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from .dumpio import atomic_write, record_to_json
from .errors import ConfigError, ShapeError
from .quant import (
    CalibrationSet,
    GroupLayout,
    calibrate,
    dequantize,
    quantize_tensor,
)
from .sinks import SinkSet
from .tensors import as_tensor, causal_weights_at, integer_at_least, l2_norm_per_token, positive_number, split_heads


def mse(a, b) -> float:
    x = as_tensor(a, name="MSE operand")
    y = as_tensor(b, name="MSE operand")
    if x.shape != y.shape:
        raise ShapeError("MSE operands must match", a=list(x.shape), b=list(y.shape))
    if x.size == 0:
        return 0.0
    return float(np.mean((x - y) ** 2))


#: ``ErrorRow`` fields that ``display_scale`` multiplies.
_SCALED_ERRORS = ("overall", "wo_sink_groups", "w_sink_groups", "excluded", "nonsink_elements")


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
    clip: float | None
    sparse_fraction: float
    overall: float
    wo_sink_groups: float | None = None
    w_sink_groups: float | None = None
    excluded: float | None = None
    nonsink_elements: float | None = None
    elements: int = 0
    sink_group_elements: int = 0

    def to_json_dict(self, display_scale: float | None = None) -> dict:
        """The row as JSON, its errors times ``display_scale`` (``None`` for 1; else ``positive_number``'s rule)."""
        scale = 1.0 if display_scale is None else positive_number(display_scale, "display_scale")
        out = record_to_json(self)
        for key in _SCALED_ERRORS:
            if out[key] is not None:
                out[key] *= scale
        return out


@dataclass
class ErrorReport:
    rows: list[ErrorRow]
    tokens: int
    hidden: int
    sink_tokens: tuple[int, ...]

    def to_json_dict(self, display_scale: float | None = None) -> dict:
        """The report as JSON; ``display_scale`` follows :meth:`ErrorRow.to_json_dict` and is reported as a float."""
        if display_scale is not None:
            display_scale = positive_number(display_scale, "display_scale")
        rows = [r.to_json_dict(display_scale) for r in self.rows]
        return {**record_to_json(self), "display_scale": display_scale, "rows": rows}


def error_decomposition(
    x, sinks: SinkSet, specs, cal: CalibrationSet | None = None, cal_sinks=None
) -> ErrorReport:
    """Quantization MSE per spec, partitioned by sink membership.

    Dynamic specs report the overall MSE plus the split between groups that
    contain sink tokens and groups that do not. Static specs need ``cal``
    (ConfigError otherwise) and additionally report the non-sink-token error
    with sinks excluded from calibration and quantization: calibrated on
    ``cal``, or on its samples with ``cal_sinks`` as their sinks when given.
    The other errors calibrate on every row of ``cal``'s samples.
    ``cal_sinks`` without ``cal`` has no samples to belong to (ConfigError).
    """
    if cal is None and cal_sinks is not None:
        raise ConfigError("cal_sinks needs the calibration set whose samples they index")
    arr = as_tensor(x, ndim=2, name="input")
    n = arr.shape[0]
    sink_mask = sinks.mask(n)
    if cal is not None:
        if not isinstance(cal, CalibrationSet):
            cal = CalibrationSet(cal)  # a plain sample list carries no sinks
        cal_in = CalibrationSet(cal.samples)  # sinks included
        if cal_sinks is not None:
            cal = CalibrationSet(cal.samples, cal_sinks)
    rows = []
    for spec in specs:
        if spec.mode == "static":
            if cal is None:
                raise ConfigError("static specs require a calibration set", spec=spec.axis)
            params_in = calibrate(cal_in, spec)
            recon = dequantize(quantize_tensor(arr, spec, params=params_in))
            err2 = (arr - recon) ** 2
            row = ErrorRow(
                **asdict(spec),
                overall=float(err2.mean()),
                nonsink_elements=float(err2[~sink_mask].mean()) if (~sink_mask).any() else None,
                elements=int(arr.size),
            )
            if len(sinks):
                params_ex = calibrate(cal, spec)
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
                    **asdict(spec),
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


def _units(x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` with non-zero norm, each divided by its norm."""
    norms = np.linalg.norm(x, axis=1)
    good = norms > 0.0
    return x[good] / norms[good, None]


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines between the rows of ``a`` and of ``b`` with non-zero norm, ``[a_good, b_good]``.

    Rows are normalised before the one product, so no division runs over the product.
    """
    return np.clip(_units(a) @ _units(b).T, -1.0, 1.0)


def _as_heads(x, name: str) -> np.ndarray:
    """``x`` as ``[heads, tokens, d]``; a 2-D tensor is one head."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ShapeError(f"{name} must be [tokens, d] or [heads, tokens, d]", shape=list(arr.shape))
    return arr


def attention_bias(A, V, sinks: SinkSet, method: str = "pairwise") -> BiasResult:
    """Per-token bias vectors contributed by sink tokens, with their consistency.

    The bias of token t is the attention-weighted sum of the sink tokens'
    value rows. Tokens before the first sink cannot attend to it and are
    excluded. Consistency is the mean cosine over all unordered pairs of bias
    vectors (or against their centroid with ``method="centroid"``); pairs with
    a zero-norm member are counted as degenerate and skipped.

    The pairwise mean takes O(m·d) for m bias rows, with no [m, m] matrix:
    over the g unit rows u_i of non-zero norm, Σ_{i<j} u_i·u_j =
    (‖Σ u_i‖² − Σ ‖u_i‖²) / 2, divided by the g(g−1)/2 counted pairs and
    clipped to [−1, 1].
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
    for start in range(0, n, 256):  # row blocks, so no [n, n] temporary is made
        end = start + 256
        if np.triu(attn[start:end, start:end], k=1).any() or attn[start:end, end:].any():
            raise ConfigError("attention matrix must be causal (zero above the diagonal)")
    if method not in ("pairwise", "centroid"):
        raise ConfigError(f"unknown cosine method {method!r}", allowed=["pairwise", "centroid"])
    idx = list(sinks)
    first = idx[0]
    bias = attn[first:, idx] @ vals[idx]
    m = bias.shape[0]
    if method == "pairwise":
        pairs = m * (m - 1) // 2
        units = _units(bias)
        total = units.sum(axis=0)
        counted = len(units) * (len(units) - 1) // 2
        cos_sum = (total @ total - np.einsum("ij,ij->", units, units)) / 2.0
    else:
        pairs = m
        cos = _cosines(bias, bias.mean(axis=0)[None])  # empty for a zero centroid
        counted, cos_sum = cos.size, cos.sum()
    avg = float(np.clip(cos_sum / counted, -1.0, 1.0)) if counted else 0.0
    return BiasResult(
        bias=bias, first_token=first, avg_cosine=avg, degenerate_pairs=pairs - counted, pairs=pairs
    )


def bias_report_from_heads(A_heads, V_heads, sinks: SinkSet, layer: int = 0, method: str = "pairwise"):
    """Per-head bias-consistency rows from captured attention/value heads (2-D for one head).

    ``layer`` is written into every row and follows :func:`integer_at_least` with 0.
    """
    layer = integer_at_least(layer, 0, "layer")
    a = _as_heads(A_heads, "attention")
    v = _as_heads(V_heads, "values")
    heads, kv_heads = a.shape[0], v.shape[0]
    if kv_heads == 0 or heads % kv_heads != 0:
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

    For each spec the K/V tensors are quantized and dequantized, the attention
    weights at the sink columns are recomputed, and two deltas are reported:
    the mean L2 shift of the per-token bias vectors and the largest absolute
    logit shift over sink columns (raw scaled dot-product scores, before the
    softmax). With ``preserve_sinks`` the sink rows stay at full precision, so
    the logit delta over sink columns is exactly zero. The biases read V only
    at the sink rows, so under ``preserve_sinks`` V is not requantized: each
    spec costs one ``quantize_tensor`` call, on the non-sink key rows. K, V and
    Q share one [tokens, hidden] shape (``ShapeError`` otherwise).

    Every spec is quantized first; then one :func:`causal_weights_at` pass
    scores the full-precision keys and every spec's keys, so the call holds
    ``len(specs) + 1`` key tensors at once.
    """
    k_arr = as_tensor(keys, ndim=2, name="keys")
    v_arr = as_tensor(values, ndim=2, name="values")
    q_arr = as_tensor(queries, ndim=2, name="queries")
    n = k_arr.shape[0]
    if v_arr.shape != k_arr.shape or q_arr.shape != k_arr.shape:
        shapes = {"keys": list(k_arr.shape), "values": list(v_arr.shape), "queries": list(q_arr.shape)}
        raise ShapeError("keys, values and queries must share one [tokens, hidden] shape", **shapes)
    if not len(sinks):
        raise ConfigError("bias disruption is undefined for an empty sink set")
    sink_mask = sinks.mask(n)
    idx = list(sinks)
    first = idx[0]

    specs = list(specs)
    q_heads = split_heads(q_arr, num_heads)
    scale = np.sqrt(q_heads.shape[-1])
    # Key sets and the sink rows of their values: full precision first, then one per spec.
    k_sets = [split_heads(k_arr, num_heads)]
    v_sinks = [split_heads(v_arr, num_heads)[:, idx, :]]
    for spec in specs:
        if preserve_sinks:
            k_q = k_arr.copy()
            keep = ~sink_mask
            if keep.any():
                k_q[keep] = dequantize(quantize_tensor(k_arr[keep], spec))
            v_sinks.append(v_sinks[0])  # the sink rows, the only ones read, are kept exact
        else:
            k_q = dequantize(quantize_tensor(k_arr, spec))
            v_sinks.append(split_heads(dequantize(quantize_tensor(v_arr, spec)), num_heads)[:, idx, :])
        k_sets.append(split_heads(k_q, num_heads))
    sink_attn = causal_weights_at(q_heads, k_sets, idx)  # [sets, heads, n, |S|]
    logits = [q_heads @ k[:, idx, :].transpose(0, 2, 1) / scale for k in k_sets]
    biases = [attn[:, first:] @ v for attn, v in zip(sink_attn, v_sinks)]
    sink_cols = np.arange(n)[:, None] >= np.asarray(idx)  # [n, |S|] — positions where t >= s

    rows = []
    for spec, logits_q, bias_q in zip(specs, logits[1:], biases[1:]):
        score_delta = float(np.abs(logits_q - logits[0])[:, sink_cols].max(initial=0.0))
        bias_delta = float(np.linalg.norm(bias_q - biases[0], axis=2).mean())
        rows.append(
            {
                **asdict(spec),
                "bias_l2_delta": bias_delta,
                "attention_score_delta": score_delta,
            }
        )
    return rows


def qk_sink_diagnostics(Q, K, sinks: SinkSet, V=None):
    """Per-head query-to-sink-key cosines and sink/non-sink norm ratios.

    Inputs are per-head tensors, either [tokens, head_dim] for one head or
    [heads, tokens, head_dim]; Q and K share one shape, and V shares their
    heads and tokens (``ShapeError`` otherwise). The cosine is averaged over
    all (non-sink query, sink key) pairs; norm ratios divide the mean
    sink-row norm by the mean non-sink-row norm, and are ``None`` when every
    non-sink row is zero.
    """
    q = _as_heads(Q, "queries")
    k = _as_heads(K, "keys")
    v = _as_heads(V, "values") if V is not None else None
    if q.shape != k.shape:
        raise ShapeError("queries and keys must share heads, tokens and head dim", q=list(q.shape), k=list(k.shape))
    if v is not None and v.shape[:2] != q.shape[:2]:
        raise ShapeError("values must share heads and tokens with queries", q=list(q.shape), v=list(v.shape))
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
        return snk / non if non > 0 else None

    rows = []
    for h in range(q.shape[0]):
        cos = _cosines(q[h][~sink_mask], k[h][idx])
        mean_cos = float(cos.mean()) if cos.size else 0.0
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


def rows_to_csv_text(rows: list[dict]) -> str:
    """Homogeneous dict rows as CSV text (tidy, plot-tool friendly)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_rows_csv(rows: list[dict], path: str) -> None:
    """:func:`rows_to_csv_text` of ``rows``, written atomically to ``path``."""
    atomic_write(path, rows_to_csv_text(rows).encode())
