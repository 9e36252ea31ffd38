"""Dense tensor conventions and the small numeric kernels everything else uses.

Activations are plain float64 numpy arrays in row-major order. 2-D tensors are
``[tokens, channels]``. Multi-head views are ``[heads, tokens, head_dim]``.
All inputs are expected to be finite; masked attention scores are the one
place ``-inf`` is allowed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

# Query rows per tile of ``causal_attention``. At n=4096, dk=64 and one head,
# 256 rows was fastest of 128-1024 on a 2-vCPU host.
ATTENTION_TILE = 256


def as_tensor(x, ndim: int | None = None, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 array, checking rank and finiteness."""
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}", shape=list(arr.shape))
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


def l2_norm_per_token(x) -> np.ndarray:
    """Row-wise L2 norms of a [tokens, channels] tensor."""
    arr = as_tensor(x, ndim=2, name="input")
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two equal-length vectors.

    Returns 0.0 when either operand has zero norm; callers that need to track
    degenerate pairs should test the norms themselves.
    """
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise ShapeError(f"vector lengths differ: {va.size} vs {vb.size}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def top_k_abs(values, k: int) -> list[tuple[int, float]]:
    """Indices and values of the k largest-magnitude entries.

    Ties break toward the lower index; the result is sorted by ascending
    index. ``k`` larger than the vector returns every entry.
    """
    if k < 0:
        raise ShapeError(f"k must be >= 0, got {k}")
    vec = np.asarray(values, dtype=np.float64).ravel()
    if k == 0 or vec.size == 0:
        return []
    order = np.argsort(-np.abs(vec), kind="stable")[: min(k, vec.size)]
    picked = np.sort(order)
    return [(int(i), float(vec[i])) for i in picked]


def softmax_row(scores) -> np.ndarray:
    """Numerically stable softmax of one score vector.

    ``-inf`` entries (masked positions) map to probability 0. A row that is
    entirely ``-inf`` has no distribution to return and raises NumericError.
    """
    vec = np.asarray(scores, dtype=np.float64).ravel()
    if np.any(np.isnan(vec)) or np.any(vec == np.inf):
        raise NumericError("softmax input must be finite or -inf")
    finite = vec > -np.inf
    if not finite.any():
        raise NumericError("softmax over a fully masked row is undefined")
    out = np.zeros_like(vec)
    shifted = vec[finite] - vec[finite].max()
    e = np.exp(shifted)
    out[finite] = e / e.sum()
    return out


def causal_attention(q, k, v, keep_weights: bool = False):
    """Causal scaled dot-product attention over ``[heads, n, dk]`` tensors.

    Query rows are processed in tiles of ``ATTENTION_TILE``. A tile of rows
    ``[start, end)`` is scored only against keys ``[:end]``; inside that
    block, the keys after each query row are masked to ``-inf``. Each tile's
    softmax is formed in place and multiplied by ``v[:, :end]``, so the
    working set is one tile of scores. The full ``[heads, n, n]`` weights are
    allocated only when ``keep_weights`` is true, filled tile by tile and
    exactly zero above the diagonal.

    Returns ``(out [heads, n, dv], weights [heads, n, n] or None)``; ``out``
    does not depend on ``keep_weights``.
    """
    if q.ndim != 3 or k.shape != q.shape or v.ndim != 3 or v.shape[:2] != q.shape[:2]:
        raise ShapeError(
            "attention needs q and k of one [heads, n, dk] shape and v of [heads, n, dv]",
            q=list(q.shape),
            k=list(k.shape),
            v=list(v.shape),
        )
    heads, n, dk = q.shape
    scale = np.sqrt(dk)
    k_t = k.transpose(0, 2, 1)
    above = np.triu(np.ones((ATTENTION_TILE, ATTENTION_TILE), dtype=bool), k=1)
    out = np.empty((heads, n, v.shape[2]))
    weights = np.zeros((heads, n, n)) if keep_weights else None
    for start in range(0, n, ATTENTION_TILE):
        end = min(start + ATTENTION_TILE, n)
        scores = q[:, start:end] @ k_t[:, :, :end]
        scores /= scale
        np.copyto(scores[:, :, start:], -np.inf, where=above[: end - start, : end - start])
        scores -= scores.max(axis=2, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=2, keepdims=True)
        out[:, start:end] = scores @ v[:, :end]
        if keep_weights:
            weights[:, start:end, :end] = scores
    return out, weights


def split_heads(x, num_heads: int) -> np.ndarray:
    """[tokens, hidden] -> [heads, tokens, head_dim]; hidden must split evenly."""
    arr = as_tensor(x, ndim=2, name="input")
    n, d = arr.shape
    if d % num_heads != 0:
        raise ShapeError(f"hidden size {d} not divisible by {num_heads} heads")
    return arr.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def merge_heads(x) -> np.ndarray:
    """[heads, tokens, head_dim] -> [tokens, hidden]."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected [heads, tokens, head_dim], got shape {arr.shape}")
    k, n, dk = arr.shape
    return arr.transpose(1, 0, 2).reshape(n, k * dk)
