"""Dense tensor conventions and the small numeric kernels everything else uses.

Activations are plain float64 numpy arrays in row-major order. 2-D tensors are
``[tokens, channels]``. Multi-head views are ``[heads, tokens, head_dim]``.
All inputs are expected to be finite; masked attention scores are the one
place ``-inf`` is allowed.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundsError, ConfigError, NumericError, ShapeError

# Query rows per tile of ``causal_attention``. At n=4096, dk=64 and one head,
# 256 rows was fastest of 128-1024 on a 2-vCPU host.
ATTENTION_TILE = 256


def as_tensor(x, ndim: int | None = None, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 array, checking rank and finiteness."""
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}", shape=list(arr.shape))
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite values")
    return arr


def integer_at_least(value, least: int, name: str) -> int:
    """``value`` as an ``int``; ``ConfigError`` unless it is an integer ``>= least``.

    numpy integers pass; bools, floats and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}", actual=repr(value))
    return int(value)


def token_indices(indices, n: int | None = None) -> np.ndarray:
    """``indices`` (``None`` for none) as int64; each must be an integer in ``[0, n)``, or ``>= 0`` without ``n``."""
    try:
        idx = np.asarray(list(() if indices is None else indices))
    except (TypeError, ValueError) as exc:  # not iterable, or ragged
        raise BoundsError("token indices must be a flat collection of integers", reason=str(exc)) from None
    if idx.size and (
        idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 or (n is not None and idx.max() >= n)
    ):
        raise BoundsError("token indices must be integers in [0, n)", tokens=n, indices=idx.tolist())
    return idx.astype(np.int64)  # an empty list comes back as float64


def row_mask(indices, n: int) -> np.ndarray:
    """Mask of ``n`` token rows marking ``indices`` under :func:`token_indices`'s rule."""
    mask = np.zeros(n, dtype=bool)
    mask[token_indices(indices, n)] = True
    return mask


def l2_norm_per_token(x) -> np.ndarray:
    """Row-wise L2 norms of a [tokens, channels] tensor."""
    arr = as_tensor(x, ndim=2, name="input")
    return np.sqrt(np.einsum("ij,ij->i", arr, arr))


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Mask of the ``k`` largest entries in each row of a 2-D array.

    Ties at the k-th largest value go to the lowest indices, so the mask
    marks the first ``k`` entries of a stable descending sort. One partition
    finds the k-th value and one comparison marks every entry at or above it;
    only rows that mark more than ``k`` drop their surplus ties.
    """
    n = scores.shape[1]
    if k <= 0 or k >= n:
        return np.full(scores.shape, k > 0)
    part = scores.copy()
    part.partition(n - k, axis=1)
    kth = part[:, n - k : n - k + 1].copy()
    del part  # frees the partitioned copy before the mask is built
    mask = scores >= kth
    if np.count_nonzero(mask) > k * mask.shape[0]:  # each row marks at least k; some mark more
        crowded = np.add.reduce(mask, axis=1) > k
        rows, kth = scores[crowded], kth[crowded]
        above, ties = rows > kth, rows == kth
        room = k - np.count_nonzero(above, axis=1)
        mask[crowded] = above | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
    return mask


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
