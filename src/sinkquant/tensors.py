"""Dense tensor conventions and the small numeric kernels everything else uses.

Activations are plain float64 numpy arrays in row-major order. 2-D tensors are
``[tokens, channels]``. Multi-head views are ``[heads, tokens, head_dim]``.
All inputs are expected to be finite; masked attention scores are the one
place ``-inf`` is allowed.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BoundsError, ConfigError, NumericError, ShapeError

# Query rows per tile of ``causal_attention``; any other size changes the bits of the results. At n=4096,
# dk=64 and one head on a 2-vCPU host, two tile workers of one BLAS thread each took 57 ms (median) with
# 128 or 256 rows, 65 ms with 512 and 88 ms with 1024.
ATTENTION_TILE = 256

# Entries per chunk of the quantizer's float stages (``quant.GroupLayout.chunks``) and of ``as_tensor``'s
# finiteness scan. A 2-bit kvquant_like ``quantize_scheme`` of a 4096x512 K/V pair plus both dequantizes took
# (medians of 25, interleaved, two workers on a 2-vCPU host) 101 ms with 2**14, 75 ms with 2**15, 64 ms with
# 2**16, 65 ms with 2**17, 71 ms with 2**18 and 80 ms as one chunk; 2**16 keeps a chunk's float64
# temporaries at 512 KiB.
CHUNK_ELEMENTS = 2**16


def as_tensor(x, ndim: int | None = None, name: str = "tensor") -> np.ndarray:
    """Coerce to a float64 array, checking rank and finiteness.

    Finiteness is checked ``CHUNK_ELEMENTS`` entries at a time, so no mask as large as the input is made.
    """
    arr = np.asarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}", shape=list(arr.shape))
    # Setting up the block iterator costs about 2 us a call: one pass over a 1x128 row took 1.4 us, the
    # blocks 3.3 us, and a decode-stream pass (4,168 calls, nearly all one row) 77 ms against 86 ms with
    # the blocks for every size (medians of 20, interleaved, on a 2-vCPU host).
    if arr.size <= CHUNK_ELEMENTS:
        finite = np.isfinite(arr).all()
    else:
        blocks = np.nditer(arr, flags=["external_loop", "buffered"], buffersize=CHUNK_ELEMENTS, order="K")
        finite = all(np.isfinite(block).all() for block in blocks)
    if not finite:
        raise NumericError(f"{name} contains non-finite values")
    return arr


def integer_at_least(value, least: int, name: str) -> int:
    """``value`` as an ``int``; ``ConfigError`` unless it is an integer ``>= least``.

    numpy integers pass; bools, floats and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}", actual=repr(value))
    return int(value)


def positive_number(value, name: str) -> float:
    """``value`` as a ``float``; ``ConfigError`` unless it is a finite real ``> 0`` (numpy numbers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite number > 0", actual=repr(value))
    return float(value)


def token_indices(indices, n: int | None = None) -> np.ndarray:
    """``indices`` (``None`` for none) as int64; each must be an integer in ``[0, n)``, or ``>= 0`` without ``n``."""
    try:
        idx = np.asarray(list(() if indices is None else indices))
    except (TypeError, ValueError) as exc:  # not iterable, or ragged
        raise BoundsError("indices must be a flat collection of integers", reason=str(exc)) from None
    if idx.size and (
        idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 or (n is not None and idx.max() >= n)
    ):
        raise BoundsError("indices must be integers in [0, n)", n=n, indices=idx.tolist())
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
    """Mask of the ``k`` largest-magnitude entries in each row of an [..., n, d] array.

    Ties at the k-th largest ``|score|`` go to the lowest indices, so the
    mask marks the first ``k`` entries of a stable descending sort of each
    row's ``|scores|``. One ``|scores|`` array is made and its rows are
    partitioned in place; one comparison then marks every entry at or above
    each row's k-th largest, and only rows that mark more than ``k`` drop
    their surplus ties.
    """
    d = scores.shape[-1]
    if k <= 0 or k >= d:
        return np.full(scores.shape, k > 0)
    mags = np.abs(scores)
    mags.partition(d - k, axis=-1)
    kth = mags[..., d - k : d - k + 1].copy()
    np.abs(scores, out=mags)  # the partition left ``mags`` reordered
    mask = mags >= kth
    if np.count_nonzero(mask) > k * (mask.size // d):  # each row marks at least k; some mark more
        crowded = np.add.reduce(mask, axis=-1) > k
        rows, kth = mags[crowded], kth[crowded]
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


def _worker_count(cpus: int, environ) -> int:
    """``cpus // blas_threads`` (at least 1), ``blas_threads`` read as OpenBLAS reads it, else ``cpus``."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        blas_threads = environ.get(var, "").strip()
        if blas_threads.isdecimal() and int(blas_threads) > 0:
            return max(1, cpus // int(blas_threads))
    return 1


_WORKERS = _worker_count(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, os.environ
)


def pool_size(tiles: int) -> int:
    """Threads to run ``tiles`` items of :func:`map_tiles` on: the worker count capped at the item count.

    The worker count is the process's CPUs over the BLAS threads that ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` set at import, so an unpinned BLAS keeps one.
    """
    return max(1, min(_WORKERS, tiles))


def map_tiles(fn, items, workers: int) -> None:
    """Call ``fn`` on every item, on ``workers`` threads (a :func:`pool_size`); in the calling thread when that is one.

    Items share no state but disjoint slices of the arrays they write. Those arrays, and anything else
    large, come from the caller, which can make one per thread since it names the count: memory a
    worker thread allocates stays in that thread's malloc arena after it is freed, so an item's own
    temporaries should be no larger than its share of the work. The first exception an item raises
    is raised here.
    """
    if workers == 1:
        for item in items:
            fn(item)
    else:
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(fn, items):
                pass


def attention_workers(n: int) -> int:
    """Threads ``causal_attention`` runs ``n`` query rows on: the worker count capped at the tile count."""
    return pool_size(-(-n // ATTENTION_TILE))


# Entries above the diagonal of a tile's own key block, where its query rows may not look.
_ABOVE = np.triu(np.ones((ATTENTION_TILE, ATTENTION_TILE), dtype=bool), k=1)


def _score_tile(q, k_t, start: int, end: int, scores: np.ndarray) -> np.ndarray:
    """Causal softmax numerators of query rows ``[start, end)`` against keys ``[:end]``, formed in ``scores``.

    ``scores`` is ``[heads, end - start, end]``; ``k_t`` is the keys transposed to ``[heads, dk, n]``.
    Returns the row sums ``[heads, end - start, 1]`` that the numerators are divided by.
    """
    rows = end - start
    np.matmul(q[:, start:end], k_t[:, :, :end], out=scores)
    scores /= np.sqrt(q.shape[2])
    np.copyto(scores[:, :, start:], -np.inf, where=_ABOVE[:rows, :rows])
    scores -= scores.max(axis=2, keepdims=True)
    np.exp(scores, out=scores)
    return scores.sum(axis=2, keepdims=True)


def _map_scored(fn, items, workers: int, entries: int) -> None:
    """:func:`map_tiles` of ``fn(item, buf)`` on ``workers`` threads, each with a buffer of ``entries`` floats.

    Each call borrows one of ``workers`` flat buffers (``None`` when ``entries`` is 0) and hands it back
    however it ends, so an item that raises leaves no other item waiting. The buffers come from this
    thread: buffers allocated by workers stay in per-thread malloc arenas.
    """
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(entries) if entries else None)

    def run(item):
        buf = buffers.get()
        try:
            fn(item, buf)
        finally:
            buffers.put(buf)

    map_tiles(run, items, workers)


def causal_attention(q, k, v, keep_weights: bool = False):
    """Causal scaled dot-product attention over ``[heads, n, dk]`` tensors.

    Query rows are processed in tiles of ``ATTENTION_TILE``. A tile of rows
    ``[start, end)`` is scored only against keys ``[:end]``; inside that
    block, the keys after each query row are masked to ``-inf``. Each tile's
    softmax is formed in place and multiplied by ``v[:, :end]``, so the
    working set is one tile of scores per worker. The full ``[heads, n, n]``
    weights are allocated only when ``keep_weights`` is true, scored in place
    tile by tile and exactly zero above the diagonal.

    Tiles share no state and run, widest first, through :func:`map_tiles`
    on ``attention_workers(n)`` threads, each scoring into one of as many
    buffers this thread allocated. The results do not depend on the count.

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
    heads, n, _ = q.shape
    k_t = k.transpose(0, 2, 1)
    out = np.empty((heads, n, v.shape[2]))
    weights = np.zeros((heads, n, n)) if keep_weights else None

    def tile(start, buf):
        end = min(start + ATTENTION_TILE, n)
        rows = end - start
        scores = weights[:, start:end, :end] if keep_weights else buf[: heads * rows * end].reshape(heads, rows, end)
        scores /= _score_tile(q, k_t, start, end, scores)
        np.matmul(scores, v[:, :end], out=out[:, start:end])

    entries = 0 if keep_weights else heads * min(ATTENTION_TILE, n) * n
    _map_scored(tile, range(0, n, ATTENTION_TILE)[::-1], attention_workers(n), entries)
    return out, weights


def causal_weights_at(q, key_sets, columns) -> np.ndarray:
    """Causal softmax weights of ``q`` against each of ``key_sets`` at ``columns``: ``[sets, heads, n, columns]``.

    ``q`` and every key set are ``[heads, n, dk]`` (``ShapeError`` otherwise); ``columns`` follow
    :func:`token_indices` with ``n``. Entry ``[i, h, t, j]`` equals, bit for bit,
    ``causal_attention(q, key_sets[i], v, keep_weights=True)[1][h, t, columns[j]]``: each tile runs the same
    scoring steps, then divides only the wanted columns it can see by the row sums and leaves 0 in those
    past its end. No full-width divide and no product with V is made.

    Every (key set, tile) pair runs, widest tiles first, through one :func:`map_tiles` call on
    ``pool_size(pairs)`` threads, each scoring into one of as many buffers this thread allocated. The
    results do not depend on the count. The caller holds all the key sets at once.
    """
    key_sets = list(key_sets)
    if q.ndim != 3 or any(k.shape != q.shape for k in key_sets):
        raise ShapeError(
            "causal weights need q and every key set of one [heads, n, dk] shape",
            q=list(q.shape),
            keys=[list(k.shape) for k in key_sets],
        )
    heads, n, _ = q.shape
    cols = token_indices(columns, n)
    k_ts = [k.transpose(0, 2, 1) for k in key_sets]
    weights = np.zeros((len(key_sets), heads, n, len(cols)))

    def tile(item, buf):
        i, start = item
        end = min(start + ATTENTION_TILE, n)
        rows = end - start
        scores = buf[: heads * rows * end].reshape(heads, rows, end)
        sums = _score_tile(q, k_ts[i], start, end, scores)
        seen = cols < end
        weights[i, :, start:end][:, :, seen] = scores[:, :, cols[seen]] / sums

    items = [(i, start) for start in range(0, n, ATTENTION_TILE)[::-1] for i in range(len(key_sets))]
    _map_scored(tile, items, pool_size(len(items)), heads * min(ATTENTION_TILE, n) * n)
    return weights


def split_heads(x, num_heads: int) -> np.ndarray:
    """[tokens, hidden] -> [heads, tokens, head_dim]; hidden must split evenly.

    ``num_heads`` follows :func:`integer_at_least` (``ConfigError`` unless an integer >= 1).
    """
    num_heads = integer_at_least(num_heads, 1, "num_heads")
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
