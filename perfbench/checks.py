"""Property checks on workload outputs.

Every check returns a list of failure messages; an empty list means the
property holds. The expected values are computed here from the workload's
inputs and the method's definition (group layouts, half-step bounds, byte
padding), never read back from a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

LIFE_CYCLE = ["initial", "emergence", "stabilization", "dissipation"]


def _group_ids(shape, spec) -> np.ndarray:
    """Group of every element of an [n, d] tensor, from the layout table in ``quant``."""
    n, d = shape
    gs = spec.group_size
    rows = np.arange(n)[:, None]
    cols = np.arange(d)[None, :]
    if spec.axis == "per_tensor":
        return np.zeros((n, d), dtype=np.int64)
    if spec.axis == "per_token":
        gid = cols // gs if spec.mode == "static" else rows * -(-d // gs) + cols // gs
    else:
        gid = cols if spec.mode == "static" else cols * -(-n // gs) + rows // gs
    return np.broadcast_to(gid, (n, d))


def group_lengths(shape, spec) -> np.ndarray:
    """Number of elements in each group, in group-id order."""
    return np.bincount(_group_ids(shape, spec).ravel())


def expected_packed_bytes(shape, spec) -> int:
    """Sum over groups of ceil(group_len * bits / 8)."""
    return int(sum(-(-int(length) * spec.bits // 8) for length in group_lengths(shape, spec)))


def check_packed_length(name, qt) -> list[str]:
    expected = expected_packed_bytes(qt.shape, qt.spec)
    if len(qt.packed) != expected:
        return [f"{name}: packed length {len(qt.packed)} != sum of padded group lengths {expected}"]
    return []


def check_half_step(name, x, x_hat, qt) -> list[str]:
    """Non-outliers within half their group's step; outliers and constant groups exact."""
    x = np.asarray(x)
    x_hat = np.asarray(x_hat)
    if x_hat.shape != x.shape:
        return [f"{name}: reconstruction shape {x_hat.shape} != input shape {x.shape}"]
    gid = _group_ids(x.shape, qt.spec)
    params = qt.params
    outlier = np.zeros(x.size, dtype=bool)
    outlier[qt.outlier_indices] = True
    outlier = outlier.reshape(x.shape)
    degenerate = params.degenerate[gid]
    failures = []
    if not np.array_equal(x_hat[outlier], x[outlier]):
        failures.append(f"{name}: outliers are not restored exactly")
    coded = ~outlier & ~degenerate
    bound = 0.5 * params.scale[gid] * (1.0 + 1e-9)
    over = np.abs(x_hat - x) > bound
    bad = int(np.count_nonzero(over & coded))
    if bad:
        failures.append(f"{name}: {bad} element(s) off by more than half their group's step")
    constant = ~outlier & degenerate
    if not np.array_equal(x_hat[constant], x[constant]):
        failures.append(f"{name}: constant groups are not reproduced exactly")
    return failures


def check_same_quantized(name, a, b) -> list[str]:
    """``b`` (read back from a file) holds the same codes, parameters and outliers as ``a``."""
    failures = []
    if tuple(a.shape) != tuple(b.shape) or a.spec != b.spec:
        return [f"{name}: shape or spec changed in the file round trip"]
    for field in ("scale", "zero", "degenerate", "constant"):
        if not np.array_equal(getattr(a.params, field), getattr(b.params, field)):
            failures.append(f"{name}: parameter {field} changed in the file round trip")
    if not np.array_equal(a.codes(), b.codes()):
        failures.append(f"{name}: codes changed in the file round trip")
    if not (
        np.array_equal(a.outlier_indices, b.outlier_indices)
        and np.array_equal(a.outlier_values, b.outlier_values)
    ):
        failures.append(f"{name}: outliers changed in the file round trip")
    return failures


def check_tokens(name, found, planted) -> list[str]:
    found = tuple(int(t) for t in found)
    planted = tuple(sorted(int(t) for t in planted))
    if found != planted:
        return [f"{name}: got tokens {list(found)}, planted {list(planted)}"]
    return []


def check_error_order(errors: dict) -> list[str]:
    """Preserving the detected sinks beats preserving the first N, which beats nothing."""
    if not errors["kvsink"] < errors["pfn"] < errors["none"]:
        return [f"prefill error not ordered kvsink < pfn < none: {errors}"]
    return []


def check_footprint(name, actual: dict, predicted: dict) -> list[str]:
    if actual != predicted:
        return [f"{name}: memory_footprint {actual} != predict_footprint {predicted}"]
    return []


def check_rows_exact(name, recon, rows, tokens) -> list[str]:
    tokens = list(tokens)
    if not np.array_equal(recon[tokens], rows[tokens]):
        return [f"{name}: sink rows {tokens} do not reconstruct bit-exactly"]
    return []


def check_identical(name, a, b) -> list[str]:
    if len(a) != len(b) or not all(np.array_equal(x, y) for x, y in zip(a, b)):
        return [f"{name}: reconstructions differ"]
    return []


def check_profile(profile, emergence_layer, channels) -> list[str]:
    if profile.emergence_layer != emergence_layer or tuple(profile.outlier_channels) != tuple(channels):
        return [
            f"discover_profile: layer {profile.emergence_layer} channels {list(profile.outlier_channels)}, "
            f"planted layer {emergence_layer} channels {list(channels)}"
        ]
    return []


def check_stages(stages) -> list[str]:
    if list(stages) != LIFE_CYCLE:
        return [f"classify_stages: {list(stages)} != planted life cycle {LIFE_CYCLE}"]
    return []


def check_sink_logits_kept(rows) -> list[str]:
    """With sink rows preserved, no logit on a sink column may move at all."""
    moved = [r["attention_score_delta"] for r in rows if r["attention_score_delta"] != 0.0]
    if not rows or moved:
        return [f"bias_disruption(preserve_sinks=True): sink-column logit deltas {moved}"]
    return []


def rel_err(approx, exact) -> float:
    """Relative L2 error ||approx - exact|| / ||exact|| over all given arrays."""
    num = sum(float(np.sum((np.asarray(a) - np.asarray(e)) ** 2)) for a, e in zip(approx, exact))
    den = sum(float(np.sum(np.asarray(e) ** 2)) for e in exact)
    return float(np.sqrt(num / den))
