"""
Group-wise asymmetric integer quantization, step by step
========================================================

A tour of the quantizer: parameter derivation, the round-trip error bound,
what the grouping axes mean, and how dense-and-sparse outlier isolation
rescues low-bit codes from heavy tails.
"""

import numpy as np

from sinkquant import QuantSpec, dequantize, quantize_tensor

rng = np.random.default_rng(0)

# The scheme in one line: code = clamp(round(x/scale) + zero, 0, 2^bits - 1),
# with scale = (max - min) / (2^bits - 1) and zero = -round(min/scale).
# A ramp over [0, 3] at 2 bits lands exactly on the code lattice:
spec = QuantSpec(bits=2, axis="per_tensor")
qt = quantize_tensor([0.0, 1.0, 2.0, 3.0], spec)
print("ramp scale:", qt.params.scale[0], " zero point:", qt.params.zero[0])
print("codes:", qt.codes().ravel(), " reconstruction:", dequantize(qt).ravel())

# Real data does not land on the lattice, but every in-range element is
# reconstructed within half a scale step.
x = rng.normal(size=(8, 32))
for bits in (2, 3, 4, 8):
    spec = QuantSpec(bits, "per_token", group_size=16)
    qt = quantize_tensor(x, spec)
    err = np.abs(x - dequantize(qt)).max()
    print(f"{bits}-bit: max |x - x'| = {err:.5f}  (max scale/2 = {qt.params.scale.max() / 2:.5f})")

# Grouping axes. Per-token groups segment each row; per-channel groups
# segment each column across tokens; per-tensor shares one group.
for axis in ("per_token", "per_channel", "per_tensor"):
    spec = QuantSpec(4, axis, group_size=16)
    qt = quantize_tensor(x, spec)
    print(f"{axis:12s} -> {qt.params.n_groups} parameter groups for shape {x.shape}")

# One extreme entry poisons its whole group: the range (and therefore the
# step size) explodes for every neighbour that shares its parameters.
poisoned = x.copy()
poisoned[3, 5] = 400.0
spec = QuantSpec(2, "per_token", group_size=32)
plain = np.mean((poisoned - dequantize(quantize_tensor(poisoned, spec))) ** 2)

# Dense-and-sparse isolation removes the top fraction per vector before the
# range is computed, stores them at full precision, and splices them back.
sparse_spec = QuantSpec(2, "per_token", group_size=32, sparse_fraction=0.05)
qt = quantize_tensor(poisoned, sparse_spec)
isolated = np.mean((poisoned - dequantize(qt)) ** 2)
print(f"\n2-bit MSE with the planted outlier: {plain:.4f}")
print(f"2-bit MSE with 5% outlier isolation: {isolated:.4f}")
print(f"isolated entries: {qt.outlier_indices.size} (stored exactly)")

# sparse_fraction=1.0 isolates everything: a lossless passthrough used as
# the reference spec in disruption studies.
lossless = quantize_tensor(poisoned, QuantSpec(2, "per_token", sparse_fraction=1.0))
print("full isolation is bit-exact:", np.array_equal(dequantize(lossless), poisoned))
