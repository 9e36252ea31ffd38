"""
Predicting sink tokens from stable activation outliers
======================================================

Attention sinks co-occur with extreme activations at fixed channels of the
decoder-block outputs. Once a model's emergence layer and outlier channels
are known (they are input-independent), a single top-k scan of that layer's
output predicts the sink positions - no attention scores needed.
"""

import numpy as np

from sinkquant import available_profiles, detect_sinks, discover_profile, load_profile
from sinkquant.dumpio import record_to_json
from sinkquant.sinks import SinkProfile, preserve_first_n

rng = np.random.default_rng(7)

# Shipped profiles record (emergence layer, outlier channels) per model.
print("registry:", ", ".join(available_profiles()))
prof = load_profile("LLaMA2-7B")
print(
    f"{prof.model_name}: {prof.total_layers} layers, emergence at layer "
    f"{prof.emergence_layer}, outlier channels {prof.outlier_channels}\n"
)

# Synthesize an emergence-layer output with sinks at tokens 0 and 14:
# background activations are O(1), the outlier channel carries ~2000.
n = 32
h = rng.uniform(-1.0, 1.0, size=(n, prof.hidden_size))
h[0, 2533] = 2000.0
h[14, 2533] = -1800.0

found = detect_sinks(h, prof, k=5, magnitude_ratio=100.0)
print("detected sinks:", list(found))

# The magnitude-ratio filter is what keeps the budget honest: plain top-k
# always "finds" k tokens, even in outlier-free inputs.
clean = rng.uniform(-1.0, 1.0, size=(n, prof.hidden_size))
print("clean input, pure top-k:     ", list(detect_sinks(clean, prof, k=5)))
print("clean input, ratio filter on:", list(detect_sinks(clean, prof, k=5, magnitude_ratio=100.0)))

# The preserve-first-N baseline misses the sink at token 14 entirely.
pfn = preserve_first_n(n, 5)
print("\npreserve-first-5 keeps:", list(pfn), " (token 14 unprotected)")

# Profiles can also be discovered offline from per-layer output dumps:
# channels whose peak magnitude repeatedly crosses 100x the median.
dumps = []
for layer in range(8):
    d = rng.normal(size=(n, 256))
    if layer >= 2:
        d[0, 40] = 1500.0
        d[14, 199] = -1400.0
    dumps.append(d)
discovered = discover_profile(dumps, ratio=100.0, model_name="demo-model")
print("\ndiscovered profile:", record_to_json(discovered))
assert isinstance(discovered, SinkProfile)
