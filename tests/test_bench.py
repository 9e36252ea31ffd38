import numpy as np

from sinkquant.bench import reference_config, reference_profile, run_bench
from sinkquant.decoder import init_weights, prefill_with_kvsink


def test_footprint_is_the_prefill_cache_footprint():
    tokens, seed = 96, 3
    report = run_bench(tokens=tokens, repeats=1, scheme="kvquant_like", bits=2, group_size=16, seed=seed)
    cfg = reference_config()
    h0 = np.random.default_rng(seed).normal(size=(tokens, cfg.hidden))
    _, cache, kept = prefill_with_kvsink(
        h0, init_weights(cfg), cfg, reference_profile(cfg), scheme="kvquant_like", bits=2, group_size=16, k=5
    )
    assert report.footprint == cache.memory_footprint()
    assert report.sinks_kept == len(kept)
    assert report.to_json_dict()["sinks_kept"] == len(kept)
