"""Malformed counts and sample streams fail with typed errors at the entry point."""

import numpy as np
import pytest

from sinkquant.analysis import bias_disruption
from sinkquant.bench import run_bench
from sinkquant.decoder import DecoderConfig, InjectionHook
from sinkquant.errors import ConfigError, UsageError
from sinkquant.quant import CalibrationSet, QuantSpec, calibrate
from sinkquant.sinks import SinkSet

CONFIG = dict(num_layers=2, hidden=8, heads=2, ffn_hidden=16)
KVQ = np.random.default_rng(0).normal(size=(3, 6, 8))


def disruption(num_heads):
    return bias_disruption(*KVQ, SinkSet.of([0]), [QuantSpec(4)], num_heads=num_heads)


def case(name, build, error):
    return pytest.param(build, error, id=name)


@pytest.mark.parametrize("build, error", [
    case("num_layers-float", lambda: DecoderConfig(**{**CONFIG, "num_layers": 2.5}), ConfigError),  # once TypeError
    case("hidden-float", lambda: DecoderConfig(**{**CONFIG, "hidden": 8.0}), ConfigError),
    case("heads-bool", lambda: DecoderConfig(**{**CONFIG, "heads": True}), ConfigError),
    case("kv_heads-float", lambda: DecoderConfig(**{**CONFIG, "kv_heads": 1.0}), ConfigError),
    case("ffn_hidden-str", lambda: DecoderConfig(**{**CONFIG, "ffn_hidden": "16"}), ConfigError),
    case("seed-float", lambda: DecoderConfig(**{**CONFIG, "seed": 1.5}), ConfigError),
    case("seed-negative", lambda: DecoderConfig(**{**CONFIG, "seed": -1}), ConfigError),  # once ValueError
    case("hook-layer-float", lambda: InjectionHook(1.5, "add_to_ffn_output", ((0, 0, 1.0),)), ConfigError),
    case("bench-repeats-float", lambda: run_bench(repeats=1.5, tokens=8), UsageError),
    case("bench-tokens-float", lambda: run_bench(repeats=1, tokens=2.5), UsageError),
    case("bench-repeats-bool", lambda: run_bench(repeats=True, tokens=8), UsageError),  # once ran one repeat
    case("bench-seed-float", lambda: run_bench(repeats=1, tokens=8, seed=1.5), UsageError),
    case("disruption-heads-zero", lambda: disruption(0), ConfigError),  # once ZeroDivisionError
    case("disruption-heads-negative", lambda: disruption(-1), ConfigError),  # once ValueError
    case("disruption-heads-float", lambda: disruption(2.0), ConfigError),  # once TypeError
])
def test_non_integer_counts_are_typed(build, error):
    with pytest.raises(error):
        build()


def test_integer_counts_are_stored_as_int():
    cfg = DecoderConfig(num_layers=np.int64(2), hidden=8, heads=np.int32(2), ffn_hidden=16, seed=np.uint8(3))
    assert all(type(getattr(cfg, name)) is int for name in ("num_layers", "heads", "kv_heads", "seed"))
    assert cfg.to_json_dict()["seed"] == 3
    assert type(InjectionHook(np.int64(1), "add_to_ffn_output", ()).layer) is int


@pytest.mark.parametrize("wrap", [iter, lambda xs: (x for x in xs)], ids=["iterator", "generator"])
def test_calibration_samples_may_be_an_iterator(wrap):
    # Each sample was once read twice, so an iterator arrived empty the second time.
    rng = np.random.default_rng(3)
    xs = [rng.normal(size=(4, 6)) for _ in range(3)]
    spec = QuantSpec(3, "per_token", "static", group_size=3)
    assert len(CalibrationSet(wrap(xs))) == 3
    want = calibrate(xs, spec)
    got = calibrate(wrap(xs), spec)
    np.testing.assert_array_equal(got.scale, want.scale)
    np.testing.assert_array_equal(got.zero, want.zero)
