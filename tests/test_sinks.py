import json

import numpy as np
import pytest

from sinkquant.decoder import DecoderConfig, synthesize_sink_model
from sinkquant.dumpio import record_from_json, record_to_json
from sinkquant.errors import (
    BoundsError,
    ConfigError,
    DiscoveryError,
    FormatError,
    ShapeError,
    SinkQuantError,
)
from sinkquant.profiles import available_profiles, load_profile
from sinkquant.sinks import (
    SinkProfile,
    SinkSet,
    classify_stages,
    detect_sinks,
    discover_profile,
    preserve_first_n,
)


def plain_profile(d=64, channels=(7,), layers=4, emergence=1):
    return SinkProfile("toy", layers, emergence, d, channels)


@pytest.mark.parametrize("call", [
    lambda: plain_profile(channels=(1.7,)),  # once the channel (1,)
    lambda: plain_profile(channels=(-1,)),
    lambda: plain_profile(emergence=0.5),  # once accepted, so detection never ran
    lambda: plain_profile(layers=4.0),
    lambda: plain_profile(d=64.0),
    lambda: detect_sinks(np.ones((4, 64)), plain_profile(), k=2.5),  # once a raw TypeError
    lambda: detect_sinks(np.ones((4, 64)), plain_profile(), k=-1),
    lambda: preserve_first_n(8, 2.5),  # once a raw TypeError
    lambda: preserve_first_n(8.0, 2),
    lambda: discover_profile([np.eye(4, 8) * 1e4 + 1.0], max_channels=1.5),  # once a raw TypeError
])
def test_sink_counts_and_indices_must_be_integers(call):
    with pytest.raises(SinkQuantError):
        call()


class TestSinkSet:
    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SinkSet((3, 1), 5)
        with pytest.raises(ConfigError):
            SinkSet((1, 1), 5)

    def test_budget_enforced(self):
        with pytest.raises(ConfigError):
            SinkSet((0, 1, 2), 2)

    @pytest.mark.parametrize("budget", [2.5, True, False, "3", -1, None, np.float64(2.0)])
    def test_budget_must_be_a_non_negative_integer(self, budget):
        # 2.5 and True once built with that k_requested; "3" escaped as a raw TypeError.
        with pytest.raises(ConfigError):
            SinkSet((1,), budget)

    def test_numpy_integer_budget_becomes_int(self):
        s = SinkSet((1,), np.int64(3))
        assert s.k_requested == 3 and type(s.k_requested) is int
        assert SinkSet.empty(np.uint8(0)).k_requested == 0
        assert SinkSet.of([4, 2], np.int32(2)) == SinkSet((2, 4), 2)

    def test_mask_bounds(self):
        s = SinkSet.of([0, 14])
        with pytest.raises(BoundsError):
            s.mask(10)
        mask = s.mask(16)
        assert mask.sum() == 2 and mask[0] and mask[14]

    def test_json_roundtrip(self):
        s = SinkSet((2, 9), 5)
        assert record_from_json(SinkSet, record_to_json(s)) == s

    def test_non_integer_index_rejected(self):
        # Once truncated by int(): (1, 3) and (2,).
        with pytest.raises(BoundsError):
            SinkSet.of([1.7, 3.2])
        with pytest.raises(BoundsError):
            SinkSet((2.9,), 1)
        with pytest.raises(BoundsError):
            SinkSet.of([[1], [2, 3]])
        with pytest.raises(BoundsError):
            SinkSet((-1,), 1)
        assert SinkSet.of(np.array([9, 2, 9], dtype=np.int32)).indices == (2, 9)
        assert SinkSet(np.array([3], dtype=np.int64), 1).indices == (3,)
        assert all(type(i) is int for i in SinkSet.of(np.array([4, 1])))


class TestDetect:
    def test_injection_example(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(-1, 1, size=(32, 64))
        h[0, 7] = 2000.0
        h[14, 7] = -1800.0
        got = detect_sinks(h, plain_profile(), k=5, magnitude_ratio=100.0)
        assert list(got) == [0, 14]
        assert got.k_requested == 5

    def test_k_zero(self):
        h = np.ones((4, 64))
        assert list(detect_sinks(h, plain_profile(), 0)) == []

    def test_uniform_background(self):
        h = np.ones((16, 64))
        # ratio filter drops everything: nothing reaches 100x the median
        assert list(detect_sinks(h, plain_profile(), 5, magnitude_ratio=100.0)) == []
        # pure top-k keeps the k lowest indices among ties
        assert list(detect_sinks(h, plain_profile(), 5)) == [0, 1, 2, 3, 4]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            detect_sinks(np.ones((4, 32)), plain_profile(d=64), 5)

    def test_negative_k(self):
        with pytest.raises(ConfigError):
            detect_sinks(np.ones((4, 64)), plain_profile(), -1)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -1.0, 0, True, "100"])
    def test_ratio_must_be_a_finite_positive_number(self, ratio):
        # nan would qualify no entry (count 0) and -1 every entry (pure top-k), each without a word.
        with pytest.raises(ConfigError):
            detect_sinks(np.ones((4, 64)), plain_profile(), 2, magnitude_ratio=ratio)

    def test_multi_channel_union(self):
        h = np.zeros((10, 64)) + 0.1
        prof = plain_profile(channels=(3, 9))
        h[2, 3] = 500.0
        h[6, 9] = -400.0
        got = detect_sinks(h, prof, 5, magnitude_ratio=100.0)
        assert list(got) == [2, 6]

    def test_k_monotone_subset(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(40, 64))
        prof = plain_profile(channels=(7, 21))
        for k in range(0, 8):
            smaller = set(detect_sinks(h, prof, k))
            larger = set(detect_sinks(h, prof, k + 1))
            assert smaller <= larger

    def test_invariant_to_non_candidate_shuffle(self):
        rng = np.random.default_rng(6)
        h = rng.uniform(-1, 1, size=(24, 64))
        h[5, 7] = 900.0
        base = list(detect_sinks(h, plain_profile(), 1))
        shuffled = h.copy()
        rest = np.setdiff1d(np.arange(24), [5])
        shuffled[rest, 7] = rng.permutation(shuffled[rest, 7])
        assert list(detect_sinks(shuffled, plain_profile(), 1)) == base

    def test_recall_on_injections(self):
        rng = np.random.default_rng(7)
        prof = plain_profile(channels=(7, 30))
        for trial in range(40):
            n = int(rng.integers(24, 120))
            h = rng.normal(size=(n, 64))
            m = int(rng.integers(1, 6))
            positions = rng.choice(n, size=m, replace=False)
            for pos in positions:
                channel = int(rng.choice(prof.outlier_channels))
                h[pos, channel] = float(rng.choice([-1, 1]) * rng.uniform(300, 3000))
            got = detect_sinks(h, prof, 5, magnitude_ratio=100.0)
            assert set(got) == set(int(p) for p in positions)


class TestPreserveFirstN:
    def test_examples(self):
        assert list(preserve_first_n(100, 5)) == [0, 1, 2, 3, 4]
        assert list(preserve_first_n(100, 0)) == []
        assert list(preserve_first_n(3, 10)) == [0, 1, 2]

    def test_negative(self):
        with pytest.raises(ConfigError):
            preserve_first_n(5, -1)


def planted_dumps(layers, n, d, channels, start_layer, magnitude=2000.0, rng=None, scale=1.0):
    rng = rng or np.random.default_rng(11)
    dumps = []
    for l in range(layers):
        h = rng.normal(size=(n, d))
        if l >= start_layer:
            for c in channels:
                h[0, c] = magnitude
        dumps.append(h * scale)
    return dumps


class TestDiscover:
    def test_recovers_planted_channels(self):
        dumps = planted_dumps(8, 16, 4096, (2533, 1415), start_layer=1)
        prof = discover_profile(dumps, ratio=100.0, max_channels=4)
        assert set(prof.outlier_channels) == {1415, 2533}
        assert prof.emergence_layer == 1
        assert prof.total_layers == 8 and prof.hidden_size == 4096

    def test_all_noise_fails(self):
        with pytest.raises(DiscoveryError):
            discover_profile(planted_dumps(4, 8, 128, (), start_layer=99), ratio=100.0)

    def test_late_emergence_layer(self):
        dumps = planted_dumps(40, 8, 5120, (4743,), start_layer=3)
        prof = discover_profile(dumps, ratio=100.0)
        assert prof.emergence_layer == 3
        assert prof.outlier_channels == (4743,)

    def test_scale_invariance(self):
        base = planted_dumps(6, 8, 256, (100,), start_layer=2)
        a = discover_profile(base, ratio=50.0)
        b = discover_profile([7.3 * d for d in base], ratio=50.0)
        assert a.outlier_channels == b.outlier_channels
        assert a.emergence_layer == b.emergence_layer

    def test_max_channels_cap(self):
        dumps = planted_dumps(6, 8, 256, (10, 20, 30), start_layer=1)
        prof = discover_profile(dumps, ratio=100.0, max_channels=2)
        assert len(prof.outlier_channels) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            discover_profile([np.zeros((4, 8)), np.zeros((4, 9))])

    @pytest.mark.parametrize("ratio", [float("nan"), float("-inf"), -5.0, 0.0, None])
    def test_ratio_must_be_a_finite_positive_number(self, ratio):
        # -5 would make every channel an outlier channel, and nan a misleading DiscoveryError.
        dumps = planted_dumps(6, 8, 8, (3,), start_layer=1)
        with pytest.raises(ConfigError):
            discover_profile(dumps, ratio=ratio)


def stage_dumps(layers, emerge, dissipate, n=8, d=32, channel=5, magnitude=1500.0, seed=3):
    """Hand-built dump series following the planted life cycle."""
    rng = np.random.default_rng(seed)
    out = []
    for l in range(layers):
        entry = {
            "X_d_in": rng.normal(size=(n, 48)) * 0.1,
            "X_d_out": rng.normal(size=(n, d)) * 0.1,
            "H_prime": rng.normal(size=(n, d)),
            "H": rng.normal(size=(n, d)),
        }
        if emerge is not None:
            if l == emerge:
                entry["X_d_out"][0, channel] = magnitude
            if emerge <= l < dissipate:
                entry["H"][0, channel] = magnitude
            if emerge < l <= dissipate:
                entry["H_prime"][0, channel] = magnitude
            if l == dissipate:
                entry["X_d_out"][0, channel] = -magnitude
        out.append(entry)
    return out


class TestStages:
    def test_planted_eight_layer_pattern(self):
        dumps = stage_dumps(8, emerge=1, dissipate=6)
        report = classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=8), ratio=100.0)
        assert report.stages == [
            "initial",
            "emergence",
            "stabilization",
            "stabilization",
            "stabilization",
            "stabilization",
            "dissipation",
            "final",
        ]
        assert not report.warnings

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -1.0, 0.0, None])
    def test_ratio_must_be_a_finite_positive_number(self, ratio):
        # nan would label every layer initial and -1 every layer emergence, with no warning.
        dumps = stage_dumps(8, emerge=1, dissipate=6)
        with pytest.raises(ConfigError):
            classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=8), ratio=ratio)

    def test_no_outliers_all_initial(self):
        dumps = stage_dumps(5, emerge=None, dissipate=None)
        report = classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=5), ratio=100.0)
        assert report.stages == ["initial"] * 5

    def test_dissipation_in_last_layer_leaves_no_final(self):
        dumps = stage_dumps(6, emerge=1, dissipate=5)
        report = classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=6), ratio=100.0)
        assert report.stages[-1] == "dissipation"
        assert report.layers_in("final") == []

    def test_non_contiguous_pattern_warns(self):
        dumps = stage_dumps(8, emerge=1, dissipate=6)
        # outliers come back after dissipation: contradicts the progression
        dumps[7]["H"][0, 5] = 1500.0
        report = classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=8), ratio=100.0)
        assert report.warnings
        # labels stay a contiguous forward partition
        order = {"initial": 0, "emergence": 1, "stabilization": 2, "dissipation": 3, "final": 4}
        ranks = [order[s] for s in report.stages]
        assert ranks == sorted(ranks)

    INIT, EMERGE, STABLE, DISSIPATE, FINAL = "initial", "emergence", "stabilization", "dissipation", "final"

    @pytest.mark.parametrize(
        "layers, emerge, dissipate, edits, stages, warnings",
        [
            pytest.param(
                6, 1, 4, [(1, "X_d_out", 0.0)],
                [INIT, EMERGE, STABLE, STABLE, STABLE, FINAL],
                [
                    "layer 1: hidden outliers without a down-projection crossing",
                    "layer 4: same-sign re-crossing during stabilization",
                    "layer 5: outliers vanished without a dissipation crossing",
                ],
                id="hidden-without-crossing",
            ),
            pytest.param(
                4, 1, 2, [(2, "X_d_out", 0.0), (2, "H_prime", 0.0)],
                [INIT, EMERGE, FINAL, FINAL],
                ["layer 2: outliers vanished without a dissipation crossing"],
                id="vanished-in-emergence",
            ),
            pytest.param(
                6, 1, 4, [(4, "X_d_out", 0.0), (4, "H_prime", 0.0)],
                [INIT, EMERGE, STABLE, STABLE, FINAL, FINAL],
                ["layer 4: outliers vanished without a dissipation crossing"],
                id="vanished-in-stabilization",
            ),
            pytest.param(
                6, 1, 4, [(2, "X_d_out", 1500.0)],
                [INIT, EMERGE, EMERGE, STABLE, DISSIPATE, FINAL],
                [],
                id="same-sign-extends-emergence",
            ),
            pytest.param(
                8, 1, 6, [(3, "X_d_out", 1500.0)],
                [INIT, EMERGE, STABLE, STABLE, STABLE, STABLE, DISSIPATE, FINAL],
                ["layer 3: same-sign re-crossing during stabilization"],
                id="same-sign-in-stabilization",
            ),
            pytest.param(
                8, 1, 5, [(6, "H", 1500.0)],
                [INIT, EMERGE, STABLE, STABLE, STABLE, DISSIPATE, FINAL, FINAL],
                ["layer 6: outliers persisted past dissipation"],
                id="persisted-past-dissipation",
            ),
            pytest.param(
                8, 1, 5, [(7, "H", 1500.0)],
                [INIT, EMERGE, STABLE, STABLE, STABLE, DISSIPATE, FINAL, FINAL],
                ["layer 7: activity after the final stage began"],
                id="activity-after-final",
            ),
        ],
    )
    def test_each_warning_names_its_layer(self, layers, emerge, dissipate, edits, stages, warnings):
        # Each edit sets the planted entry (token 0, channel 5) of one layer's dump kind.
        dumps = stage_dumps(layers, emerge=emerge, dissipate=dissipate)
        for layer, kind, value in edits:
            dumps[layer][kind][0, 5] = value
        report = classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=layers), ratio=100.0)
        assert (report.stages, report.warnings) == (stages, warnings)

    def test_missing_kind_rejected(self):
        dumps = stage_dumps(3, emerge=None, dissipate=None)
        del dumps[1]["H_prime"]
        with pytest.raises(ConfigError):
            classify_stages(dumps, plain_profile(d=32, channels=(5,), layers=3))

    @pytest.mark.parametrize("target", [(0.9, 11.7, 400.0), (0, 11.7, 400.0), ("0", 11, 400.0)])
    def test_non_integer_plant_target_rejected(self, target):
        # (0.9, 11.7, 400.0) once planted at (0, 11) without a word.
        cfg = DecoderConfig(num_layers=4, hidden=16, heads=2, ffn_hidden=16)
        with pytest.raises(ConfigError):
            synthesize_sink_model(cfg, [target], 1, 2)


TABLE_PROFILES = {
    "LLaMA2-7B": (32, 1, 4096, (2533, 1415)),
    "LLaMA2-13B": (40, 3, 5120, (4743, 2100)),
    "Mistral-7B": (32, 1, 4096, (2070, 3398)),
    "LLaMA3-8B": (32, 1, 4096, (788, 1384, 4062)),
    "LLaMA3.1-8B-instruct": (32, 1, 4096, (788, 1384, 4062)),
    "LLaMA3.2-1B": (16, 1, 2048, (400, 698, 2029, 1159)),
    "LLaMA3.2-3B": (28, 1, 3072, (588, 1016, 3046, 1731)),
}


class TestProfileRegistry:
    def test_all_shipped_profiles_load(self):
        names = available_profiles()
        assert len(names) >= 7
        for model, (layers, emerge, hidden, channels) in TABLE_PROFILES.items():
            prof = load_profile(model)
            assert prof.model_name == model
            assert prof.total_layers == layers
            assert prof.emergence_layer == emerge
            assert prof.hidden_size == hidden
            assert prof.outlier_channels == channels

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            load_profile("no-such-model")

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "custom.json"
        prof = plain_profile()
        path.write_text(json.dumps(record_to_json(prof)))
        assert load_profile(str(path)) == prof

    def test_env_override_dir(self, tmp_path, monkeypatch):
        custom = plain_profile(d=128, channels=(3,))
        (tmp_path / "mymodel.json").write_text(json.dumps(record_to_json(custom)))
        monkeypatch.setenv("SINKQUANT_PROFILES", str(tmp_path))
        assert load_profile("mymodel") == custom
        assert "mymodel" in available_profiles()

    def test_malformed_profile(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_profile(str(path))
        path2 = tmp_path / "missing.json"
        path2.write_text(json.dumps({"model_name": "x"}))
        with pytest.raises(FormatError):
            load_profile(str(path2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("total_layers", "a"),
            ("outlier_channels", 5),
            ("outlier_channels", ["x"]),
            # Once truncated or coerced by int(), str() and tuple() into a loadable profile.
            ("emergence_layer", 1.9),
            ("emergence_layer", "2"),
            ("outlier_channels", "12"),
            ("outlier_channels", [3.7]),
            ("model_name", 5),
            ("total_layers", True),
            ("notes", "an unknown key"),
        ],
    )
    def test_wrongly_typed_profile_field(self, tmp_path, field, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**record_to_json(plain_profile()), field: value}))
        with pytest.raises(FormatError):
            load_profile(str(path))

    def test_profile_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(sorted(record_to_json(plain_profile()))))
        with pytest.raises(FormatError):
            load_profile(str(path))

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            SinkProfile("x", 4, 4, 64, (1,))
        with pytest.raises(ConfigError):
            SinkProfile("x", 4, 0, 64, ())
        with pytest.raises(BoundsError):
            SinkProfile("x", 4, 0, 64, (64,))
