import csv
import io
import json
import os
import shlex

import numpy as np
import pytest

from sinkquant.analysis import attention_bias, error_decomposition, qk_sink_diagnostics, rows_to_csv_text
from sinkquant.cache import KVCache
from sinkquant.cli import build_parser, main
from sinkquant.dumpio import ManifestEntry, read_dump, read_quantized, write_dump, write_json, write_manifest
from sinkquant.errors import UsageError
from sinkquant.quant import QuantSpec, calibrate, scheme_specs
from sinkquant.sinks import SinkSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    h = rng.uniform(-1, 1, size=(32, 64))
    h[0, 7] = 2000.0
    h[14, 7] = -1800.0
    write_dump(str(tmp_path / "h.kvsd"), h)
    write_json(
        str(tmp_path / "profile.json"),
        {
            "model_name": "toy",
            "total_layers": 4,
            "emergence_layer": 1,
            "hidden_size": 64,
            "outlier_channels": [7],
        },
    )
    keys = rng.normal(size=(32, 16))
    values = rng.normal(size=(32, 16))
    queries = rng.normal(size=(32, 16))
    for name, arr in (("keys", keys), ("values", values), ("queries", queries)):
        write_dump(str(tmp_path / f"{name}.kvsd"), arr)
    write_json(str(tmp_path / "sinks.json"), {"indices": [0, 14], "k_requested": 5})
    write_json(
        str(tmp_path / "config.json"),
        {"num_layers": 4, "hidden": 32, "heads": 2, "ffn_hidden": 48, "seed": 1},
    )
    write_json(
        str(tmp_path / "plant.json"),
        {"targets": [[0, 11, 2000.0], [9, 11, -1500.0]], "emerge_layer": 1, "dissipate_layer": 3},
    )
    return tmp_path


class TestDetect:
    def test_happy_path(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys,
            "detect",
            "--dump", str(workspace / "h.kvsd"),
            "--profile", str(workspace / "profile.json"),
            "--k", "5",
            "--ratio", "100",
        )
        assert code == 0
        assert out["sinks"]["indices"] == [0, 14]
        assert out["count"] == 2

    @pytest.mark.parametrize("ratio", ["nan", "-1", "0", "inf"])
    def test_ratio_must_be_a_finite_positive_number(self, workspace, capsys, ratio):
        # nan would qualify no entry and -1 every one, each without a word.
        code, _, err = run_cli(
            capsys,
            "detect",
            "--dump", str(workspace / "h.kvsd"),
            "--profile", str(workspace / "profile.json"),
            "--ratio", ratio,
        )
        assert code == 2 and err["code"] == "config"

    def test_registry_profile_by_name(self, workspace, capsys):
        rng = np.random.default_rng(1)
        big = rng.uniform(-1, 1, size=(8, 4096))
        big[3, 2533] = 999.0
        write_dump(str(workspace / "big.kvsd"), big)
        code, out, _ = run_cli(
            capsys,
            "detect",
            "--dump", str(workspace / "big.kvsd"),
            "--profile", "LLaMA2-7B",
            "--k", "1",
        )
        assert code == 0
        assert out["sinks"]["indices"] == [3]

    def test_missing_dump_is_format_error(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "detect",
            "--dump", str(workspace / "absent.kvsd"),
            "--profile", str(workspace / "profile.json"),
        )
        assert code == 3
        assert err["code"] == "format"
        # stable error schema: exactly these fields, context carries the path
        assert set(err) == {"code", "message", "context"}
        assert err["context"]["path"].endswith("absent.kvsd")

    def test_bad_flag_is_usage_error(self, workspace, capsys):
        code, _, err = run_cli(capsys, "detect", "--dump")
        assert code == 2
        assert err["code"] == "usage"


class TestQuantize:
    def test_writes_outputs_and_footprint(self, workspace, capsys):
        out_dir = workspace / "out"
        code, out, _ = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "pt_kv_static",
            "--bits", "4",
            "--group", "16",
            "--sinks", str(workspace / "sinks.json"),
            "--out", str(out_dir),
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["keys.kvsq", "sinks.json", "values.kvsq"]
        assert out["footprint"]["quantized_bytes"] == 2 * 30 * 16 * 4 // 8
        assert out["sinks"]["indices"] == [0, 14]

    def test_footprint_fields_with_sparse_outliers(self, workspace, capsys):
        rng = np.random.default_rng(5)
        write_dump(str(workspace / "k160.kvsd"), rng.normal(size=(160, 128)))
        write_dump(str(workspace / "v160.kvsd"), rng.normal(size=(160, 128)))
        code, out, _ = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "k160.kvsd"),
            "--values", str(workspace / "v160.kvsd"),
            "--scheme", "kvquant_like",
            "--bits", "2",
            "--group", "16",
            "--sparse", "0.01",
            "--sinks", str(workspace / "sinks.json"),
            "--out", str(workspace / "out160"),
        )
        assert code == 0
        rows = 160 - 2
        assert out["footprint"] == {
            # keys: 128 per-channel static groups of 158 codes, 40 bytes each;
            # values: 158 rows x 8 per-token groups of 16 codes, 4 bytes each
            "quantized_bytes": 128 * 40 + rows * 8 * 4,
            # two sink rows of keys and values at 2 bytes per element
            "sink_bytes": 2 * (128 + 128) * 2,
            # 8 bytes per group: 128 static key groups plus the value groups
            "params_bytes": (128 + rows * 8) * 8,
            # keys: rint(0.01 * 16 * 128) = 20 outliers in each of 9 stripes of 16 rows and
            # rint(0.01 * 14 * 128) = 18 in the last 14 rows; values: rint(0.01 * 128) = 1 per row
            "sparse_bytes": (9 * 20 + 18 + rows * 1) * 6,
        }

    def test_pfn_flag(self, workspace, capsys):
        out_dir = workspace / "out2"
        code, out, _ = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "pt_kv_dynamic",
            "--pfn", "3",
            "--out", str(out_dir),
        )
        assert code == 0
        assert out["sinks"]["indices"] == [0, 1, 2]

    def test_sinks_and_pfn_conflict(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "pt_kv_dynamic",
            "--sinks", str(workspace / "sinks.json"),
            "--pfn", "3",
            "--out", str(workspace / "out3"),
        )
        assert code == 2 and err["code"] == "usage"

    @pytest.mark.parametrize(
        "payload",
        [{"indices": [0]}, [1, 2], {"indices": [0], "k_requested": "a"}],
        ids=["missing-k", "list", "non-integer"],
    )
    def test_malformed_sinks_file_is_format_error(self, workspace, capsys, payload):
        write_json(str(workspace / "bad_sinks.json"), payload)
        code, _, err = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "pt_kv_dynamic",
            "--sinks", str(workspace / "bad_sinks.json"),
            "--out", str(workspace / "out_bad"),
        )
        assert code == 3 and err["code"] == "format"

    def test_unknown_scheme_rejected_by_parser(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "bogus",
            "--out", str(workspace / "out4"),
        )
        assert code == 2 and err["code"] == "usage"

    @pytest.mark.parametrize(
        "scheme, subs",
        [("pc_key_pt_value_static", ("keys", "values")), ("pt_kv_static", ("keys", "values")), ("kvquant_like", ("keys",))],
    )
    def test_calibration_directory(self, workspace, capsys, scheme, subs):
        # Each static side is encoded with calibrate of its own subdirectory's dumps, and reads no other.
        rng = np.random.default_rng(5)
        samples = {}
        for sub in subs:
            os.makedirs(workspace / "calib" / sub, exist_ok=True)
            samples[sub] = [rng.normal(size=(16, 16)) * (3.0 if sub == "keys" else 0.5) for _ in range(2)]
            for i, sample in enumerate(samples[sub]):
                write_dump(str(workspace / "calib" / sub / f"s{i}.kvsd"), sample)
        code, out, _ = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", scheme,
            "--sinks", str(workspace / "sinks.json"),
            "--calib", str(workspace / "calib"),
            "--out", str(workspace / "out5"),
        )
        assert code == 0
        for sub, spec in zip(("keys", "values"), scheme_specs(scheme, 4, 16)):
            got = read_quantized(str(workspace / "out5" / f"{sub}.kvsq")).params
            assert (sub in samples) == (spec.mode == "static")
            if sub in samples:
                want = calibrate(samples[sub], spec)
                for field in ("scale", "zero", "degenerate", "constant"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    def test_calibration_directory_needs_a_static_side(self, workspace, capsys):
        # A dynamic preset fits every tensor itself: --calib would change nothing, so it is refused.
        for sub in ("keys", "values"):
            os.makedirs(workspace / "calib" / sub)
            write_dump(str(workspace / "calib" / sub / "s0.kvsd"), np.ones((4, 16)))
        code, _, err = run_cli(
            capsys,
            "quantize",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--scheme", "pt_kv_dynamic",
            "--calib", str(workspace / "calib"),
            "--out", str(workspace / "out6"),
        )
        assert code == 2 and err["code"] == "usage"
        assert not (workspace / "out6").exists()


class TestAnalyze:
    def test_error_report(self, workspace, capsys):
        csv_path = workspace / "err.csv"
        code, out, _ = run_cli(
            capsys,
            "analyze", "error",
            "--tensor", str(workspace / "keys.kvsd"),
            "--sinks", str(workspace / "sinks.json"),
            "--bits", "2,4",
            "--axes", "per_token,per_channel",
            "--modes", "dynamic,static",
            "--group", "8",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert len(out["rows"]) == 8
        assert csv_path.exists()

    def test_display_scale(self, workspace, capsys):
        args = [
            "analyze", "error",
            "--tensor", str(workspace / "keys.kvsd"),
            "--sinks", str(workspace / "sinks.json"),
            "--bits", "2",
        ]
        _, raw, _ = run_cli(capsys, *args)
        _, scaled, _ = run_cli(capsys, *args, "--display-scale", "100")
        assert scaled["rows"][0]["overall"] == pytest.approx(100 * raw["rows"][0]["overall"])

    def test_bias_report(self, workspace, capsys):
        rng = np.random.default_rng(2)
        attn = np.tril(rng.uniform(size=(2, 8, 8))) + 1e-9
        attn = np.tril(attn)
        attn /= attn.sum(axis=2, keepdims=True)
        write_dump(str(workspace / "attn.kvsd"), attn)
        write_dump(str(workspace / "vheads.kvsd"), rng.normal(size=(2, 8, 4)))
        code, out, _ = run_cli(
            capsys,
            "analyze", "bias",
            "--attention", str(workspace / "attn.kvsd"),
            "--values", str(workspace / "vheads.kvsd"),
            "--pfn", "2",
        )
        assert code == 0
        assert [r["head"] for r in out["rows"]] == [0, 1]

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-2"])
    def test_display_scale_must_be_a_finite_positive_number(self, workspace, capsys, scale):
        code, _, err = run_cli(
            capsys, "analyze", "error", "--tensor", str(workspace / "keys.kvsd"), "--display-scale", scale
        )
        assert code == 2 and err["code"] == "usage"

    def test_bias_layer_must_be_non_negative(self, workspace, capsys):
        causal = np.tril(np.ones((2, 8, 8)))
        write_dump(str(workspace / "attn.kvsd"), causal / causal.sum(axis=2, keepdims=True))
        write_dump(str(workspace / "vheads.kvsd"), np.random.default_rng(2).normal(size=(2, 8, 4)))
        code, _, err = run_cli(
            capsys,
            "analyze", "bias",
            "--attention", str(workspace / "attn.kvsd"),
            "--values", str(workspace / "vheads.kvsd"),
            "--pfn", "2",
            "--layer", "-5",
        )
        assert code == 2 and err["code"] == "usage"

    def test_bias_centroid_method(self, workspace, capsys):
        rng = np.random.default_rng(2)
        attn = np.tril(rng.uniform(size=(2, 8, 8)))
        attn /= attn.sum(axis=2, keepdims=True)
        values = rng.normal(size=(2, 8, 4))
        write_dump(str(workspace / "attn.kvsd"), attn)
        write_dump(str(workspace / "vheads.kvsd"), values)
        code, out, _ = run_cli(
            capsys,
            "analyze", "bias",
            "--attention", str(workspace / "attn.kvsd"),
            "--values", str(workspace / "vheads.kvsd"),
            "--pfn", "2",
            "--method", "centroid",
        )
        assert code == 0 and out["method"] == "centroid"
        for h, row in enumerate(out["rows"]):
            expected = attention_bias(attn[h], values[h], SinkSet.of([0, 1]), method="centroid")
            assert row["avg_cosine"] == expected.avg_cosine
            assert (row["degenerate_pairs"], row["pairs"]) == (expected.degenerate_pairs, 8)

    def test_bias_report_from_2d_dumps(self, workspace, capsys):
        rng = np.random.default_rng(4)
        attn = np.tril(rng.uniform(size=(8, 8)))
        attn /= attn.sum(axis=1, keepdims=True)
        values = rng.normal(size=(8, 4))
        reports = []
        for name, a, v in (("2d", attn, values), ("3d", attn[None], values[None])):
            write_dump(str(workspace / f"attn{name}.kvsd"), a)
            write_dump(str(workspace / f"v{name}.kvsd"), v)
            code, out, _ = run_cli(
                capsys,
                "analyze", "bias",
                "--attention", str(workspace / f"attn{name}.kvsd"),
                "--values", str(workspace / f"v{name}.kvsd"),
                "--pfn", "2",
            )
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1] and len(reports[0]["rows"]) == 1

    def test_one_dimensional_head_dumps_fail_typed(self, workspace, capsys):
        write_dump(str(workspace / "flat.kvsd"), np.ones(8))
        for argv in (
            ["analyze", "bias", "--attention", str(workspace / "flat.kvsd"), "--values", str(workspace / "flat.kvsd")],
            ["analyze", "qk", "--queries", str(workspace / "flat.kvsd"), "--keys", str(workspace / "flat.kvsd")],
        ):
            code, _, err = run_cli(capsys, *argv, "--pfn", "1")
            assert (code, err["code"]) == (2, "shape")

    def test_reports_state_their_clip(self, workspace, capsys):
        common = ["--sinks", str(workspace / "sinks.json"), "--bits", "2,4"]
        error = ["analyze", "error", "--tensor", str(workspace / "keys.kvsd"), *common]
        disruption = [
            "analyze", "disruption",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--queries", str(workspace / "queries.kvsd"),
            *common,
        ]
        for argv in (error, disruption):
            _, clipped, _ = run_cli(capsys, *argv, "--clip", "0.1")
            _, unclipped, _ = run_cli(capsys, *argv)
            assert [r["clip"] for r in clipped["rows"]] == [0.1, 0.1]
            assert [r["clip"] for r in unclipped["rows"]] == [None, None]

    def test_csv_file_is_the_report_rows(self, workspace, capsys):
        keys = read_dump(str(workspace / "keys.kvsd"))
        queries = read_dump(str(workspace / "queries.kvsd"))
        sinks = SinkSet((0, 14), 5)
        specs = [QuantSpec(b, "per_token", "dynamic", 16, None, 0.0) for b in (2, 4)]
        expected = {
            "error": error_decomposition(keys, sinks, specs).to_json_dict(display_scale=100.0)["rows"],
            "qk": qk_sink_diagnostics(queries, keys, sinks),
        }
        runs = {
            "error": ["--tensor", str(workspace / "keys.kvsd"), "--bits", "2,4", "--display-scale", "100"],
            "qk": ["--queries", str(workspace / "queries.kvsd"), "--keys", str(workspace / "keys.kvsd")],
        }
        for name, argv in runs.items():
            csv_path = workspace / f"{name}.csv"
            code, _, _ = run_cli(
                capsys, "analyze", name, *argv, "--sinks", str(workspace / "sinks.json"), "--csv", str(csv_path)
            )
            assert code == 0
            assert csv_path.read_bytes() == rows_to_csv_text(expected[name]).encode()
        assert not [p for p in os.listdir(workspace) if p.startswith(".tmp-")]

    @staticmethod
    def sink_commands(workspace):
        """Every analyze subcommand that takes ``--sinks``/``--pfn``, with its input flags."""
        rng = np.random.default_rng(2)
        attn = np.tril(rng.uniform(size=(2, 32, 32)))
        write_dump(str(workspace / "attn.kvsd"), attn / attn.sum(axis=2, keepdims=True))
        write_dump(str(workspace / "vheads.kvsd"), rng.normal(size=(2, 32, 4)))
        kvq = ["--keys", str(workspace / "keys.kvsd"), "--values", str(workspace / "values.kvsd")]
        return {
            "error": ["--tensor", str(workspace / "keys.kvsd"), "--bits", "2"],
            "bias": ["--attention", str(workspace / "attn.kvsd"), "--values", str(workspace / "vheads.kvsd")],
            "disruption": [*kvq, "--queries", str(workspace / "queries.kvsd"), "--bits", "2"],
            "qk": ["--queries", str(workspace / "queries.kvsd"), *kvq],
        }

    def test_sinks_and_pfn_conflict_in_every_subcommand(self, workspace, capsys):
        for name, argv in self.sink_commands(workspace).items():
            code, out, err = run_cli(
                capsys, "analyze", name, *argv, "--sinks", str(workspace / "sinks.json"), "--pfn", "3"
            )
            assert (code, out, err["code"]) == (2, None, "usage"), name

    def test_every_csv_report_names_its_file(self, workspace, capsys):
        for name, argv in self.sink_commands(workspace).items():
            csv_path = workspace / f"{name}.csv"
            code, out, _ = run_cli(capsys, "analyze", name, *argv, "--pfn", "2", "--csv", str(csv_path))
            assert code == 0 and out["csv"] == str(csv_path), name
            # The report's keys are sorted, the file's columns are in row order.
            with open(csv_path, newline="") as fh:
                written = list(csv.DictReader(fh))
            assert written == list(csv.DictReader(io.StringIO(rows_to_csv_text(out["rows"])))), name
            _, plain, _ = run_cli(capsys, "analyze", name, *argv, "--pfn", "2")
            assert "csv" not in plain and plain["rows"] == out["rows"], name

    def test_disruption_takes_the_spec_grid(self, workspace, capsys):
        argv = [*self.sink_commands(workspace)["disruption"], "--pfn", "2"]
        code, out, _ = run_cli(
            capsys, "analyze", "disruption", *argv, "--axes", "per_token,per_channel", "--modes", "dynamic,static"
        )
        assert code == 0
        grid = [(2, axis, mode) for axis in ("per_token", "per_channel") for mode in ("dynamic", "static")]
        assert [(r["bits"], r["axis"], r["mode"]) for r in out["rows"]] == grid
        _, single, _ = run_cli(capsys, "analyze", "disruption", *argv, "--axis", "per_channel", "--mode", "static")
        assert single["rows"] == [out["rows"][3]]

    @pytest.mark.parametrize("flag", ["--bits", "--axes", "--modes"])
    @pytest.mark.parametrize("empty", ["", ","], ids=["blank", "comma"])
    def test_empty_grid_list_is_usage_error(self, workspace, capsys, flag, empty):
        for name in ("error", "disruption"):
            csv_path = workspace / f"{name}.csv"
            argv = [*self.sink_commands(workspace)[name], "--pfn", "2", flag, empty, "--csv", str(csv_path)]
            code, out, err = run_cli(capsys, "analyze", name, *argv)
            assert (code, out, err["code"]) == (2, None, "usage"), name
            assert flag in err["message"] and not csv_path.exists(), name

    def test_disruption_report(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "disruption",
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--queries", str(workspace / "queries.kvsd"),
            "--sinks", str(workspace / "sinks.json"),
            "--bits", "2,8",
            "--heads", "2",
        )
        assert code == 0
        assert out["rows"][0]["bits"] == 2
        assert out["rows"][0]["bias_l2_delta"] >= out["rows"][1]["bias_l2_delta"]

    @pytest.mark.parametrize("heads", ["0", "-1"])
    def test_disruption_non_positive_heads_is_config_error(self, workspace, capsys, heads):
        argv = [*self.sink_commands(workspace)["disruption"], "--pfn", "2", "--heads", heads]
        code, out, err = run_cli(capsys, "analyze", "disruption", *argv)
        assert (code, out, err["code"]) == (2, None, "config")

    def test_disruption_query_width_is_shape_error(self, workspace, capsys):
        write_dump(str(workspace / "narrow.kvsd"), np.ones((32, 8)))
        argv = [*self.sink_commands(workspace)["disruption"], "--pfn", "2", "--queries", str(workspace / "narrow.kvsd")]
        code, out, err = run_cli(capsys, "analyze", "disruption", *argv)
        assert (code, out, err["code"]) == (2, None, "shape")

    @pytest.mark.parametrize(
        "flag, shape",
        [("--values", (2, 32, 16)), ("--values", (1, 16, 16)), ("--keys", (1, 32, 8))],
        ids=["values-other-heads", "values-other-tokens", "keys-other-head-dim"],
    )
    def test_qk_mismatched_dump_is_shape_error(self, workspace, capsys, flag, shape):
        write_dump(str(workspace / "odd.kvsd"), np.ones(shape))
        argv = [*self.sink_commands(workspace)["qk"], "--pfn", "2", flag, str(workspace / "odd.kvsd")]
        code, out, err = run_cli(capsys, "analyze", "qk", *argv)
        assert (code, out, err["code"]) == (2, None, "shape")

    def test_bias_values_without_kv_heads_is_format_error(self, workspace, capsys):
        # A values dump cannot carry zero kv heads: the reader refuses every zero-sized dimension.
        write_dump(str(workspace / "noheads.kvsd"), np.ones((1, 32, 4)))
        blob = bytearray((workspace / "noheads.kvsd").read_bytes())
        blob[16:24] = bytes(8)  # the head count, the first entry of the dimension table
        (workspace / "noheads.kvsd").write_bytes(bytes(blob[:40]))
        argv = [*self.sink_commands(workspace)["bias"][:2], "--values", str(workspace / "noheads.kvsd"), "--pfn", "2"]
        code, out, err = run_cli(capsys, "analyze", "bias", *argv)
        assert (code, out, err["code"]) == (3, None, "format")

    def test_qk_report(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "qk",
            "--queries", str(workspace / "queries.kvsd"),
            "--keys", str(workspace / "keys.kvsd"),
            "--values", str(workspace / "values.kvsd"),
            "--sinks", str(workspace / "sinks.json"),
        )
        assert code == 0
        assert "v_norm_ratio" in out["rows"][0]

    def test_qk_report_is_strict_json_with_zero_non_sink_rows(self, workspace, capsys):
        zeros = np.zeros((32, 16))
        zeros[[0, 14]] = np.random.default_rng(2).normal(size=(2, 16))
        write_dump(str(workspace / "zq.kvsd"), zeros)
        code = main(
            [
                "analyze", "qk",
                "--queries", str(workspace / "zq.kvsd"),
                "--keys", str(workspace / "zq.kvsd"),
                "--sinks", str(workspace / "sinks.json"),
            ]
        )
        text = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = json.loads(text, parse_constant=reject)
        assert code == 0
        assert out["rows"][0]["q_norm_ratio"] is None and out["rows"][0]["k_norm_ratio"] is None

    def test_stages_via_manifest(self, workspace, capsys):
        from sinkquant.decoder import DecoderConfig, decoder_forward, synthesize_sink_model

        cfg = DecoderConfig(num_layers=6, hidden=64, heads=2, ffn_hidden=96, seed=4)
        weights, hooks = synthesize_sink_model(cfg, [(0, 9, 1800.0)], 1, 4)
        h0 = np.random.default_rng(5).normal(size=(16, 64))
        _, dumps = decoder_forward(h0, weights, cfg, hooks=hooks, capture=("H", "H_prime", "X_d_in", "X_d_out"))
        entries = []
        for kind in ("H", "H_prime", "X_d_in", "X_d_out"):
            for layer, arr in enumerate(dumps[kind]):
                fn = f"{kind}_{layer}.kvsd"
                write_dump(str(workspace / fn), arr)
                entries.append(
                    ManifestEntry("toy", layer, kind, arr.shape[0], arr.shape[1], fn)
                )
        write_manifest(entries, str(workspace / "manifest.json"))
        write_json(
            str(workspace / "stage_profile.json"),
            {
                "model_name": "toy",
                "total_layers": 6,
                "emergence_layer": 1,
                "hidden_size": 64,
                "outlier_channels": [9],
            },
        )
        code, out, _ = run_cli(
            capsys,
            "analyze", "stages",
            "--manifest", str(workspace / "manifest.json"),
            "--profile", str(workspace / "stage_profile.json"),
        )
        assert code == 0
        stages = [row["stage"] for row in out["layers"]]
        assert stages[1] == "emergence" and stages[4] == "dissipation"

    def test_stages_manifest_without_stage_kinds(self, workspace, capsys):
        write_manifest([ManifestEntry("toy", 0, "K", 32, 16, "keys.kvsd")], str(workspace / "k_manifest.json"))
        code, _, err = run_cli(
            capsys,
            "analyze", "stages",
            "--manifest", str(workspace / "k_manifest.json"),
            "--profile", str(workspace / "profile.json"),
        )
        assert code == 2 and err["code"] == "config"
        assert err["message"] == "no layer dumps supplied"  # classify_stages' own check


class TestSimulate:
    def args(self, workspace, out_name, *extra):
        return [
            "simulate",
            "--config", str(workspace / "config.json"),
            "--plant", str(workspace / "plant.json"),
            "--mode", "kvsink",
            "--scheme", "pt_kv_static",
            "--bits", "2",
            "--k", "5",
            "--tokens", "24",
            "--seed", "3",
            "--out", str(workspace / out_name),
            *extra,
        ]

    def test_end_to_end(self, workspace, capsys):
        code, out, _ = run_cli(capsys, *self.args(workspace, "sim"))
        assert code == 0
        assert out["sinks"]["indices"] == [0, 9]
        assert out["h_l2_delta"] > 0
        assert (workspace / "sim" / "h_last.kvsd").exists()
        assert (workspace / "sim" / "snapshot" / "snapshot.json").exists()

    def test_relative_error_is_against_the_fp_forward(self, workspace, capsys):
        # h_rel_err = ||h_q - h_fp|| / ||h_fp||, so h_l2_delta / h_rel_err is ||h_fp||, whatever the bits.
        coarse, fine = (run_cli(capsys, *self.args(workspace, f"rel{b}", "--bits", str(b)))[1] for b in (2, 8))
        assert 0 < fine["h_rel_err"] < coarse["h_rel_err"] < 1
        norms = [out["h_l2_delta"] / out["h_rel_err"] for out in (coarse, fine)]
        assert norms[0] == pytest.approx(norms[1], rel=1e-12)

    def test_seeded_runs_are_bit_identical(self, workspace, capsys):
        run_cli(capsys, *self.args(workspace, "sim_a"))
        run_cli(capsys, *self.args(workspace, "sim_b"))
        a = (workspace / "sim_a" / "h_last.kvsd").read_bytes()
        b = (workspace / "sim_b" / "h_last.kvsd").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "mode, flag, value", [("pfn", "--ratio", "nan"), ("none", "--ratio", "-1"), ("none", "--k", "-1")]
    )
    def test_k_and_ratio_checked_in_every_mode(self, workspace, capsys, mode, flag, value):
        code, _, err = run_cli(capsys, *self.args(workspace, "sim_bad", "--mode", mode, flag, value))
        assert code == 2 and err["code"] == "config"
        assert not (workspace / "sim_bad").exists()

    @pytest.mark.parametrize("flag, value", [("--tokens", "-3"), ("--tokens", "0"), ("--seed", "-1")])
    def test_tokens_and_seed_checked_before_any_work(self, workspace, capsys, flag, value):
        code, _, err = run_cli(capsys, *self.args(workspace, "sim_bad", flag, value))
        assert code == 2 and err["code"] == "usage"
        assert not (workspace / "sim_bad").exists()

    def test_wrong_width_profile_refused_before_layer_0(self, workspace, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(KVCache, "bulk_load", lambda self, *args, **kw: loads.append(args))
        # profile.json is 64 wide; the config's hidden size is 32
        code, _, err = run_cli(capsys, *self.args(workspace, "sim_w", "--profile", str(workspace / "profile.json")))
        assert code == 2 and err["code"] == "shape"
        assert loads == [] and not (workspace / "sim_w").exists()

    def test_kvsink_without_profile_or_plant(self, workspace, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--config", str(workspace / "config.json"),
            "--mode", "kvsink",
            "--out", str(workspace / "sim_c"),
        )
        assert code == 2 and err["code"] == "config"

    @pytest.mark.parametrize(
        "config",
        [{"num_layers": 4, "hidden": 32}, {"num_layers": "2", "hidden": 32, "heads": 2, "ffn_hidden": 48}, [4, 32]],
        ids=["missing-fields", "string-layers", "list"],
    )
    def test_malformed_config_is_config_error(self, workspace, capsys, config):
        write_json(str(workspace / "bad_config.json"), config)
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--config", str(workspace / "bad_config.json"),
            "--mode", "none",
            "--out", str(workspace / "sim_e"),
        )
        assert code == 2 and err["code"] == "config"

    @pytest.mark.parametrize(
        "dropped, changed",
        [
            pytest.param("targets", {}, id="targets"),
            pytest.param("emerge_layer", {}, id="emerge_layer"),
            pytest.param("dissipate_layer", {}, id="dissipate_layer"),
            # Wrongly typed fields, once truncated by int() or parsed by float().
            pytest.param(None, {"targets": [[0.9, 11, 2000.0]]}, id="float-token"),
            pytest.param(None, {"targets": [[0, 11.7, 2000.0]]}, id="float-channel"),
            pytest.param(None, {"targets": [[0, 11, "2000"]]}, id="string-magnitude"),
            pytest.param(None, {"emerge_layer": 1.5}, id="float-emerge-layer"),
            pytest.param(None, {"dissipate_layer": "3"}, id="string-dissipate-layer"),
            pytest.param(None, {"emerge_layer": True}, id="bool-emerge-layer"),
            pytest.param(None, {"bogus": 3}, id="unknown-key"),
            pytest.param(None, {"targets": [[0, 11]]}, id="short-target"),
        ],
    )
    def test_plant_missing_field_is_config_error(self, workspace, capsys, dropped, changed):
        plant = {"targets": [[0, 11, 2000.0]], "emerge_layer": 1, "dissipate_layer": 3, **changed}
        plant.pop(dropped, None)
        write_json(str(workspace / "bad_plant.json"), plant)
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--config", str(workspace / "config.json"),
            "--plant", str(workspace / "bad_plant.json"),
            "--mode", "none",
            "--out", str(workspace / "sim_f"),
        )
        assert code == 2 and err["code"] == "config"

    def test_numeric_failure_exit_code(self, workspace, capsys):
        # write_json refuses non-finite numbers, so the plant is written as lenient JSON text
        (workspace / "inf_plant.json").write_text(
            json.dumps({"targets": [[0, 1, float("inf")]], "emerge_layer": 1, "dissipate_layer": 3})
        )
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--config", str(workspace / "config.json"),
            "--plant", str(workspace / "inf_plant.json"),
            "--mode", "none",
            "--out", str(workspace / "sim_d"),
        )
        assert code == 4 and err["code"] == "numeric"


class TestBench:
    def test_quick_run(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--tokens", "128", "--repeat", "2", "--bits", "2",
        )
        assert code == 0
        assert out["prefill_ms"] > 0
        assert out["detect_ms"] >= 0
        assert out["footprint"]["quantized_bytes"] > 0

    def test_zero_repeat_is_usage_error(self, workspace, capsys):
        code, _, err = run_cli(capsys, "bench", "--repeat", "0", "--tokens", "64")
        assert code == 2 and err["code"] == "usage"

    def test_custom_config(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--config", str(workspace / "config.json"),
            "--tokens", "64",
            "--repeat", "1",
        )
        assert code == 0
        assert out["config"]["num_layers"] == 4

    @pytest.mark.parametrize(
        "config",
        [{"num_layers": 4, "hidden": 32, "heads": 2}, {"num_layers": 2, "hidden": 32, "heads": 2, "ffn_hidden": 4.5}],
        ids=["missing-field", "float-ffn"],
    )
    def test_malformed_config_is_config_error(self, workspace, capsys, config):
        write_json(str(workspace / "bad_config.json"), config)
        code, _, err = run_cli(
            capsys, "bench", "--config", str(workspace / "bad_config.json"), "--tokens", "64", "--repeat", "1"
        )
        assert code == 2 and err["code"] == "config"


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_commands() -> list[list[str]]:
    """The argv of each ``sinkquant`` command in README's command-line block, continuation lines joined."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sinkquant ")]


def test_readme_commands_parse():
    # Parsing only: no handler runs and no file is read.
    parser = build_parser()
    parsed = {}
    for argv in readme_commands():
        parsed[" ".join(argv[:2] if argv[0] == "analyze" else argv[:1])] = parser.parse_args(argv)
    analyses = ["analyze " + name for name in ("error", "bias", "disruption", "qk", "stages")]
    assert sorted(parsed) == sorted(["detect", "quantize", *analyses, "simulate", "bench"])
    for name in ("quantize", "analyze error", "analyze bias", "analyze disruption", "analyze qk"):
        assert (parsed[name].sinks, parsed[name].pfn) == ("sinks.json", None), name
    error, disruption = parsed["analyze error"], parsed["analyze disruption"]
    assert (error.axes, error.modes, error.csv) == ("per_token,per_channel", "dynamic,static", "table.csv")
    assert (disruption.bits, disruption.axes, disruption.modes) == ("2,3,4,8", "per_token", "static")


@pytest.mark.parametrize(
    "argv", [["error", "--tensor", "k.kvsd"], ["disruption", "--keys", "k", "--values", "v", "--queries", "q"]]
)
def test_grid_flag_prefixes_name_one_flag(argv):
    # ``--ax`` and ``--mod`` are prefixes of both spellings of one flag, so they stay unambiguous; parsing only.
    args = build_parser().parse_args(["analyze", *argv, "--ax", "per_channel", "--mod", "static", "--bi", "3"])
    assert (args.axes, args.modes, args.bits) == ("per_channel", "static", "3")
    with pytest.raises(UsageError, match="ambiguous"):
        build_parser().parse_args(["analyze", *argv, "--s", "sinks.json"])
