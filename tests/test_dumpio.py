import dataclasses
import hashlib
import json
import os
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sinkquant.dumpio import (
    CAPTURE_KINDS,
    ManifestEntry,
    load_manifest,
    read_dump,
    read_json,
    read_quantized,
    record_from_json,
    record_to_json,
    write_dump,
    write_json,
    write_manifest,
    write_quantized,
)
from sinkquant.cache import KVCache, load_snapshot, save_snapshot
from sinkquant.decoder import DecoderConfig, init_weights, load_weights, save_weights
from sinkquant.errors import ConfigError, FormatError, NumericError, ShapeError, SinkQuantError
from sinkquant.profiles import available_profiles, load_profile, load_profile_file
from sinkquant.quant import QuantSpec, dequantize, quantize_tensor
from sinkquant.sinks import SinkProfile, SinkSet


class TestDumpRoundTrip:
    def test_float64_bitwise(self, tmp_path):
        path = str(tmp_path / "a.kvsd")
        x = np.random.default_rng(0).normal(size=(3, 5))
        write_dump(path, x)
        back = read_dump(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x)

    def test_float32_bitwise(self, tmp_path):
        path = str(tmp_path / "a.kvsd")
        x = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
        write_dump(path, x, dtype="float32")
        back = read_dump(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, x)

    def test_high_rank(self, tmp_path):
        path = str(tmp_path / "a.kvsd")
        x = np.arange(24.0).reshape(2, 3, 4)
        write_dump(path, x)
        np.testing.assert_array_equal(read_dump(path), x)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "a.kvsd")
        write_dump(path, np.zeros((2, 3)))
        blob = open(path, "rb").read()
        assert blob[:4] == b"KVSD"
        version, dtype_code, ndim = struct.unpack_from("<III", blob, 4)
        assert (version, dtype_code, ndim) == (1, 2, 2)
        assert struct.unpack_from("<2Q", blob, 16) == (2, 3)
        assert len(blob) == 16 + 16 + 6 * 8


class TestDumpErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kvsd"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["offset"] == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.kvsd"
        path.write_bytes(b"KVSD" + struct.pack("<III", 9, 2, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["offset"] == 4

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "bad.kvsd"
        path.write_bytes(b"KVSD" + struct.pack("<III", 1, 7, 1) + struct.pack("<Q", 1) + b"\x00" * 8)
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["offset"] == 8

    def test_truncated_payload_reports_lengths(self, tmp_path):
        path = tmp_path / "t.kvsd"
        write_dump(str(path), np.zeros(4))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["expected"] == len(blob)
        assert err.value.context["actual"] == len(blob) - 8

    def test_zero_dim_rejected_on_read(self, tmp_path):
        path = tmp_path / "z.kvsd"
        path.write_bytes(b"KVSD" + struct.pack("<III", 1, 2, 2) + struct.pack("<QQ", 0, 3))
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["offset"] == 16

    @pytest.mark.parametrize("dims", [(2**63, 2), (2**32, 2**32, 1)])
    def test_dims_whose_product_wraps_uint64_rejected(self, tmp_path, dims):
        # Counted in uint64, these dims hold 0 elements and match the empty payload.
        path = tmp_path / "w.kvsd"
        head = b"KVSD" + struct.pack("<III", 1, 2, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
        path.write_bytes(head)
        with pytest.raises(FormatError) as err:
            read_dump(str(path))
        assert err.value.context["actual"] == len(head)

    def test_zero_dim_rejected_on_write(self, tmp_path):
        with pytest.raises(ShapeError):
            write_dump(str(tmp_path / "z.kvsd"), np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            write_dump(str(tmp_path / "s.kvsd"), np.float64(3.0))

    def test_non_finite_rejected_both_ways(self, tmp_path):
        path = tmp_path / "n.kvsd"
        with pytest.raises(NumericError):
            write_dump(str(path), np.array([1.0, np.nan]))
        good = np.zeros(2)
        write_dump(str(path), good)
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_dump(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_dump(str(tmp_path / "absent.kvsd"))

    def test_no_temp_files_left_behind(self, tmp_path):
        write_dump(str(tmp_path / "x.kvsd"), np.ones(3))
        assert sorted(os.listdir(tmp_path)) == ["x.kvsd"]


class TestManifest:
    def build(self, tmp_path, tokens=4, hidden=6):
        arr = np.random.default_rng(2).normal(size=(tokens, hidden))
        write_dump(str(tmp_path / "h.kvsd"), arr)
        entry = ManifestEntry(model="toy", layer=0, kind="H", tokens=tokens, hidden=hidden, file="h.kvsd")
        path = str(tmp_path / "manifest.json")
        write_manifest([entry], path)
        return path, entry

    def test_roundtrip(self, tmp_path):
        path, entry = self.build(tmp_path)
        assert load_manifest(path) == [entry]

    def test_unknown_kind(self, tmp_path):
        path, entry = self.build(tmp_path)
        raw = json.load(open(path))
        raw[0]["kind"] = "Z"
        json.dump(raw, open(path, "w"))
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        path, entry = self.build(tmp_path)
        os.unlink(tmp_path / "h.kvsd")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_shape_mismatch(self, tmp_path):
        path, entry = self.build(tmp_path)
        raw = json.load(open(path))
        raw[0]["tokens"] = 99
        json.dump(raw, open(path, "w"))
        with pytest.raises(FormatError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "manifest",
        [[], {"config": {}}, {"layers": []}, {"config": {}, "layers": [{"wq": "wq.kvsd"}]}, {"config": {}, "layers": 2}],
    )
    def test_malformed_weights_manifest_fails_typed(self, tmp_path, manifest):
        (tmp_path / "weights.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_weights(str(tmp_path))

    def test_capture_kind_names(self):
        assert CAPTURE_KINDS == ("H", "H_prime", "X_d_in", "X_d_out", "Q", "K", "V", "A")

    def test_written_as_strict_sorted_json(self, tmp_path):
        entries = [
            ManifestEntry(model="toy", layer=layer, kind=kind, tokens=4, hidden=6, file=f"{kind}{layer}.kvsd")
            for layer, kind in ((0, "H"), (1, "K"), (1, "A"))
        ]
        for entry in entries:
            write_dump(str(tmp_path / entry.file), np.zeros((4, 6)))
        path = tmp_path / "manifest.json"
        write_manifest(entries, str(path))
        text = path.read_text()
        assert text == json.dumps([dataclasses.asdict(e) for e in entries], indent=2, sort_keys=True) + "\n"
        assert load_manifest(str(path)) == entries


class TestWeightsManifest:
    """``load_weights`` holds a weights directory to the config it carries."""

    cfg = DecoderConfig(num_layers=2, hidden=8, heads=2, ffn_hidden=16, kv_heads=1, seed=1)

    def test_layer_count_must_match_the_config(self, tmp_path):
        save_weights(str(tmp_path), init_weights(self.cfg), self.cfg)
        manifest = read_json(str(tmp_path / "weights.json"))
        write_json(str(tmp_path / "weights.json"), dict(manifest, layers=manifest["layers"][:1]))
        with pytest.raises(FormatError) as info:
            load_weights(str(tmp_path))
        assert info.value.context["layers"] == 1 and info.value.context["num_layers"] == 2

    @pytest.mark.parametrize("role, shape", [("wq", (3, 3)), ("wk", (8, 8)), ("wd", (8, 16)), ("ln_ffn_gain", (1, 8))])
    def test_matrix_shape_must_match_the_config(self, tmp_path, role, shape):
        save_weights(str(tmp_path), init_weights(self.cfg), self.cfg)
        write_dump(str(tmp_path / f"layer001_{role}.kvsd"), np.ones(shape))
        with pytest.raises(FormatError) as info:
            load_weights(str(tmp_path))
        want = getattr(init_weights(self.cfg).layers[1], role).shape
        assert {k: info.value.context[k] for k in ("layer", "role", "expected", "actual")} == {
            "layer": 1,
            "role": role,
            "expected": list(want),
            "actual": list(shape),
        }
        assert f"layer 1 {role}" in info.value.message

    @pytest.mark.parametrize(
        "edit, unknown",
        [
            (lambda m: dict(m, bogus=3), "bogus"),
            (lambda m: dict(m, layers=[m["layers"][0], dict(m["layers"][1], wz="wz.kvsd")]), "wz"),
        ],
        ids=["top-level-key", "role"],
    )
    def test_unknown_keys_are_refused(self, tmp_path, edit, unknown):
        save_weights(str(tmp_path), init_weights(self.cfg), self.cfg)
        manifest = read_json(str(tmp_path / "weights.json"))
        write_json(str(tmp_path / "weights.json"), edit(manifest))
        with pytest.raises(FormatError) as info:
            load_weights(str(tmp_path))
        assert info.value.context["unknown"] == [unknown]

    def test_layer_norm_epsilon_is_not_a_config_key(self):
        obj = dict(self.cfg.to_json_dict(), ln_epsilon=1e-5)
        with pytest.raises(ConfigError):
            DecoderConfig.from_json_dict(obj)


class TestRecordCodec:
    @pytest.mark.parametrize(
        "record",
        [
            DecoderConfig(num_layers=2, hidden=8, heads=2, ffn_hidden=16, kv_heads=1, activation="gelu", rope=True),
            SinkSet((0, 3, 9), 5),
            SinkProfile("toy", 4, 1, 64, (7, 21)),
            ManifestEntry(model="toy", layer=2, kind="K", tokens=3, hidden=4, file="k.kvsd"),
            QuantSpec(3, "per_channel", "static", group_size=5, clip=0.01, sparse_fraction=0.02),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_roundtrip_through_json_text(self, record):
        obj = json.loads(json.dumps(record_to_json(record)))
        assert record_from_json(type(record), obj) == record

    def test_rejection_names_the_fields_and_raises_the_given_error(self):
        obj = {"indices": [1.0], "extra": 0}
        with pytest.raises(FormatError) as info:
            record_from_json(SinkSet, obj)
        assert info.value.context == {"unknown": ["extra"], "missing": ["k_requested"], "wrong": ["indices"]}
        with pytest.raises(ConfigError):
            record_from_json(DecoderConfig, [], ConfigError)


class TestQuantizedFile:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 16))
        spec = QuantSpec(3, "per_channel", "dynamic", group_size=5, sparse_fraction=0.1)
        qt = quantize_tensor(x, spec)
        path = str(tmp_path / "q.kvsq")
        write_quantized(path, qt)
        back = read_quantized(path)
        assert back.spec == qt.spec
        assert back.shape == qt.shape
        assert back.packed == qt.packed
        np.testing.assert_array_equal(back.outlier_indices, qt.outlier_indices)
        np.testing.assert_array_equal(dequantize(back), dequantize(qt))

    def test_golden_digest_is_stable(self, tmp_path):
        # freezes the documented byte layout; any change here is format-breaking
        x = np.linspace(-1.0, 1.0, 24).reshape(4, 6)
        qt = quantize_tensor(x, QuantSpec(2, "per_token", "dynamic", group_size=3))
        path = str(tmp_path / "q.kvsq")
        write_quantized(path, qt)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == "414a0ccd3b426eff9a4df5b747c98a7c038b1ea8be71f04883f2a8fb0c17fd1d"

    def test_stack_is_refused(self, tmp_path):
        stack = quantize_tensor(np.ones((3, 2, 4)) * np.arange(4), QuantSpec(2, "per_token", group_size=4))
        path = tmp_path / "q.kvsq"
        with pytest.raises(ShapeError):
            write_quantized(str(path), stack)
        assert not path.exists()

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "q.kvsq"
        path.write_bytes(b"KVSQ" + struct.pack("<II", 1, 4) + b"{bad")
        with pytest.raises(FormatError):
            read_quantized(str(path))

    def test_truncated_sections(self, tmp_path):
        x = np.ones((2, 4)) * np.arange(4)
        qt = quantize_tensor(x, QuantSpec(2, "per_token", group_size=4))
        path = tmp_path / "q.kvsq"
        write_quantized(str(path), qt)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(FormatError):
            read_quantized(str(path))


def sparse_tensor():
    x = np.random.default_rng(3).normal(size=(12, 16))
    return quantize_tensor(x, QuantSpec(3, "per_channel", "dynamic", group_size=5, sparse_fraction=0.1))


def split_kvsq(blob):
    """(header dict, section bytes) of a ``.kvsq`` blob."""
    head_len = struct.unpack_from("<I", blob, 8)[0]
    return json.loads(blob[12 : 12 + head_len]), blob[12 + head_len :]


def join_kvsq(header, body):
    head = json.dumps(header).encode()
    return b"KVSQ" + struct.pack("<II", 1, len(head)) + head + body


class TestQuantizedHeaderChecks:
    """Every malformed header fails at read time with a FormatError."""

    @pytest.fixture
    def valid(self, tmp_path):
        path = tmp_path / "q.kvsq"
        write_quantized(str(path), sparse_tensor())
        return path, *split_kvsq(path.read_bytes())

    def rewrite(self, valid, header):
        path, _, body = valid
        path.write_bytes(join_kvsq(header, body))
        with pytest.raises(FormatError) as info:
            read_quantized(str(path))
        return info.value

    @pytest.mark.parametrize("key", ["shape", "spec", "params_shape", "n_groups", "sections"])
    def test_missing_header_key(self, valid, key):
        header = dict(valid[1])
        del header[key]
        assert "header keys" in self.rewrite(valid, header).message

    def test_extra_header_key(self, valid):
        assert "header keys" in self.rewrite(valid, {**valid[1], "dtype": "f8"}).message

    @pytest.mark.parametrize("key", ["bits", "axis", "mode", "group_size", "clip", "sparse_fraction"])
    def test_missing_spec_key(self, valid, key):
        header = json.loads(json.dumps(valid[1]))
        del header["spec"][key]
        assert "spec keys" in self.rewrite(valid, header).message

    def test_extra_spec_key(self, valid):
        header = json.loads(json.dumps(valid[1]))
        header["spec"]["symmetric"] = False
        assert "spec keys" in self.rewrite(valid, header).message

    @pytest.mark.parametrize("count", [6, 8])
    def test_section_count(self, valid, count):
        sections = valid[1]["sections"]
        header = {**valid[1], "sections": (sections + [0])[:count]}
        assert "sections must be 7" in self.rewrite(valid, header).message

    def test_section_lengths_past_int64(self, valid):
        # Two outlier sections of 2**63 - 8 bytes each agree with each other; their sum is 2**64 - 16, so a total
        # kept in 64 bits would wrap round to the length of a file whose body is 16 bytes short of the rest.
        path, header, body = valid
        sections = list(header["sections"])
        kept = sum(sections) - sections[4] - sections[5] - 16
        sections[4] = sections[5] = 8 * (2**60 - 1)
        error = self.rewrite((path, header, body[:kept]), {**header, "sections": sections})
        assert "payload length mismatch" in error.message

    @pytest.mark.parametrize("field", ["n_groups", "shape", "params_shape", "sections", "bits", "group_size"])
    @pytest.mark.parametrize("retype", [float, bool], ids=["float", "bool"])
    def test_integer_field_of_another_type(self, valid, field, retype):
        header = json.loads(json.dumps(valid[1]))
        target = header["spec"] if field in header["spec"] else header
        value = target[field]
        if isinstance(value, list):
            value[0] = retype(value[0])
        else:
            target[field] = retype(value)
        self.rewrite(valid, header)

    def test_n_groups_against_layout(self, tmp_path):
        # The file is self-consistent (8 groups written, 8 declared) but the
        # per-token layout of a (5, 6) tensor at group size 3 has 10 groups.
        qt = quantize_tensor(np.ones((4, 6)) * np.arange(6), QuantSpec(2, "per_token", group_size=3))
        wrong = dataclasses.replace(qt, shape=(5, 6), params=dataclasses.replace(qt.params, shape=(5, 6)))
        path = str(tmp_path / "q.kvsq")
        write_quantized(path, wrong)
        with pytest.raises(FormatError, match="n_groups"):
            read_quantized(path)

    def test_params_shape_against_layout(self, tmp_path):
        qt = quantize_tensor(np.ones((4, 6)) * np.arange(6), QuantSpec(2, "per_token", group_size=3))
        wrong = dataclasses.replace(qt, params=dataclasses.replace(qt.params, shape=(5, 6)))
        path = str(tmp_path / "q.kvsq")
        write_quantized(path, wrong)
        with pytest.raises(FormatError, match="parameters do not fit"):
            read_quantized(path)

    def test_outlier_index_outside_shape(self, tmp_path):
        qt = sparse_tensor()
        indices = qt.outlier_indices.copy()
        indices[-1] = qt.shape[0] * qt.shape[1]
        path = str(tmp_path / "q.kvsq")
        write_quantized(path, dataclasses.replace(qt, outlier_indices=indices))
        with pytest.raises(FormatError, match="outlier index"):
            read_quantized(path)

    def test_non_finite_json_is_refused(self, tmp_path):
        with pytest.raises(NumericError):
            write_json(str(tmp_path / "x.json"), {"ratio": float("inf")})
        assert not (tmp_path / "x.json").exists()


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def integer_fields(target):
    """Keys of a header (or its spec) whose value is an integer or a list of integers."""
    ints = lambda v: type(v) is int or (isinstance(v, list) and v and all(type(i) is int for i in v))
    return sorted(key for key, value in target.items() if ints(value))


@st.composite
def mutated_headers(draw, header):
    """One mutation of a valid header and whether the reader must refuse it.

    A key is dropped or added, a value replaced or nudged, or an integer
    written as the equal float (``8.0`` for ``8``), which must be refused.
    """
    header = json.loads(json.dumps(header))
    target = draw(st.sampled_from([header, header["spec"]]))
    key = draw(st.sampled_from(sorted(target)))
    action = draw(st.sampled_from(["drop", "add", "replace", "nudge", "float"]))
    if action == "float":
        key = draw(st.sampled_from(integer_fields(target)))
        if isinstance(target[key], list):
            i = draw(st.integers(0, len(target[key]) - 1))
            target[key][i] = float(target[key][i])
        else:
            target[key] = float(target[key])
        return header, True
    if action == "drop":
        del target[key]
    elif action == "add":
        target[draw(st.text(min_size=1, max_size=8))] = draw(JSON_VALUES)
    elif action == "replace":
        target[key] = draw(JSON_VALUES)
    else:
        value = target[key]
        step = draw(st.integers(-20, 20))
        if isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            value[i] = value[i] + step
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            target[key] = value + step
        else:
            target[key] = draw(st.sampled_from(["per_token", "per_channel", "per_tensor", "static"]))
    return header, False


BASE_TENSORS = {
    "sparse": sparse_tensor,
    "static": lambda: quantize_tensor(np.arange(40.0).reshape(5, 8), QuantSpec(4, "per_token", "static", 3)),
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(BASE_TENSORS)))
def test_mutated_headers_fail_typed(tmp_path, data, kind):
    path = tmp_path / "q.kvsq"
    write_quantized(str(path), BASE_TENSORS[kind]())
    header, body = split_kvsq(path.read_bytes())
    mutated, refused = data.draw(mutated_headers(header))
    path.write_bytes(join_kvsq(mutated, body))
    try:
        back = read_quantized(str(path))
    except SinkQuantError:
        return
    assert not refused, "an integer field written as a float was read"
    # A header the reader accepts describes a tensor that decodes.
    assert dequantize(back).shape == back.shape == back.codes().shape


def test_json_helpers(tmp_path):
    path = str(tmp_path / "x.json")
    write_json(path, {"a": [1, 2]})
    assert read_json(path) == {"a": [1, 2]}
    with pytest.raises(FormatError):
        read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(FormatError):
        read_json(str(bad))


# Arbitrary JSON values; no "/" in strings, so a mutated file name never leaves the file's directory.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.characters(blacklist_characters="/")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def mutated_bytes(data, blob):
    """``blob`` with one byte flipped, cut short, or a short run inserted or overwritten."""
    pos = data.draw(st.integers(0, len(blob)))
    kind = data.draw(st.sampled_from(["flip", "cut", "insert", "overwrite"]))
    if kind == "flip" and pos < len(blob):
        return blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255))]) + blob[pos + 1 :]
    if kind in ("flip", "cut"):
        return blob[:pos]
    chunk = data.draw(st.binary(min_size=1, max_size=16))
    return blob[:pos] + chunk + blob[pos + (len(chunk) if kind == "overwrite" else 0) :]


def mutated_json(data, blob):
    """A JSON document with one node, up to four levels down, replaced or dropped; or its bytes mutated."""
    if data.draw(st.booleans()):
        return mutated_bytes(data, blob)
    doc = json.loads(blob)
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 4))):
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        doc = data.draw(JSON_VALUES)
    elif data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid file set per reader: a dump, a capture manifest, a profile, a snapshot and a weights directory."""
    root = tmp_path_factory.mktemp("valid")
    write_dump(str(root / "x.kvsd"), np.random.default_rng(3).normal(size=(3, 4)))
    profile = load_profile(available_profiles()[0])
    write_json(str(root / "profile.json"), dataclasses.asdict(profile))
    rng = np.random.default_rng(4)
    cache = KVCache(2, 8, scheme="pt_kv_dynamic", bits=4, group_size=4)
    cache.bulk_load(0, rng.normal(size=(6, 8)), rng.normal(size=(6, 8)), sinks=[0])
    save_snapshot(cache, str(root / "snapshot"))
    cfg = DecoderConfig(num_layers=1, hidden=8, heads=2, ffn_hidden=8, seed=1)
    save_weights(str(root / "weights"), init_weights(cfg), cfg)
    entry = ManifestEntry(model="toy", layer=0, kind="H", tokens=3, hidden=4, file="x.kvsd")
    write_manifest([entry], str(root / "manifest.json"))
    # A dump named "5", so that a manifest "file": 5 coerced to a name would load.
    shutil.copy(root / "x.kvsd", root / "5")
    return root


# Reader, and the files under the valid set it may find mutated.
MUTATION_TARGETS = {
    "dump": (lambda root: read_dump(os.path.join(root, "x.kvsd")), ["x.kvsd"]),
    "manifest": (lambda root: load_manifest(os.path.join(root, "manifest.json")), ["manifest.json"]),
    "profile": (lambda root: load_profile_file(os.path.join(root, "profile.json")), ["profile.json"]),
    "snapshot": (
        lambda root: load_snapshot(os.path.join(root, "snapshot")),
        ["snapshot/snapshot.json", "snapshot/layer000_keys.kvsd"],
    ),
    "weights": (lambda root: load_weights(os.path.join(root, "weights")), ["weights/weights.json"]),
}


@settings(max_examples=400, deadline=None)
@given(data=st.data(), target=st.sampled_from(sorted(MUTATION_TARGETS)))
def test_mutated_files_fail_typed(valid_files, data, target):
    reader, names = MUTATION_TARGETS[target]
    name = data.draw(st.sampled_from(names))
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(valid_files, root, dirs_exist_ok=True)
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        mutate = mutated_json if name.endswith(".json") else mutated_bytes
        with open(path, "wb") as fh:
            fh.write(mutate(data, blob))
        try:
            reader(root)
        except SinkQuantError:
            pass


# The sidecar ``valid_files`` writes for its snapshot: layer 0 holds 6 tokens of width 8 with a sink at 0.
SNAPSHOT_SIDECAR = json.dumps(
    {
        "scheme": "pt_kv_dynamic",
        "bits": 4,
        "group_size": 4,
        "sparse_fraction": 0.0,
        "width": 8,
        "num_layers": 2,
        "layers": [
            {"layer": 0, "tokens": 6, "sinks": [0], "keys_file": "layer000_keys.kvsd",
             "values_file": "layer000_values.kvsd"},
            {"layer": 1, "tokens": 0, "sinks": []},
        ],
    }
).encode()


@pytest.mark.parametrize(
    "target, name, content",
    [
        ("profile", "profile.json", b'{"model_name": "m", "total_layers": 1e999, "emergence_layer": 0,'
         b' "hidden_size": 8, "outlier_channels": [1]}'),
        ("profile", "profile.json", b'{"model_name": "\xff"}'),
        ("profile", "profile.json", b"[" * 100_000),
        ("manifest", "manifest.json", b'[{"model": "m", "layer": Infinity, "kind": "H", "tokens": 3,'
         b' "hidden": 4, "file": "x.kvsd"}]'),
        ("manifest", "manifest.json", b'[{"model": "m", "layer": 1.9, "kind": "H", "tokens": 3,'
         b' "hidden": 4, "file": "x.kvsd"}]'),
        ("manifest", "manifest.json", b'[{"model": "m", "layer": "2", "kind": "H", "tokens": 3,'
         b' "hidden": 4, "file": "x.kvsd"}]'),
        ("manifest", "manifest.json", b'[{"model": "m", "layer": 0, "kind": "H", "tokens": 3.0,'
         b' "hidden": 4, "file": "x.kvsd"}]'),
        ("manifest", "manifest.json", b'[{"model": "m", "layer": 0, "kind": "H", "tokens": 3,'
         b' "hidden": 4, "file": 5}]'),
        ("snapshot", "snapshot/snapshot.json", b'{"layers": [{"keys_file": "k\\u0000", "values_file": "v"}]}'),
        ("snapshot", "snapshot/snapshot.json", SNAPSHOT_SIDECAR.replace(b'"tokens": 6', b'"tokens": 99')),
        ("snapshot", "snapshot/snapshot.json", SNAPSHOT_SIDECAR.replace(b'"sinks": [0]', b'"sinks": ["x"]')),
        ("snapshot", "snapshot/snapshot.json", SNAPSHOT_SIDECAR.replace(b'"width": 8', b'"width": 2.5')),
        ("weights", "weights/weights.json", b"\xfe\xff"),
    ],
    ids=["profile-overflow", "profile-not-utf8", "profile-deep-nesting", "manifest-infinity", "manifest-float-layer",
         "manifest-string-layer", "manifest-float-tokens", "manifest-int-file", "snapshot-nul-path",
         "snapshot-tokens-beyond-dump", "snapshot-string-sink", "snapshot-float-width", "weights-not-utf8"],
)
def test_readers_fail_typed_on_found_inputs(valid_files, tmp_path, target, name, content):
    # Inputs that once escaped as OverflowError, UnicodeDecodeError, RecursionError or ValueError,
    # that int() and str() once coerced into a loadable manifest entry, or that a snapshot once loaded
    # next to its (6, 8) dumps unchecked.
    shutil.copytree(valid_files, tmp_path, dirs_exist_ok=True)
    (tmp_path / name).write_bytes(content)
    with pytest.raises(FormatError):
        MUTATION_TARGETS[target][0](str(tmp_path))
