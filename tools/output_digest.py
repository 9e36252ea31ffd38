"""SHA-256 digests of sinkquant's outputs over a fixed grid of seeded cases.

A change that must not move any output is checked by running this script
against the old and the new tree and comparing the two JSON files:

    PYTHONPATH=<old tree>/src python tools/output_digest.py --out old.json
    PYTHONPATH=<new tree>/src python tools/output_digest.py --out new.json
    cmp old.json new.json

Each case draws its inputs from its own seed (a CRC-32 of its id), so its
digest depends only on what the library returns. The script calls only
public names that have been stable across recent versions
(``quantize_scheme`` with ``key_params``/``value_params``, ``calibrate`` on a
``CalibrationSet``, ``dequantize``, ``KVCache``, ``prefill_with_kvsink``,
``error_decomposition``, ``bias_disruption`` and ``write_quantized``).
Cases, one digest each:

* ``scheme``: the ``.kvsq`` bytes of both sides of ``quantize_scheme``, over
  the four presets x bits {2, 3, 4} x sparse {None, 0, 0.01} x sinks
  {none, some} x static parameters {none, calibrated};
* ``cache``: ``reconstruct`` of a layer after ``bulk_load`` plus appends (one
  of them a sink), with its token and region counts and footprint, over the
  presets x bits x sparse {None, 0.01} x sinks x static parameters;
* ``prefill``: ``prefill_with_kvsink``'s final hidden states, preserved sinks
  and every layer's reconstruct on a small planted decoder, per architecture
  (plain multi-head, rotary, rotary grouped-query with 2 K/V heads for 4
  query heads, one K/V head for 4) x mode x two presets x bits {2, 4} x
  k {0, 4};
* ``errors``: ``error_decomposition`` rows over a grid of specs, with the
  calibration set's own sinks and with ``cal_sinks``;
* ``disruption``: ``bias_disruption`` rows over four specs, with the sinks
  kept and quantized x heads {1, 2} x tokens {300, 1024}; the last of three
  sinks lies in the last attention tile, which is partial at 300 tokens;
* ``long_scheme``: the ``.kvsq`` bytes and the ``dequantize`` output of both
  sides of ``quantize_scheme`` on a 4096-token, 512-wide K/V pair with three
  sinks (4093 kept rows), over the presets x static parameters {none,
  calibrated} at 2 bits;
* ``long_cache``: ``reconstruct`` of a layer after a 4096-token ``bulk_load``
  at width 128 plus appends, over the same grid.

The long cases are larger than one chunk of the quantizer's float stages
(``sinkquant.tensors.CHUNK_ELEMENTS``, 2**16 entries); the others fit in one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import tempfile
import zlib

import numpy as np

from sinkquant import (
    SCHEME_PRESETS,
    CalibrationSet,
    DecoderConfig,
    KVCache,
    QuantSpec,
    SinkProfile,
    SinkSet,
    bias_disruption,
    calibrate,
    dequantize,
    error_decomposition,
    prefill_with_kvsink,
    quantize_scheme,
    scheme_specs,
    synthesize_sink_model,
    write_quantized,
)

WIDTH = 32
SINKS = (0, 17, 40)


def case_id(case: tuple) -> str:
    return "/".join(str(part) for part in case)


def _rng(case: tuple) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(case_id(case).encode()))


def _rows(rng, n, sinks, width=WIDTH):
    """Gaussian rows with per-channel spread; sink rows 30x larger."""
    rows = rng.normal(size=(n, width)) * np.exp(rng.normal(0.0, 0.5, size=width))
    rows[list(sinks)] *= 30.0
    return rows


def _static_params(rng, specs, width=WIDTH) -> dict:
    """``key_params``/``value_params`` calibrated for the static sides of ``specs``, with a sink left out."""
    names = ("key_params", "value_params")
    return {
        name: calibrate(CalibrationSet([_rows(rng, 40, [3], width)], [[3]]), spec)
        for name, spec in zip(names, specs)
        if spec.mode == "static"
    }


def _scheme(case, rng, digest, workdir):
    _, scheme, bits, sparse, sinks, given = case
    sinks = SINKS if sinks == "some" else ()
    k, v = _rows(rng, 70, sinks), _rows(rng, 70, sinks)
    params = _static_params(rng, scheme_specs(scheme, bits, 16, sparse)) if given == "calibrated" else {}
    sides = quantize_scheme(k, v, scheme, sinks, bits=bits, group_size=16, sparse_fraction=sparse, **params)
    for name, qt in zip(("keys", "values"), sides):
        path = os.path.join(workdir, f"{name}.kvsq")
        write_quantized(path, qt)
        with open(path, "rb") as fh:
            digest.update(fh.read())


def _cache(case, rng, digest, _workdir):
    _, scheme, bits, sparse, sinks, given = case
    sinks = SINKS if sinks == "some" else ()
    kv = KVCache(1, WIDTH, scheme=scheme, bits=bits, group_size=16, sparse_fraction=sparse)
    if given == "calibrated":
        kv.set_static_params(0, **_static_params(rng, (kv.key_spec, kv.value_spec)))
    kv.bulk_load(0, _rows(rng, 53, sinks), _rows(rng, 53, sinks), sinks)
    for i, (k, v) in enumerate(zip(_rows(rng, 21, ()), _rows(rng, 21, ()))):
        kv.append(0, k, v, is_sink=bool(sinks) and i == 5)
    for arr in kv.reconstruct(0):
        digest.update(arr.tobytes())
    counts = [kv.layer_tokens(0), kv.region_counts(0), kv.pending_tokens(0), kv.sink_indices(0)]
    digest.update(json.dumps([counts, kv.memory_footprint()], sort_keys=True).encode())


PREFILL_ARCHS = {
    "mha": dict(heads=2),
    "rope": dict(heads=2, rope=True),
    "rope_gqa": dict(heads=4, kv_heads=2, rope=True),
    "mqa": dict(heads=4, kv_heads=1),
}


def _prefill(case, rng, digest, _workdir):
    _, arch, mode, scheme, bits, k = case
    cfg = DecoderConfig(num_layers=4, hidden=64, ffn_hidden=128, seed=7, **PREFILL_ARCHS[arch])
    plant = [(0, 5, 400.0), (29, 5, 400.0), (41, 33, 400.0)]
    weights, hooks = synthesize_sink_model(cfg, plant, 1, 3)
    profile = SinkProfile("digest", cfg.num_layers, 1, cfg.hidden, (5, 33))
    h, kv, preserved = prefill_with_kvsink(
        rng.normal(size=(48, cfg.hidden)), weights, cfg, profile, scheme=scheme, bits=bits, k=k, mode=mode, hooks=hooks
    )
    digest.update(h.tobytes())
    digest.update(json.dumps(list(preserved)).encode())
    for layer in range(cfg.num_layers):
        for arr in kv.reconstruct(layer):
            digest.update(arr.tobytes())


def _errors(case, rng, digest, _workdir):
    _, bits, cal_sinks = case
    x = _rows(rng, 64, SINKS)
    cal = CalibrationSet([_rows(rng, 48, [2]), _rows(rng, 30, [])], [[2], None])
    specs = [
        QuantSpec(bits, axis, mode, group_size, sparse_fraction=sparse)
        for axis, mode, group_size, sparse in itertools.product(
            ("per_token", "per_channel", "per_tensor"), ("dynamic", "static"), (8, 16), (0.0, 0.01)
        )
    ]
    given = [[2, 7], [0]] if cal_sinks == "given" else None
    report = error_decomposition(x, SinkSet(SINKS, len(SINKS)), specs, cal=cal, cal_sinks=given)
    digest.update(json.dumps([dataclasses.asdict(row) for row in report.rows], sort_keys=True).encode())


def _disruption(case, rng, digest, _workdir):
    _, sinks_are, heads, n = case
    sinks = (0, n // 2, n - 7)
    k, v, q = (_rows(rng, n, sinks) for _ in range(3))
    grid = ((2, "per_token", 0.0), (2, "per_channel", 0.01), (4, "per_token", 0.0), (4, "per_channel", 0.0))
    specs = [QuantSpec(bits, axis, group_size=16, sparse_fraction=sparse) for bits, axis, sparse in grid]
    rows = bias_disruption(
        k, v, q, SinkSet(sinks, len(sinks)), specs, num_heads=heads, preserve_sinks=sinks_are == "kept"
    )
    digest.update(json.dumps(rows, sort_keys=True).encode())


LONG_SINKS = (0, 1500, 3000)


def _long_scheme(case, rng, digest, workdir):
    _, scheme, given = case
    k, v = _rows(rng, 4096, LONG_SINKS, 512), _rows(rng, 4096, LONG_SINKS, 512)
    params = _static_params(rng, scheme_specs(scheme, 2, 16), 512) if given == "calibrated" else {}
    sides = quantize_scheme(k, v, scheme, LONG_SINKS, bits=2, group_size=16, **params)
    for name, qt in zip(("keys", "values"), sides):
        path = os.path.join(workdir, f"{name}.kvsq")
        write_quantized(path, qt)
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(dequantize(qt).tobytes())


def _long_cache(case, rng, digest, _workdir):
    _, scheme, given = case
    kv = KVCache(1, 128, scheme=scheme, bits=2, group_size=16)
    if given == "calibrated":
        kv.set_static_params(0, **_static_params(rng, (kv.key_spec, kv.value_spec), 128))
    kv.bulk_load(0, _rows(rng, 4096, LONG_SINKS, 128), _rows(rng, 4096, LONG_SINKS, 128), LONG_SINKS)
    for k, v in zip(_rows(rng, 21, (), 128), _rows(rng, 21, (), 128)):
        kv.append(0, k, v)
    for arr in kv.reconstruct(0):
        digest.update(arr.tobytes())
    digest.update(json.dumps([kv.layer_tokens(0), kv.region_counts(0), kv.memory_footprint()], sort_keys=True).encode())


KINDS = {
    "scheme": _scheme,
    "cache": _cache,
    "prefill": _prefill,
    "errors": _errors,
    "disruption": _disruption,
    "long_scheme": _long_scheme,
    "long_cache": _long_cache,
}


def cases() -> list[tuple]:
    """Every case: a tuple whose first entry names its kind."""
    presets, bits, sinks, given = sorted(SCHEME_PRESETS), (2, 3, 4), ("none", "some"), ("none", "calibrated")
    grid = [("scheme", *c) for c in itertools.product(presets, bits, (None, 0.0, 0.01), sinks, given)]
    grid += [("cache", *c) for c in itertools.product(presets, bits, (None, 0.01), sinks, given)]
    modes, prefill_presets = ("kvsink", "pfn", "none"), ("pt_kv_static", "kvquant_like")
    grid += [("prefill", *c) for c in itertools.product(PREFILL_ARCHS, modes, prefill_presets, (2, 4), (0, 4))]
    grid += [("errors", *c) for c in itertools.product(bits, ("own", "given"))]
    grid += [("disruption", *c) for c in itertools.product(("kept", "quantized"), (1, 2), (300, 1024))]
    grid += [(kind, *c) for kind in ("long_scheme", "long_cache") for c in itertools.product(presets, given)]
    return grid


def case_digest(case: tuple) -> str:
    """SHA-256 (hex) of one case's outputs."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        KINDS[case[0]](case, _rng(case), digest, workdir)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file for the digests (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps({case_id(c): case_digest(c) for c in cases()}, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
