"""Command-line front end.

Subcommands: ``detect``, ``quantize``, ``analyze`` (error | bias | disruption
| qk | stages), ``simulate``, ``bench``. Reports go to stdout as JSON;
failures write one machine-readable JSON object ``{code, message, context}``
to stderr. Exit statuses: 0 success, 2 usage/configuration, 3 file format,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis, bench, cache, decoder, dumpio, profiles
from .errors import ConfigError, SinkQuantError, UsageError, exit_status
from .quant import SCHEME_PRESETS, CalibrationSet, QuantSpec, calibrate, quantize_scheme, scheme_specs
from .sinks import SinkProfile, SinkSet, classify_stages, detect_sinks, preserve_first_n
from .tensors import integer_at_least, positive_number


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse failures become usage errors
        raise UsageError(message)

    def _get_option_tuples(self, option_string):
        # a prefix of two spellings of one flag (``--ax`` of ``--axes`` and ``--axis``) names that flag
        matches = {}
        for match in super()._get_option_tuples(option_string):
            matches.setdefault(match[0], match)
        return list(matches.values())


def _read_matrix(path: str, name: str) -> np.ndarray:
    arr = np.asarray(dumpio.read_dump(path), dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"{name} must be a 2-D dump, got rank {arr.ndim}", path=path)
    return arr


def _load_sinks(args, tokens: int) -> SinkSet:
    if args.sinks:
        return dumpio.record_from_json(SinkSet, dumpio.read_json(args.sinks))
    if args.pfn is not None:
        return preserve_first_n(tokens, args.pfn)
    return SinkSet.empty(0)


def _str_list(text: str, flag: str) -> list[str]:
    """The non-empty comma-separated parts of ``text``; none at all is a ``UsageError``."""
    parts = [part for part in text.split(",") if part != ""]
    if not parts:
        raise UsageError(f"{flag} names no value", actual=text)
    return parts


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in _str_list(text, flag)]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}") from exc


def _flag(check, value, *args):
    """``check(value, *args)`` on a flag's value; the ``ConfigError`` it raises becomes a ``UsageError``."""
    try:
        return check(value, *args)
    except ConfigError as exc:
        raise UsageError(exc.message, **exc.context) from None


def _calibration_from_dir(path: str, sub: str) -> CalibrationSet:
    directory = os.path.join(path, sub)
    if not os.path.isdir(directory):
        raise UsageError(f"calibration directory must contain a {sub!r} subdirectory", path=path)
    files = sorted(f for f in os.listdir(directory) if f.endswith(".kvsd"))
    if not files:
        raise UsageError(f"no .kvsd files in {directory}")
    return CalibrationSet([dumpio.read_dump(os.path.join(directory, f)) for f in files])


def _cmd_detect(args) -> dict:
    arr = _read_matrix(args.dump, "hidden-state dump")
    profile = profiles.load_profile(args.profile)
    found = detect_sinks(arr, profile, args.k, args.ratio)
    return {"sinks": dumpio.record_to_json(found), "count": len(found), "model": profile.model_name}


def _cmd_quantize(args) -> dict:
    keys = _read_matrix(args.keys, "keys")
    values = _read_matrix(args.values, "values")
    sinks = _load_sinks(args, keys.shape[0])
    params = [None, None]  # key, value
    if args.calib:
        specs = scheme_specs(args.scheme, args.bits, args.group, args.sparse)
        static = [i for i, spec in enumerate(specs) if spec.mode == "static"]
        if not static:
            raise UsageError("--calib needs a scheme with a static side", scheme=args.scheme)
        for i in static:  # each static side reads only its own subdirectory
            params[i] = calibrate(_calibration_from_dir(args.calib, ("keys", "values")[i]), specs[i])
    qk, qv = quantize_scheme(
        keys,
        values,
        args.scheme,
        sinks,
        bits=args.bits,
        group_size=args.group,
        sparse_fraction=args.sparse,
        key_params=params[0],
        value_params=params[1],
    )
    os.makedirs(args.out, exist_ok=True)
    dumpio.write_quantized(os.path.join(args.out, "keys.kvsq"), qk)
    dumpio.write_quantized(os.path.join(args.out, "values.kvsq"), qv)
    dumpio.write_json(os.path.join(args.out, "sinks.json"), dumpio.record_to_json(sinks))
    footprint = cache.footprint_bytes(
        len(qk.packed) + len(qv.packed),
        len(sinks) * (keys.shape[1] + values.shape[1]),
        qk.params.n_groups + qv.params.n_groups,
        qk.outlier_indices.size + qv.outlier_indices.size,
    )
    return {
        "scheme": args.scheme,
        "bits": args.bits,
        "group_size": args.group,
        "tokens": int(keys.shape[0]),
        "sinks": dumpio.record_to_json(sinks),
        "files": ["keys.kvsq", "values.kvsq", "sinks.json"],
        "footprint": footprint,
        "footprint_mb": cache.footprint_megabytes(footprint),
    }


def _specs_from_flags(args) -> list[QuantSpec]:
    """Every spec of the grid flags: each bit width, axis and mode."""
    return [
        QuantSpec(b, axis, mode, args.group, args.clip, args.sparse or 0.0)
        for b in _int_list(args.bits, "--bits")
        for axis in _str_list(args.axes, "--axes")
        for mode in _str_list(args.modes, "--modes")
    ]


def _with_csv(args, report: dict) -> dict:
    """``report``; with ``--csv``, its rows are also written to that file, which it names under ``"csv"``."""
    if args.csv:
        analysis.write_rows_csv(report["rows"], args.csv)
        report["csv"] = args.csv
    return report


def _cmd_analyze_error(args) -> dict:
    scale = None if args.display_scale is None else _flag(positive_number, args.display_scale, "--display-scale")
    arr = _read_matrix(args.tensor, "input tensor")
    sinks = _load_sinks(args, arr.shape[0])
    specs = _specs_from_flags(args)
    cal = None
    if any(s.mode == "static" for s in specs):
        cal = CalibrationSet([arr], sinks=[sinks])
    report = analysis.error_decomposition(arr, sinks, specs, cal=cal)
    return _with_csv(args, report.to_json_dict(display_scale=scale))


def _cmd_analyze_bias(args) -> dict:
    layer = _flag(integer_at_least, args.layer, 0, "--layer")
    a = analysis._as_heads(dumpio.read_dump(args.attention), "attention")
    v = dumpio.read_dump(args.values)
    sinks = _load_sinks(args, a.shape[1])
    rows = analysis.bias_report_from_heads(a, v, sinks, layer=layer, method=args.method)
    return _with_csv(args, {"sinks": dumpio.record_to_json(sinks), "method": args.method, "rows": rows})


def _cmd_analyze_disruption(args) -> dict:
    keys = _read_matrix(args.keys, "keys")
    values = _read_matrix(args.values, "values")
    queries = _read_matrix(args.queries, "queries")
    sinks = _load_sinks(args, keys.shape[0])
    specs = _specs_from_flags(args)
    rows = analysis.bias_disruption(
        keys, values, queries, sinks, specs, num_heads=args.heads, preserve_sinks=args.preserve_sinks
    )
    return _with_csv(args, {"sinks": dumpio.record_to_json(sinks), "rows": rows})


def _cmd_analyze_qk(args) -> dict:
    queries = analysis._as_heads(dumpio.read_dump(args.queries), "queries")
    keys = dumpio.read_dump(args.keys)
    values = dumpio.read_dump(args.values) if args.values else None
    sinks = _load_sinks(args, queries.shape[1])
    rows = analysis.qk_sink_diagnostics(queries, keys, sinks, V=values)
    return _with_csv(args, {"sinks": dumpio.record_to_json(sinks), "rows": rows})


def _cmd_analyze_stages(args) -> dict:
    entries = dumpio.load_manifest(args.manifest)
    profile = profiles.load_profile(args.profile)
    per_layer: dict[int, dict] = {}
    for entry in entries:
        if entry.kind in ("X_d_in", "X_d_out", "H_prime", "H"):
            per_layer.setdefault(entry.layer, {})[entry.kind] = dumpio.read_dump(
                dumpio.manifest_file_path(entry, args.manifest)
            )
    layers = [per_layer[l] for l in sorted(per_layer)]
    report = classify_stages(layers, profile, ratio=args.ratio)
    return report.to_json_dict()


@dataclass(frozen=True)
class _Plant:
    """A ``--plant`` file: (token, channel, magnitude) outliers, planted at one layer and cancelled at another."""

    targets: tuple[tuple[int, int, float], ...]
    emerge_layer: int
    dissipate_layer: int


def _cmd_simulate(args) -> dict:
    tokens = _flag(integer_at_least, args.tokens, 1, "--tokens")
    seed = _flag(integer_at_least, args.seed, 0, "--seed")
    cfg = decoder.DecoderConfig.from_json_dict(dumpio.read_json(args.config))
    plant = _Plant((), 0, 0)  # planting nothing gives init_weights(cfg)'s weights
    if args.plant:
        plant = dumpio.record_from_json(_Plant, dumpio.read_json(args.plant), partial(ConfigError, path=args.plant))
    weights, hooks = decoder.synthesize_sink_model(cfg, plant.targets, plant.emerge_layer, plant.dissipate_layer)

    profile = None
    if args.profile:
        profile = profiles.load_profile(args.profile)
    elif args.plant:
        profile = SinkProfile(
            model_name="synthetic",
            total_layers=cfg.num_layers,
            emergence_layer=plant.emerge_layer,
            hidden_size=cfg.hidden,
            outlier_channels=tuple(sorted({c for _, c, _ in plant.targets})),
        )

    h0 = np.random.default_rng(seed).normal(size=(tokens, cfg.hidden))
    h_q, kv, sinks = decoder.prefill_with_kvsink(
        h0,
        weights,
        cfg,
        profile,
        scheme=args.scheme,
        bits=args.bits,
        group_size=args.group,
        sparse_fraction=args.sparse,
        k=args.k,
        mode=args.mode,
        magnitude_ratio=args.ratio,
        hooks=hooks,
    )
    h_fp, _ = decoder.decoder_forward(h0, weights, cfg, hooks=hooks)
    os.makedirs(args.out, exist_ok=True)
    dumpio.write_dump(os.path.join(args.out, "h_last.kvsd"), h_q)
    dumpio.write_json(os.path.join(args.out, "sinks.json"), dumpio.record_to_json(sinks))
    cache.save_snapshot(kv, os.path.join(args.out, "snapshot"))
    footprint = kv.memory_footprint()
    return {
        "mode": args.mode,
        "scheme": args.scheme,
        "bits": args.bits,
        "tokens": tokens,
        "sinks": dumpio.record_to_json(sinks),
        "h_l2_delta": float(np.linalg.norm(h_q - h_fp)),
        "h_rel_err": float(np.linalg.norm(h_q - h_fp) / np.linalg.norm(h_fp)),
        "h_max_delta": float(np.abs(h_q - h_fp).max()),
        "footprint": footprint,
        "footprint_mb": cache.footprint_megabytes(footprint),
        "out": args.out,
    }


def _cmd_bench(args) -> dict:
    cfg = None
    if args.config:
        cfg = decoder.DecoderConfig.from_json_dict(dumpio.read_json(args.config))
    report = bench.run_bench(
        cfg,
        tokens=args.tokens,
        repeats=args.repeat,
        scheme=args.scheme,
        bits=args.bits,
        group_size=args.group,
        k=args.k,
        seed=args.seed,
    )
    return report.to_json_dict()


def _grid_flags(bits: str) -> argparse.ArgumentParser:
    """The spec-grid flags, as a parent parser: every bit width x axis x mode is measured."""
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--bits", default=bits, help=f"comma-separated bit widths (default {bits})")
    grid.add_argument("--axes", "--axis", dest="axes", default="per_token", help="comma-separated axes")
    grid.add_argument("--modes", "--mode", dest="modes", default="dynamic", help="comma-separated modes")
    grid.add_argument("--group", type=int, default=16)
    grid.add_argument("--sparse", type=float, default=None)
    grid.add_argument("--clip", type=float, default=None)
    return grid


def build_parser() -> _Parser:
    parser = _Parser(prog="sinkquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sinks = argparse.ArgumentParser(add_help=False)
    preserved = sinks.add_mutually_exclusive_group()
    preserved.add_argument("--sinks", help="sink-set JSON file")
    preserved.add_argument("--pfn", type=int, default=None, help="preserve the first N tokens instead")
    csv = argparse.ArgumentParser(add_help=False)
    csv.add_argument("--csv", help="also write the report rows to this CSV file")

    p = sub.add_parser("detect", help="predict sink tokens from a hidden-state dump")
    p.add_argument("--dump", required=True, help="emergence-layer output (.kvsd, [tokens, hidden])")
    p.add_argument("--profile", required=True, help="model profile name or JSON path")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--ratio", type=float, default=None, help="optional magnitude-ratio filter")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("quantize", parents=[sinks], help="quantize a K/V pair under a scheme preset")
    p.add_argument("--keys", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--scheme", required=True, choices=sorted(SCHEME_PRESETS))
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--group", type=int, default=16)
    p.add_argument("--sparse", type=float, default=None)
    p.add_argument("--calib", help="directory with keys/ and/or values/ calibration dumps for the static sides")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_quantize)

    pa = sub.add_parser("analyze", help="measurement reports")
    asub = pa.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser(
        "error", parents=[sinks, _grid_flags("4"), csv], help="quantization-error decomposition by sink membership"
    )
    p.add_argument("--tensor", required=True)
    p.add_argument("--display-scale", type=float, default=None)
    p.set_defaults(handler=_cmd_analyze_error)

    p = asub.add_parser("bias", parents=[sinks, csv], help="sink-bias consistency per head")
    p.add_argument("--attention", required=True, help="[heads, n, n] attention dump")
    p.add_argument("--values", required=True, help="[kv_heads, n, head_dim] value dump")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--method", choices=("pairwise", "centroid"), default="pairwise")
    p.set_defaults(handler=_cmd_analyze_bias)

    p = asub.add_parser(
        "disruption", parents=[sinks, _grid_flags("2,3,4,8"), csv], help="bias/logit deltas under quantization"
    )
    p.add_argument("--keys", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--preserve-sinks", action="store_true")
    p.set_defaults(handler=_cmd_analyze_disruption)

    p = asub.add_parser("qk", parents=[sinks, csv], help="query-to-sink-key cosines and norm ratios")
    p.add_argument("--queries", required=True)
    p.add_argument("--keys", required=True)
    p.add_argument("--values")
    p.set_defaults(handler=_cmd_analyze_qk)

    p = asub.add_parser("stages", help="cross-layer outlier stage classification")
    p.add_argument("--manifest", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--ratio", type=float, default=100.0)
    p.set_defaults(handler=_cmd_analyze_stages)

    p = sub.add_parser("simulate", help="prefill the toy decoder with a quantized cache")
    p.add_argument("--config", required=True, help="decoder config JSON")
    p.add_argument("--plant", help="planted-outlier JSON: targets, emerge_layer, dissipate_layer")
    p.add_argument("--profile", help="sink profile name or path (defaults to the plant)")
    p.add_argument("--mode", choices=decoder.PREFILL_MODES, default="kvsink")
    p.add_argument("--scheme", choices=sorted(SCHEME_PRESETS), default="pt_kv_static")
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--group", type=int, default=16)
    p.add_argument("--sparse", type=float, default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--ratio", type=float, default=100.0)
    p.add_argument("--tokens", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bench", help="prefill vs detection timing and footprint")
    p.add_argument("--config", help="decoder config JSON (defaults to the reference fixture)")
    p.add_argument("--tokens", type=int, default=4096)
    p.add_argument("--repeat", type=int, default=11)
    p.add_argument("--scheme", choices=sorted(SCHEME_PRESETS), default="pt_kv_dynamic")
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--group", type=int, default=16)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.handler(args)
        sys.stdout.write(dumpio.strict_json(result) + "\n")
        return 0
    except SinkQuantError as exc:
        json.dump(exc.to_json_dict(), sys.stderr, sort_keys=True, default=str)
        sys.stderr.write("\n")
        return exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
