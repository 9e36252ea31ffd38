"""Per-layer spans recorded around the program's public functions.

The traced run replaces each wrapped function at the place its caller looks
it up (``decoder.detect_sinks`` for the prefill's detection,
``quant.pack_codes`` for encoding, ``cache.quantize_tensor`` for the cache's
blocks, ...), so no file of the program changes and an untraced run executes
no tracing code at all. Spans are kept in memory and written out when the
run ends.

A span records its name, parent span, pass number, start and end
(``perf_counter_ns``) and the counts read from its arguments and result.
With ``memory=True`` it also records the peak ``tracemalloc`` bytes above
the traced memory at its start; that mode is slow and only used for one
extra pass whose timings are discarded.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import tracemalloc

from sinkquant import analysis, cache, decoder, dumpio, quant, sinks


def _detected(args, kwargs, result):
    return {"detected": len(result)}


def _quantized(args, kwargs, result):
    return {"outliers": int(result.outlier_indices.size), "packed_bytes": len(result.packed)}


def _codes_packed(args, kwargs, result):
    return {"codes": int(args[0].size)}


def _codes_unpacked(args, kwargs, result):
    return {"codes": int(result.size)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (owner, attribute, span name, counter). One function may be looked up in
# several modules; each lookup site gets its own wrapper with one span name.
PATCHES = [
    (decoder, "prefill_with_kvsink", "decoder.prefill", None),
    (decoder, "decoder_forward", "decoder.forward", None),
    (decoder, "detect_sinks", "sinks.detect", _detected),
    (sinks, "detect_sinks", "sinks.detect", _detected),
    (sinks, "discover_profile", "sinks.discover", None),
    (sinks, "classify_stages", "sinks.classify", None),
    (cache.KVCache, "append", "cache.append", None),
    (cache.KVCache, "bulk_load", "cache.bulk_load", None),
    (cache.KVCache, "reconstruct", "cache.reconstruct", None),
    (quant, "quantize_scheme", "quant.quantize_scheme", None),
    (quant, "calibrate", "quant.calibrate", None),
    (cache, "calibrate", "quant.calibrate", None),
    (analysis, "calibrate", "quant.calibrate", None),
    (quant, "quantize_tensor", "quant.quantize", _quantized),
    (cache, "quantize_tensor", "quant.quantize", _quantized),
    (analysis, "quantize_tensor", "quant.quantize", _quantized),
    (quant, "dequantize", "quant.dequantize", None),
    (cache, "dequantize", "quant.dequantize", None),
    (analysis, "dequantize", "quant.dequantize", None),
    (quant, "pack_codes", "packing.pack", _codes_packed),
    (quant, "unpack_codes", "packing.unpack", _codes_unpacked),
    (dumpio, "write_quantized", "dumpio.write", _file_bytes),
    (dumpio, "read_quantized", "dumpio.read", _file_bytes),
    (analysis, "attention_bias", "analysis.attention_bias", None),
    (analysis, "bias_disruption", "analysis.bias_disruption", None),
    (analysis, "error_decomposition", "analysis.error_decomposition", None),
]


class Tracer:
    """Span recorder; ``install()`` patches the lookup sites, ``remove()`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self.memory = False
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1]["_abs_peak"] = max(self._stack[-1]["_abs_peak"], peak)
                tracemalloc.reset_peak()
                span["_base"] = span["_abs_peak"] = current
            self._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
                if self.memory:
                    top = max(span.pop("_abs_peak"), tracemalloc.get_traced_memory()[1])
                    span["peak_bytes"] = top - span.pop("_base")
                    if self._stack:
                        self._stack[-1]["_abs_peak"] = max(self._stack[-1]["_abs_peak"], top)
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        for owner, attr, name, counter in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _seconds(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e9


def _count(spans, name, key=None):
    return sum(1 if key is None else s.get(key, 0) for s in spans if s["name"] == name)


def _self_seconds(spans, name):
    """Duration of ``name`` spans minus the time their direct children cover."""
    own = {s["id"] for s in spans if s["name"] == name}
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] in own)
    return _seconds(spans, name) - children / 1e9


def _pass_metrics(spans) -> dict:
    """Per-layer figures of one traced pass."""
    return {
        "decoder.prefill_s": _seconds(spans, "decoder.prefill"),
        "decoder.self_s": _self_seconds(spans, "decoder.prefill"),
        "decoder.forward_s": _seconds(spans, "decoder.forward"),
        "quant.calibrate_s": _seconds(spans, "quant.calibrate"),
        "quant.quantize_s": _seconds(spans, "quant.quantize"),
        "quant.dequantize_s": _seconds(spans, "quant.dequantize"),
        "quant.calls": sum(_count(spans, n) for n in ("quant.calibrate", "quant.quantize", "quant.dequantize")),
        "quant.outliers": _count(spans, "quant.quantize", "outliers"),
        "quant.packed_bytes": _count(spans, "quant.quantize", "packed_bytes"),
        "packing.pack_s": _seconds(spans, "packing.pack"),
        "packing.unpack_s": _seconds(spans, "packing.unpack"),
        "packing.codes": _count(spans, "packing.pack", "codes") + _count(spans, "packing.unpack", "codes"),
        "cache.appends": _count(spans, "cache.append"),
        "cache.reconstruct_s": _seconds(spans, "cache.reconstruct"),
        "cache.reconstruct_calls": _count(spans, "cache.reconstruct"),
        "cache.bulk_load_s": _seconds(spans, "cache.bulk_load"),
        "sinks.detect_s": _seconds(spans, "sinks.detect"),
        "sinks.detected": _count(spans, "sinks.detect", "detected"),
        "sinks.discover_s": _seconds(spans, "sinks.discover"),
        "sinks.classify_s": _seconds(spans, "sinks.classify"),
        "dumpio.write_s": _seconds(spans, "dumpio.write"),
        "dumpio.read_s": _seconds(spans, "dumpio.read"),
        "dumpio.bytes": _count(spans, "dumpio.write", "bytes") + _count(spans, "dumpio.read", "bytes"),
        "analysis.bias_disruption_s": _seconds(spans, "analysis.bias_disruption"),
        "analysis.error_decomposition_s": _seconds(spans, "analysis.error_decomposition"),
        "analysis.attention_bias_s": _seconds(spans, "analysis.attention_bias"),
    }


def _peak_mb(spans, prefix):
    return max((s["peak_bytes"] for s in spans if s["name"].startswith(prefix)), default=0) / 2**20


def cache_gauges(kv) -> dict:
    """State of the cache a pass leaves behind: bytes, sink rows and pending rows over all layers."""
    if kv is None:
        return {"cache.footprint_bytes": 0, "cache.sink_rows": 0, "cache.pending_rows": 0}
    return {
        "cache.footprint_bytes": sum(kv.memory_footprint().values()),
        "cache.sink_rows": sum(len(kv.sink_indices(layer)) for layer in range(kv.num_layers)),
        "cache.pending_rows": sum(kv.pending_tokens(layer) for layer in range(kv.num_layers)),
    }


UNITS = {"_s": "s", "_us": "us", "_mb": "MiB", "_bytes": "bytes", ".bytes": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def summarize(tracer: Tracer, traced_pass_ids, memory_pass_id, gauges, overhead_s) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's figure."""
    by_pass = {p: [] for p in traced_pass_ids}
    for span in tracer.spans:
        if span["pass"] in by_pass:
            by_pass[span["pass"]].append(span)
    per_pass = [_pass_metrics(spans) for spans in by_pass.values()]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    appends = [s["end"] - s["start"] for spans in by_pass.values() for s in spans if s["name"] == "cache.append"]
    metrics["cache.append_us"] = statistics.median(appends) / 1e3 if appends else 0.0
    memory_spans = [s for s in tracer.spans if s["pass"] == memory_pass_id]
    metrics["decoder.peak_mb"] = _peak_mb(memory_spans, "decoder.")
    metrics["quant.peak_mb"] = _peak_mb(memory_spans, "quant.")
    metrics.update(gauges)
    metrics["trace.overhead_s"] = overhead_s
    return metrics
