"""The four benchmark workloads.

Each workload has three phases:

* ``setup(seed, ops)`` makes the inputs from the seed and does the program's
  one-off work before the first timed pass (``setup_s``);
* ``run_pass(state, ops)`` is one timed pass: the same operation sequence
  every time, on the same inputs;
* ``verify(state, out, ops)`` checks a pass's outputs against properties the
  method must have and returns ``(failures, out_rel_err)``.

Every call into the program goes through ``ops``, which counts it, and looks
the function up on its module at call time (``decoder.prefill_with_kvsink``,
never a local alias), so the traced run's wrappers see it.

``smoke=True`` shrinks every input so that a workload runs in seconds; the
figures it gives are not comparable with full-size runs.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

from sinkquant import analysis, cache, decoder, dumpio, quant, sinks, tensors
from sinkquant.errors import SinkQuantError

from . import checks

SCHEME = "kvquant_like"
BITS = 2
GROUP = 16
SINK_BUDGET = 5
SINK_RATIO = 100.0
PLANT_MAGNITUDE = 400.0
# The synthesized decoders keep one set of weights; the run's seed draws the
# prompt and the planted positions. Weights drawn per seed made out_rel_err
# spread ~30% between seeds, which would hide any real change in accuracy.
MODEL_SEED = 7


class Ops:
    """Counts the program operations a run attempts and those that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except SinkQuantError:
            self.failed += 1
            raise


def far_tokens(rng, n: int, count: int) -> list[int]:
    """``count`` distinct token positions in the last three quarters of ``n``."""
    return sorted(int(t) for t in rng.choice(np.arange(n // 4, n), size=count, replace=False))


def planted_model(cfg, seed, tokens, l_emerge, l_dissipate, ops):
    """Synthesized decoder with outliers planted at token 0 and two far tokens, plus its prompt."""
    rng = np.random.default_rng(seed)
    far = far_tokens(rng, tokens, 2)
    channels = (1, cfg.hidden // 2)
    plant = [(0, channels[0], PLANT_MAGNITUDE), (far[0], channels[0], PLANT_MAGNITUDE),
             (far[1], channels[1], PLANT_MAGNITUDE)]
    weights, hooks = ops(decoder.synthesize_sink_model, cfg, plant, l_emerge, l_dissipate)
    prompt = rng.normal(size=(tokens, cfg.hidden))
    return SimpleNamespace(
        cfg=cfg, weights=weights, hooks=hooks, prompt=prompt, planted=[0] + far, channels=channels
    )


def kv_rows(rng, shape, sink_tokens):
    """Gaussian K or V rows with per-channel spread; planted sink rows are 30x larger."""
    channel_scale = np.exp(rng.normal(0.0, 0.5, size=shape[-1]))
    rows = rng.normal(size=shape) * channel_scale
    rows[..., list(sink_tokens), :] *= 30.0
    return rows


class Workload:
    """``smoke`` selects the small inputs; ``workdir`` is where a workload may write files."""

    def __init__(self, smoke: bool = False, workdir: str = "."):
        self.smoke = smoke
        self.workdir = workdir


class PrefillPlanted(Workload):
    """``prefill_with_kvsink`` in kvsink mode on a planted 2-layer decoder."""

    name = "prefill-planted-4k"

    @property
    def tokens(self):
        return 512 if self.smoke else 4096

    def setup(self, seed, ops):
        cfg = decoder.DecoderConfig(num_layers=2, hidden=64, heads=1, ffn_hidden=128, seed=MODEL_SEED)
        state = planted_model(cfg, seed, self.tokens, 0, 1, ops)
        state.profile = sinks.SinkProfile("perfbench-planted", 2, 0, cfg.hidden, state.channels)
        return state

    def _prefill(self, state, ops, mode):
        return ops(
            decoder.prefill_with_kvsink,
            state.prompt,
            state.weights,
            state.cfg,
            state.profile,
            scheme=SCHEME,
            bits=BITS,
            group_size=GROUP,
            k=SINK_BUDGET,
            mode=mode,
            magnitude_ratio=SINK_RATIO,
            hooks=state.hooks,
        )

    def run_pass(self, state, ops):
        h, kv, kept = self._prefill(state, ops, "kvsink")
        return SimpleNamespace(h=h, cache=kv, kept=kept)

    def verify(self, state, out, ops):
        reference, _ = ops(decoder.decoder_forward, state.prompt, state.weights, state.cfg, hooks=state.hooks)
        errors = {"kvsink": checks.rel_err([out.h], [reference])}
        for mode in ("pfn", "none"):
            errors[mode] = checks.rel_err([self._prefill(state, ops, mode)[0]], [reference])
        cfg = state.cfg
        predicted = {}
        for layer in range(cfg.num_layers):
            kept = len(out.cache.sink_indices(layer))
            one = ops(cache.predict_footprint, 1, self.tokens, cfg.kv_width, scheme=SCHEME, bits=BITS,
                      group_size=GROUP, sink_tokens=kept)
            predicted = {k: predicted.get(k, 0) + v for k, v in one.items()}
        failures = (
            checks.check_tokens("detect_sinks in prefill", out.kept, state.planted)
            + checks.check_error_order(errors)
            + checks.check_footprint("prefill cache", ops(out.cache.memory_footprint), predicted)
        )
        return failures, errors["kvsink"]


class KVRoundtrip(Workload):
    """2-bit ``kvquant_like`` quantize, file write and read, dequantize of a K/V pair."""

    name = "kv-roundtrip"

    def __init__(self, smoke: bool = False, workdir: str = "."):
        super().__init__(smoke, workdir)
        self.tokens, self.width = (512, 64) if smoke else (4096, 512)

    def setup(self, seed, ops):
        rng = np.random.default_rng(seed)
        planted = [0] + far_tokens(rng, self.tokens, 2)
        keys = kv_rows(rng, (self.tokens, self.width), planted)
        values = kv_rows(rng, (self.tokens, self.width), planted)
        keep = np.ones(self.tokens, dtype=bool)
        keep[planted] = False
        key_spec, _ = quant.scheme_specs(SCHEME, BITS, GROUP)
        key_params = ops(quant.calibrate, [keys[keep]], key_spec)
        return SimpleNamespace(keys=keys, values=values, keep=keep, planted=planted, key_params=key_params)

    def run_pass(self, state, ops):
        qk, qv = ops(quant.quantize_scheme, state.keys, state.values, SCHEME, state.planted,
                     bits=BITS, group_size=GROUP, key_params=state.key_params)
        paths = [os.path.join(self.workdir, f"{side}.kvsq") for side in ("keys", "values")]
        for path, qt in zip(paths, (qk, qv)):
            ops(dumpio.write_quantized, path, qt)
        rk, rv = (ops(dumpio.read_quantized, path) for path in paths)
        return SimpleNamespace(written=(qk, qv), read=(rk, rv), recon=(ops(quant.dequantize, rk),
                                                                       ops(quant.dequantize, rv)))

    def verify(self, state, out, ops):
        inputs = (state.keys[state.keep], state.values[state.keep])
        failures = []
        for name, x, x_hat, written, read in zip(("keys", "values"), inputs, out.recon, out.written, out.read):
            failures += checks.check_half_step(name, x, x_hat, read)
            failures += checks.check_same_quantized(name, written, read)
            failures += checks.check_packed_length(name, written)
        return failures, checks.rel_err(out.recon, inputs)


class DecodeStream(Workload):
    """Bulk-loaded multi-layer ``KVCache`` fed one token at a time, reconstructed on a cadence."""

    name = "decode-stream"

    def __init__(self, smoke: bool = False, workdir: str = "."):
        super().__init__(smoke, workdir)
        if smoke:
            self.layers, self.width, self.prompt, self.steps, self.every = 2, 32, 64, 64, 16
        else:
            self.layers, self.width, self.prompt, self.steps, self.every = 4, 128, 512, 512, 64

    def setup(self, seed, ops):
        rng = np.random.default_rng(seed)
        prompt_sinks = [0, int(rng.integers(self.prompt // 4, self.prompt))]
        mid_sink = self.prompt + self.steps // 2
        shape = (self.layers, self.prompt + self.steps, self.width)
        all_sinks = prompt_sinks + [mid_sink]
        keys, values = kv_rows(rng, shape, all_sinks), kv_rows(rng, shape, all_sinks)
        keep = np.ones(self.prompt, dtype=bool)
        keep[prompt_sinks] = False
        key_spec, _ = quant.scheme_specs(SCHEME, BITS, GROUP)
        key_params = [ops(quant.calibrate, [keys[layer, : self.prompt][keep]], key_spec)
                      for layer in range(self.layers)]
        return SimpleNamespace(keys=keys, values=values, prompt_sinks=prompt_sinks, mid_sink=mid_sink,
                               all_sinks=all_sinks, key_params=key_params)

    def _loaded_cache(self, state, ops, tokens, sink_tokens):
        kv = ops(cache.KVCache, self.layers, self.width, scheme=SCHEME, bits=BITS, group_size=GROUP)
        for layer in range(self.layers):
            ops(kv.set_static_params, layer, key_params=state.key_params[layer])
            ops(kv.bulk_load, layer, state.keys[layer, :tokens], state.values[layer, :tokens], sink_tokens)
        return kv

    def run_pass(self, state, ops):
        kv = self._loaded_cache(state, ops, self.prompt, state.prompt_sinks)
        recon = None
        for step in range(self.steps):
            token = self.prompt + step
            for layer in range(self.layers):
                ops(kv.append, layer, state.keys[layer, token], state.values[layer, token],
                    is_sink=token == state.mid_sink)
            if (step + 1) % self.every == 0:
                recon = [ops(kv.reconstruct, layer) for layer in range(self.layers)]
        return SimpleNamespace(cache=kv, recon=recon)

    def verify(self, state, out, ops):
        failures = []
        for layer, (k_hat, v_hat) in enumerate(out.recon):
            failures += checks.check_rows_exact(f"layer {layer} keys", k_hat, state.keys[layer], state.all_sinks)
            failures += checks.check_rows_exact(f"layer {layer} values", v_hat, state.values[layer],
                                                state.all_sinks)
        total = self.prompt + self.steps
        fresh = self._loaded_cache(state, ops, total, state.all_sinks)
        fresh_recon = [ops(fresh.reconstruct, layer) for layer in range(self.layers)]
        failures += checks.check_identical(
            "streamed vs bulk-loaded cache",
            [a for pair in out.recon for a in pair],
            [a for pair in fresh_recon for a in pair],
        )
        predicted = ops(cache.predict_footprint, self.layers, total, self.width, scheme=SCHEME, bits=BITS,
                        group_size=GROUP, sink_tokens=len(state.all_sinks))
        failures += checks.check_footprint("streamed cache", ops(out.cache.memory_footprint), predicted)
        err = checks.rel_err(
            [a for pair in out.recon for a in pair],
            [rows for layer in range(self.layers) for rows in (state.keys[layer], state.values[layer])],
        )
        return failures, err


SWEEP_SPECS = [
    quant.QuantSpec(bits, axis, mode, GROUP)
    for bits in (2, 4)
    for axis in ("per_token", "per_channel")
    for mode in ("dynamic", "static")
]
CAPTURE = ("H", "H_prime", "X_d_in", "X_d_out", "Q", "K", "V", "A")
STAGE_KINDS = ("X_d_in", "X_d_out", "H_prime", "H")


class AnalysisSweep(Workload):
    """Captured forward pass, profile discovery, stages, detection and the error/bias analyses."""

    name = "analysis-sweep"
    emergence_layer = 1

    @property
    def tokens(self):
        return 256 if self.smoke else 1024

    def setup(self, seed, ops):
        cfg = decoder.DecoderConfig(num_layers=4, hidden=64, heads=2, ffn_hidden=128, seed=MODEL_SEED)
        return planted_model(cfg, seed, self.tokens, self.emergence_layer, 3, ops)

    def run_pass(self, state, ops):
        cfg = state.cfg
        _, dumps = ops(decoder.decoder_forward, state.prompt, state.weights, cfg, hooks=state.hooks,
                       capture=CAPTURE)
        profile = ops(sinks.discover_profile, dumps["H"])
        stages = ops(sinks.classify_stages,
                     [{kind: dumps[kind][layer] for kind in STAGE_KINDS} for layer in range(cfg.num_layers)],
                     profile)
        found = ops(sinks.detect_sinks, dumps["H"][profile.emergence_layer], profile, SINK_BUDGET, SINK_RATIO)
        layer = min(profile.emergence_layer + 1, cfg.num_layers - 1)
        q, k, v = (tensors.merge_heads(dumps[kind][layer]) for kind in ("Q", "K", "V"))
        bias = ops(analysis.bias_report_from_heads, dumps["A"][layer], dumps["V"][layer], found, layer=layer)
        disruption = ops(analysis.bias_disruption, k, v, q, found, SWEEP_SPECS, num_heads=cfg.heads,
                         preserve_sinks=True)
        report = ops(analysis.error_decomposition, k, found, SWEEP_SPECS,
                     cal=quant.CalibrationSet([k], [found]), cal_sinks=[found])
        return SimpleNamespace(profile=profile, stages=stages, found=found, keys=k, bias=bias,
                               disruption=disruption, report=report)

    def verify(self, state, out, ops):
        failures = (
            checks.check_profile(out.profile, self.emergence_layer, state.channels)
            + checks.check_stages(out.stages.stages)
            + checks.check_tokens("detect_sinks", out.found, state.planted)
            + checks.check_sink_logits_kept(out.disruption)
        )
        if len(out.report.rows) != len(SWEEP_SPECS) or len(out.bias) != state.cfg.heads:
            failures.append("analysis: a report is missing rows")
        row = next(r for r in out.report.rows if (r.bits, r.axis, r.mode) == (BITS, "per_channel", "static"))
        return failures, float(np.sqrt(row.overall / np.mean(out.keys**2)))


WORKLOADS = {w.name: w for w in (PrefillPlanted, KVRoundtrip, DecodeStream, AnalysisSweep)}
