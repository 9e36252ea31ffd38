"""Sink-aware KV-cache quantization toolkit.

A numpy library for studying and exploiting the interplay between attention
sinks and low-bit KV-cache quantization: group-wise asymmetric integer
quantization with dense-and-sparse outlier isolation, sink-token prediction
from stable activation outliers, a mixed-precision KV cache, a minimal
instrumented decoder, and the accompanying analysis suite.
"""

from .analysis import (
    ErrorReport,
    ErrorRow,
    attention_bias,
    bias_disruption,
    bias_report_from_heads,
    error_decomposition,
    mse,
    qk_sink_diagnostics,
)
from .bench import BenchReport, run_bench
from .cache import KVCache, footprint_megabytes, load_snapshot, predict_footprint, save_snapshot
from .decoder import (
    DecoderConfig,
    DecoderWeights,
    InjectionHook,
    decoder_forward,
    init_weights,
    load_weights,
    prefill_with_kvsink,
    save_weights,
    synthesize_sink_model,
)
from .dumpio import read_dump, read_quantized, write_dump, write_quantized
from .errors import (
    BoundsError,
    CalibrationError,
    ConfigError,
    DiscoveryError,
    FormatError,
    LayoutError,
    NumericError,
    ShapeError,
    SinkQuantError,
    StateError,
    UsageError,
)
from .profiles import available_profiles, load_profile
from .quant import (
    SCHEME_PRESETS,
    CalibrationSet,
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    calibrate,
    dequantize,
    quantize,
    quantize_scheme,
    quantize_tensor,
    scheme_specs,
)
from .sinks import (
    SinkProfile,
    SinkSet,
    StageReport,
    classify_stages,
    detect_sinks,
    discover_profile,
    preserve_first_n,
)
from .tensors import l2_norm_per_token, softmax_row, split_heads

__version__ = "0.1.0"
