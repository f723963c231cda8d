"""oxsim: performance model of a coherent optical crossbar AI accelerator."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EvaluationError,
    InfeasibleError,
    OxsimError,
    TopologyError,
)
from .tech import (
    CalibrationProfile,
    TechParams,
    apply_profile,
    builtin_profiles,
    default_tech_params,
    get_profile,
)
from .workload import (
    ChipConfig,
    Counts,
    LayerSpec,
    RuntimeStats,
    bundled_topology_path,
    load_topology,
    network_runtime,
    parse_topology,
)
from .perf import (
    LossBudget,
    PerfReport,
    Timeline,
    area_model,
    energy_model,
    evaluate,
    loss_budget,
    timeline_dual_core,
)

_DSE_NAMES = ("SweepGrid", "Constraints", "OptimizationResult",
              "sweep", "find_min_hiding_batch", "size_sram", "pick_array_size", "optimize")

__all__ = [
    "__version__",
    "OxsimError", "ConfigError", "TopologyError", "EvaluationError", "InfeasibleError",
    "TechParams", "CalibrationProfile", "default_tech_params", "apply_profile",
    "builtin_profiles", "get_profile",
    "CouplerPlan", "WeightMatrix", "InputVector", "LossBudget",
    "synth_input_couplers", "synth_output_couplers", "quantize",
    "crossbar_mvm", "coherent_detect", "loss_budget",
    "LayerSpec", "ChipConfig", "Counts", "RuntimeStats",
    "parse_topology", "load_topology", "bundled_topology_path", "network_runtime",
    "Timeline", "PerfReport", "timeline_dual_core",
    "energy_model", "area_model", "evaluate",
    *_DSE_NAMES,
]


def __getattr__(name: str):
    # Two modules are exported but not imported above; each loads on first use
    # of one of its names. The design-space search (`dse`) is compiled only by
    # `sweep`, `optimize` and their callers, never by `oxsim evaluate`; the
    # numpy-backed functional model (`photonics`) by no CLI command at all.
    if name in _DSE_NAMES:
        from . import dse as module
    elif name in __all__:
        from . import photonics as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
