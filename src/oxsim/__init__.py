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

_GRID_NAMES = ("SweepGrid", "sweep")
_DSE_NAMES = ("Constraints", "OptimizationResult",
              "find_min_hiding_batch", "size_sram", "pick_array_size", "optimize")

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
    *_GRID_NAMES, *_DSE_NAMES,
]


def __getattr__(name: str):
    # Three modules are exported but not imported above; each loads on first
    # use of one of its names. The sweep (`grid`) is compiled only by `oxsim
    # sweep`, `optimize` and their callers, the optimizer (`dse`) only by
    # `oxsim optimize` and its callers, and the numpy-backed functional model
    # (`photonics`) by no CLI command at all; numpy is an optional extra.
    if name in _GRID_NAMES:
        from . import grid as module
    elif name in _DSE_NAMES:
        from . import dse as module
    elif name in __all__:
        try:
            from . import photonics as module
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            raise ImportError(f"oxsim.{name} is part of the functional model, which needs "
                              f"numpy: install it with the extra, pip install "
                              f"'oxsim[functional]'") from exc
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
