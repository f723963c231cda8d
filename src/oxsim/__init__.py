"""oxsim: performance model of a coherent optical crossbar AI accelerator."""

__version__ = "0.1.0"

# module -> the public names it defines, the one table of where each name
# lives; `oxsim.cli` resolves its names through it too. `import oxsim` loads
# none of these modules; each loads on first use of one of its names, or of
# its own name (`oxsim.perf`). So a process compiles only what it uses:
# `oxsim evaluate` neither `grid` nor `dse`, `oxsim sweep` not `dse`, `oxsim
# optimize` not `grid`, and no command the numpy-backed functional model
# (`photonics`); numpy is an optional extra.
_NAMES = {
    "errors": ("OxsimError", "ConfigError", "TopologyError", "EvaluationError",
               "InfeasibleError"),
    "tech": ("TechParams", "CalibrationProfile", "default_tech_params", "apply_profile",
             "apply_overrides", "builtin_profiles", "get_profile"),
    "photonics": ("CouplerPlan", "WeightMatrix", "InputVector", "synth_input_couplers",
                  "synth_output_couplers", "quantize", "crossbar_mvm", "coherent_detect"),
    "workload": ("LayerSpec", "ChipConfig", "Counts", "RuntimeStats", "parse_topology",
                 "load_topology", "bundled_topology_path", "read_input", "network_runtime"),
    "perf": ("LossBudget", "loss_budget", "Timeline", "PerfReport", "timeline_dual_core",
             "energy_model", "area_model", "Stages", "evaluate"),
    "reports": ("RunManifest", "flat_row", "csv_text", "json_payload", "audit_payload",
                "dump_json"),
    "grid": ("SweepGrid", "sweep"),
    "dse": ("Constraints", "OptimizationResult", "find_min_hiding_batch", "size_sram",
            "pick_array_size", "optimize"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module_name = _MODULE_OF.get(name, name)
    if module_name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement, not importlib.import_module, so -X importtime logs it
    try:
        __import__(f"{__name__}.{module_name}")
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ImportError(f"oxsim.{name} is part of the functional model, which needs "
                          f"numpy: install it with the extra, pip install "
                          f"'oxsim[functional]'") from exc
    module = globals()[module_name]  # the import binds the submodule here
    return module if name == module_name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
