"""Every record behaves as a namedtuple, and every checked record rejects each
invalid field value, however it is built.

All 14 records are `Record`s; `collections.namedtuple` of the same fields and
defaults is the oracle of their behaviour. `LayerSpec`, `ChipConfig`,
`TechParams`, `CalibrationProfile`, `SweepGrid` and `Constraints` define a
`_check` that runs in `__new__`. The expected exception types and messages
below are the checks' own; the constructor, `_make`, `_replace`,
`ChipConfig.with_`, `apply_profile`, `apply_overrides`, unpickling, copies
and a grid or constraints built over a template must all raise them.
"""
import collections
import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim.dse import Constraints, OptimizationResult, StepRecord
from oxsim.errors import ConfigError, Record
from oxsim.grid import SweepGrid
from oxsim.perf import LossBudget, PerfReport, Timeline
from oxsim.reports import RunManifest
from oxsim.tech import (
    CalibrationProfile,
    TechParams,
    apply_overrides,
    apply_profile,
    default_tech_params,
    get_profile,
)
from oxsim.workload import ChipConfig, Counts, LayerSpec, RuntimeStats


# --- every record behaves as the namedtuple of its fields ----------------------

# a valid instance of each checked record; the others hold any values
_CHECKED = {
    LayerSpec: LayerSpec("conv", 8, 8, 3, 3, 3, 16, 1),
    ChipConfig: ChipConfig(rows=64, batch=8),
    TechParams: TechParams(p_tia=1e-3),
    CalibrationProfile: CalibrationProfile("p", {"p_tia": 1e-3}, {"p_tia": "why"}),
    SweepGrid: SweepGrid(ChipConfig(), rows=(8, 16), batch=(2,)),
    Constraints: Constraints(tie_tol=0.05),
}
_RECORDS = [*_CHECKED, Counts, RuntimeStats, Timeline, LossBudget, PerfReport, RunManifest,
            StepRecord, OptimizationResult]
_VALUES = st.integers() | st.text(max_size=3) | st.none() | st.floats(allow_nan=False)


def test_the_record_list_is_every_record_of_the_package():
    # this module imports every module that defines a record
    assert set(Record.__subclasses__()) == set(_RECORDS)
    assert len(_RECORDS) == 14


def _oracle(cls):
    defaults = list(cls._field_defaults.values())
    assert list(cls._field_defaults) == list(cls._fields[len(cls._fields) - len(defaults):])
    return collections.namedtuple(cls.__name__, cls._fields, defaults=defaults)


def _error(build):
    """The type of the exception `build()` raises, or None."""
    try:
        build()
    except Exception as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from(_RECORDS), data=st.data())
def test_every_record_behaves_as_the_namedtuple_of_its_fields(cls, data):
    fields, oracle = cls._fields, _oracle(cls)
    if cls in _CHECKED:
        values = tuple(_CHECKED[cls])
    else:
        values = data.draw(st.tuples(*[_VALUES] * len(fields)), label="values")
    want = oracle(*values)
    record = cls(*values)
    assert type(record) is cls and record == want == values and tuple(record) == values
    assert repr(record) == repr(want)
    assert _error(lambda: hash(record)) is _error(lambda: hash(values))
    if _error(lambda: hash(values)) is None:
        assert hash(record) == hash(want) == hash(values)
    assert [getattr(record, f) for f in fields] == list(values)
    assert (cls._fields, cls._field_defaults, cls.__match_args__) == (
        oracle._fields, oracle._field_defaults, oracle.__match_args__)

    # by keyword, by default, _make, _asdict and _replace
    assert cls(**dict(zip(fields, values))) == want
    required = len(fields) - len(cls._field_defaults)
    assert cls(*values[:required]) == oracle(*values[:required])
    assert type(cls._make(iter(values))) is cls and cls._make(values) == want
    assert record._asdict() == want._asdict() and type(record._asdict()) is dict
    field = data.draw(st.sampled_from(fields), label="field")
    new = getattr(record, field) if cls in _CHECKED else data.draw(_VALUES, label="new")
    changed = record._replace(**{field: new})
    assert type(changed) is cls and changed == want._replace(**{field: new})

    # pickle and copies rebuild through __new__, so each runs the check once
    with mock.patch.object(cls, "_check", autospec=True, side_effect=cls._check) as check:
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(record), copy.deepcopy(record)]
    assert check.call_count == len(copies)
    assert all(type(c) is cls and c == record for c in copies)

    # immutable, with no instance __dict__
    assert not hasattr(record, "__dict__")
    for name in (field, "no_such_field"):
        assert _error(lambda: setattr(record, name, new)) is AttributeError

    # the oracle's exception type for a bad call
    bad_calls = [
        lambda c: c(*values, no_such_field=1),  # unknown
        lambda c: c(*values, **{fields[0]: values[0]}),  # repeated
        lambda c: c(*values, values[0]),  # one too many
        lambda c: c._make(values[:-1]),
        lambda c: c._make((*values, values[0])),
        lambda c: c(*values)._replace(no_such_field=1),
    ]
    if required:
        bad_calls.append(lambda c: c())  # missing
    for call in bad_calls:
        assert _error(lambda: call(cls)) is _error(lambda: call(oracle)) is not None


# (a field, a value the check rejects, the exception it raises) of each checked record
_INVALID = {
    LayerSpec: ("stride", 0, ValueError),
    ChipConfig: ("rows", 0, ConfigError),
    TechParams: ("p_tia", -1.0, ConfigError),
    CalibrationProfile: ("overrides", {"no_such_field": 1.0}, ConfigError),
    SweepGrid: ("template", None, ConfigError),
    Constraints: ("tie_tol", 2.0, ConfigError),
}


@pytest.mark.parametrize("cls", list(_CHECKED), ids=lambda cls: cls.__name__)
def test_an_invalid_record_does_not_survive_a_pickle_copy_or_replace(cls):
    # built around the check, as `SweepGrid.configs` builds grid points
    field, value, exc_type = _INVALID[cls]
    bad = tuple.__new__(cls, {**_CHECKED[cls]._asdict(), field: value}.values())
    builds = [lambda: copy.copy(bad), lambda: copy.deepcopy(bad), lambda: bad._replace(),
              lambda: cls._make(bad)]
    builds += [lambda protocol=protocol: pickle.loads(pickle.dumps(bad, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for build in builds:
        with pytest.raises(exc_type):
            build()


def _rejects(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def _each_path(exc_type, message, cls, valid, field, bad):
    """The constructor, `_make` and `_replace` all reject `field = bad`."""
    values = {**valid._asdict(), field: bad}
    _rejects(exc_type, message, lambda: cls(**values))
    _rejects(exc_type, message, lambda: cls._make(values.values()))
    _rejects(exc_type, message, lambda: valid._replace(**{field: bad}))


# --- LayerSpec ----------------------------------------------------------------

_LAYER = LayerSpec("conv", 8, 8, 3, 3, 3, 16, 1)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(LayerSpec._fields[1:]),
       bad=st.integers(max_value=0) | st.floats() | st.booleans())
def test_layer_spec_rejects_a_dimension_that_is_not_a_positive_int(field, bad):
    message = f"layer 'conv': {field} must be a positive integer, got {bad}"
    _each_path(ValueError, message, LayerSpec, _LAYER, field, bad)


@settings(max_examples=20, deadline=None)
@given(filter_h=st.integers(9, 64))
def test_layer_spec_rejects_a_filter_larger_than_its_ifmap(filter_h):
    message = f"layer 'conv': filter {filter_h}x3 stride 1 does not fit ifmap 8x8"
    _each_path(ValueError, message, LayerSpec, _LAYER, "filter_h", filter_h)


# --- ChipConfig, and SweepGrid axes over a template ---------------------------

_NOT_POSITIVE = st.floats(max_value=0.0)
_CHIP_BAD = {
    **dict.fromkeys(("rows", "cols", "batch", "b_in", "b_w", "b_out", "b_acc"),
                    st.integers(max_value=0)),
    "cores": st.integers().filter(lambda c: c not in (1, 2)),
    **dict.fromkeys(("clock_hz", "sram_input_mb", "sram_filter_mb", "sram_output_mb",
                     "sram_acc_mb"), _NOT_POSITIVE),
}
_TEMPLATES = st.sampled_from([ChipConfig(), ChipConfig(rows=128, cols=64, batch=8)])
# SweepGrid axis -> the ChipConfig field its values set
_AXES = {"rows": "rows", "cols": "cols", "batch": "batch",
         "input_sram_mb": "sram_input_mb", "cores": "cores"}


def _chip_message(cfg: ChipConfig, field: str, bad) -> str:
    if field in ("rows", "cols"):
        values = {**cfg._asdict(), field: bad}
        return f"array must be at least 1x1, got {values['rows']}x{values['cols']}"
    if field in ("cores", "batch", "clock_hz"):
        rule = {"cores": "be 1 or 2", "batch": "be >= 1", "clock_hz": "be > 0"}[field]
        return f"{field} must {rule}, got {bad}"
    return f"{field} must be >= 1" if field.startswith("b_") else f"{field} must be > 0"


@st.composite
def _bad_chip_field(draw):
    field = draw(st.sampled_from(sorted(_CHIP_BAD)))
    return field, draw(_CHIP_BAD[field])


@settings(max_examples=100, deadline=None)
@given(template=_TEMPLATES, case=_bad_chip_field())
def test_chip_config_rejects_each_invalid_field_on_every_path(template, case):
    field, bad = case
    message = _chip_message(template, field, bad)
    _each_path(ConfigError, message, ChipConfig, template, field, bad)
    _rejects(ConfigError, message, lambda: template.with_(**{field: bad}))

    for key, name in _AXES.items():
        if name == field:
            grid_message = f"{key} = {bad}: {message}"
            ok = getattr(template, field)
            _rejects(ConfigError, grid_message,
                     lambda: SweepGrid(template=template, **{key: (ok, bad)}))
            _rejects(ConfigError, grid_message,
                     lambda: SweepGrid(template=template)._replace(**{key: (ok, bad)}))


@settings(max_examples=20, deadline=None)
@given(template=_TEMPLATES, key=st.sampled_from(sorted(_AXES)))
def test_sweep_grid_rejects_an_axis_without_values(template, key):
    message = f"{key} is given but lists no values"
    _each_path(ConfigError, message, SweepGrid, SweepGrid(template=template), key, ())


@settings(max_examples=20, deadline=None)
@given(template=_TEMPLATES, key=st.sampled_from(sorted(_AXES)))
def test_sweep_grid_rejects_a_repeated_axis_value(template, key):
    # a repeated value would sweep the same point twice, as two identical rows
    value = getattr(template, _AXES[key])
    other = 3 - value if key == "cores" else value * 2
    message = f"{key} lists {value} more than once"
    values = (other, value, value)
    _each_path(ConfigError, message, SweepGrid, SweepGrid(template=template), key, values)


# none of these ran ChipConfig's check, not even a namedtuple of its fields and defaults
_CHIP_LOOK_ALIKE = collections.namedtuple("ChipConfig", ChipConfig._fields,
                                          defaults=ChipConfig._field_defaults.values())
_NOT_CHIP_CONFIGS = [_CHIP_LOOK_ALIKE(rows=0, cores=2), (0,) * len(ChipConfig._fields),
                     None, ChipConfig()._asdict()]


@pytest.mark.parametrize("template", _NOT_CHIP_CONFIGS,
                         ids=["fields-rows-0", "tuple", "None", "dict"])
@pytest.mark.parametrize("cls", [SweepGrid, Constraints])
def test_a_template_that_is_not_a_chip_config_is_rejected(cls, template):
    # a grid point copies the template's unswept fields without checking them
    message = f"template must be a ChipConfig, got {type(template).__name__}"
    builds = [lambda: cls(template=template),
              lambda: cls(template=ChipConfig())._replace(template=template)]
    if cls is SweepGrid:  # and before any axis value is checked over it
        builds.append(lambda: SweepGrid(template=template, rows=(8,)))
    for build in builds:
        _rejects(ConfigError, message, build)


# --- TechParams and CalibrationProfile ----------------------------------------

_NOT_NUMERIC = st.sampled_from([None, "1.0", True, False, [1.0], 1j])
_NEGATIVE = st.integers(max_value=-1) | st.floats(max_value=-5e-324)


@st.composite
def _bad_tech_field(draw):
    """(field, bad value, expected message) for one TechParams field."""
    field = draw(st.sampled_from(TechParams._fields))
    kind = draw(st.sampled_from(["not numeric", "negative", "own rule"]))
    if kind == "not numeric":
        bad = draw(_NOT_NUMERIC)
        return field, bad, f"tech parameter {field} must be numeric, got {bad!r}"
    if kind == "negative" or field not in ("laser_wallplug_eff", "rings_per_row_tx"):
        bad = draw(_NEGATIVE)
        return field, bad, f"tech parameter {field} must be >= 0, got {bad}"
    if field == "laser_wallplug_eff":
        bad = draw(st.floats(min_value=1.0, exclude_min=True) | st.sampled_from(
            [0, 0.0, float("nan")]))
        return field, bad, f"laser_wallplug_eff must be in (0, 1], got {bad}"
    bad = draw(st.just(0) | st.floats(0.0, 1.0, exclude_max=True))
    return field, bad, "rings_per_row_tx must be >= 1"


@settings(max_examples=150, deadline=None)
@given(profile_name=st.sampled_from(["paper-default", "paper-consistent"]),
       case=_bad_tech_field())
def test_tech_params_rejects_each_invalid_field_on_every_path(profile_name, case):
    field, bad, message = case
    base = apply_profile(default_tech_params(), get_profile(profile_name))
    _each_path(ConfigError, message, TechParams, base, field, bad)
    _rejects(ConfigError, message, lambda: apply_overrides(base, {field: bad}))
    _rejects(ConfigError, message,
             lambda: apply_profile(base, CalibrationProfile("p", overrides={field: bad})))
    _rejects(ConfigError, message,
             lambda: CalibrationProfile("p")._replace(overrides={field: bad}))
    # apply_profile checks on its own too: a profile built without its check
    unchecked = tuple.__new__(CalibrationProfile, ("p", {field: bad}, {}))
    _rejects(ConfigError, message, lambda: apply_profile(base, unchecked))


@settings(max_examples=40, deadline=None)
@given(key=st.text(max_size=12).filter(lambda k: k not in TechParams._fields))
def test_calibration_profile_rejects_an_unknown_parameter(key):
    message = f"profile 'p' overrides unknown tech parameter {key!r}"
    _each_path(ConfigError, message, CalibrationProfile, CalibrationProfile("p"),
               "overrides", {key: 1.0})
    _rejects(ConfigError, f"profile 'config' overrides unknown tech parameter {key!r}",
             lambda: apply_overrides(default_tech_params(), {key: 1.0}))


def test_profiles_with_default_overrides_and_notes_do_not_share_a_dict():
    a, b = CalibrationProfile(name="a"), CalibrationProfile(name="b")
    assert a.overrides == {} and a.notes == {}
    assert a.overrides is not b.overrides
    assert a.notes is not b.notes
    assert a.overrides is not a.notes


# --- Constraints over a template ----------------------------------------------

def _ascending_from_one(b) -> bool:
    return bool(b) and b[0] >= 1 and all(x < y for x, y in zip(b, b[1:]))


_SIZES = st.lists(st.integers(-3, 600), max_size=5).map(tuple)
_CONSTRAINTS_BAD = {
    "batch_candidates": (st.lists(st.integers(-3, 300), max_size=6).map(tuple)
                         .filter(lambda b: not _ascending_from_one(b)),
                         "batch_candidates must be non-empty, >= 1 and strictly ascending, "
                         "got {list}"),
    **dict.fromkeys(("array_rows", "array_cols"), (
        _SIZES.filter(lambda s: not s or min(s) < 1),
        "{field} must list at least one size, all >= 1, got {list}")),
    **dict.fromkeys(("area_cap_mm2", "sram_step_mb"), (
        _NOT_POSITIVE, "{field} must be > 0, got {bad}")),
    **dict.fromkeys(("hiding_eps", "tie_tol"), (
        st.floats().filter(lambda v: not 0.0 <= v < 1.0),
        "{field} must be in [0, 1), got {bad}")),
}


@st.composite
def _bad_constraint(draw):
    field = draw(st.sampled_from(sorted(_CONSTRAINTS_BAD)))
    values, message = _CONSTRAINTS_BAD[field]
    bad = draw(values)
    listed = list(bad) if isinstance(bad, tuple) else None
    return field, bad, message.format(field=field, bad=bad, list=listed)


@settings(max_examples=100, deadline=None)
@given(template=_TEMPLATES, case=_bad_constraint())
def test_constraints_over_a_template_reject_each_invalid_field(template, case):
    field, bad, message = case
    _each_path(ConfigError, message, Constraints, Constraints(template=template), field, bad)


# --- NaN in any float field ---------------------------------------------------

_FLOAT_FIELDS = [(cls, field) for cls in (ChipConfig, TechParams, Constraints)
                 for field, default in cls()._asdict().items() if type(default) is float]


@pytest.mark.parametrize("cls, field", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field in _FLOAT_FIELDS])
def test_nan_in_a_float_field_is_rejected_naming_the_field(cls, field):
    # a range check written as `x <= 0` lets NaN through; each must fail it
    for build in (lambda: cls(**{field: float("nan")}),
                  lambda: cls()._replace(**{field: float("nan")})):
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            build()


# --- a bool in any float field ------------------------------------------------

_BOOL_CASES = [(cls, field, bad) for cls, field in _FLOAT_FIELDS for bad in (True, False)]


@pytest.mark.parametrize("cls, field, bad", _BOOL_CASES,
                         ids=[f"{cls.__name__}.{field}-{bad}" for cls, field, bad in _BOOL_CASES])
def test_a_bool_in_a_float_field_is_rejected_naming_the_field(cls, field, bad):
    # True > 0 and 0 <= False < 1 both hold, so a range check alone lets a bool through
    for build in (lambda: cls(**{field: bad}), lambda: cls()._replace(**{field: bad})):
        with pytest.raises(ConfigError, match=rf"\b{field}\b"):
            build()


def test_a_bool_on_a_float_sweep_axis_is_rejected_naming_the_axis():
    # each axis value is checked on the template, so the grid inherits the field's check
    _rejects(ConfigError, "input_sram_mb = True: sram_input_mb must be > 0",
             lambda: SweepGrid(template=ChipConfig(), input_sram_mb=(True, 2.0)))


# --- NaN or a fraction in any int field ---------------------------------------

# TechParams' NaN and True are left out: its `>= 0` and numeric checks, shared by
# every tech parameter, already reject them
_INT_CASES = [(cls, field, bad)
              for cls, fields in ((ChipConfig, ("rows", "cols", "cores", "batch", "b_in",
                                                "b_w", "b_out", "b_acc")),
                                  (TechParams, ("rings_per_row_tx",)),
                                  (Constraints, ("batch_candidates", "array_rows",
                                                 "array_cols")))
              for field in fields for bad in (float("nan"), 2.5, True)
              if not (cls is TechParams and (bad is True or bad != bad))]


@pytest.mark.parametrize("cls, field, bad", _INT_CASES,
                         ids=[f"{cls.__name__}.{field}-{bad}" for cls, field, bad in _INT_CASES])
def test_an_int_field_rejects_nan_and_fractions_naming_the_field(cls, field, bad):
    # `x < 1` lets NaN and 2.5 through, and True is an int equal to 1; an int
    # field must hold an int that is not a bool
    value = (1, bad) if cls is Constraints else bad
    for build in (lambda: cls(**{field: value}), lambda: cls()._replace(**{field: value})):
        with pytest.raises(ConfigError, match=rf"\b{field}\b.* integer"):
            build()
