"""Exception types shared across the simulator, and the mixin of checked records.

Each error class carries the CLI's exit code for it and the label that starts
its one stderr line, which `cli.main` prints: ConfigError -> 1,
TopologyError -> 2, EvaluationError -> 3, InfeasibleError -> 4.
"""


class OxsimError(Exception):
    """Base class for all simulator errors; each subclass sets `exit_code` and `label`."""


class ConfigError(OxsimError):
    """Bad configuration: unknown key, invalid value, unreadable file."""

    exit_code, label = 1, "config error"


class TopologyError(OxsimError):
    """Bad network topology file: missing, malformed row, invalid dims."""

    exit_code, label = 2, "topology error"


class EvaluationError(OxsimError):
    """A model evaluation failed; message names the offending config."""

    exit_code, label = 3, "evaluation error"


class InfeasibleError(OxsimError):
    """An optimization constraint cannot be met; message names the step."""

    exit_code, label = 4, "infeasible"


class Checked:
    """Mixin that runs `_check()` on every new instance of a NamedTuple subclass.

    Use as `class T(Checked, _TFields)` with `__slots__ = ()`, where
    `_TFields` is the NamedTuple of T's fields. NamedTuple's `_make`, and so
    `_replace`, would build the tuple without calling `__new__`; here both
    go through it. Only `SweepGrid.configs` builds instances without it, and that is
    exact: every `ChipConfig` check reads one field, and `SweepGrid` checks each value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
