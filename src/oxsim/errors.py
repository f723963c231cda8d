"""Exception types shared across the simulator, and `Record`, the base of every record.

Each error class carries the CLI's exit code for it and the label that starts
its one stderr line, which `cli.main` prints: ConfigError -> 1,
TopologyError -> 2, EvaluationError -> 3, InfeasibleError -> 4.
"""
from collections import _tuplegetter  # namedtuple's field descriptor

_tuple_new = tuple.__new__


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


class _RecordType(type):
    """Makes each annotated name of a Record class body a field, its value the default."""

    def __new__(mcls, name, bases, namespace):
        namespace.setdefault("__slots__", ())  # no instance __dict__
        cls = super().__new__(mcls, name, bases, namespace)
        # read on the class, which evaluates lazily computed annotations (PEP 649)
        cls._fields = cls.__match_args__ = fields = tuple(cls.__annotations__)
        cls._field_defaults = {f: namespace[f] for f in fields if f in namespace}
        cls._repr_fmt = f"{name}({', '.join(f'{f}=%r' for f in fields)})"
        for i, f in enumerate(fields):
            setattr(cls, f, _tuplegetter(i, f"Alias for field number {i}"))
        return cls


class Record(tuple, metaclass=_RecordType):
    """An immutable record that behaves as the `collections.namedtuple` of its fields.

    A subclass declares its fields as annotated names (`rows: int = 32`) and may
    define `_check`, which raises on an invalid field; it runs on every new
    instance, as the constructor, `_make`, `_replace`, unpickling and copies all
    go through `__new__`. No class is built from generated code.
    """

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        self = _tuple_new(cls, args)
        self._check()
        return self

    def _check(self) -> None:
        """Raise if a field is invalid; a record without rules has none."""

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of `cls(*args, **kwargs)`, or the TypeError of a bad call."""
        rest = [f for f in cls._fields[len(args):] if f in kwargs or f in cls._field_defaults]
        if kwargs.keys() - rest or len(args) + len(rest) != len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}; got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        return args + tuple([kwargs[f] if f in kwargs else cls._field_defaults[f] for f in rest])

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _replace(self, **changes):
        values = [changes.pop(f, v) for f, v in zip(self._fields, self)]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return self._make(values)

    __replace__ = _replace  # copy.replace, from Python 3.13

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        return self._repr_fmt % self

    def __reduce__(self):  # so pickle and copy rebuild through __new__
        return type(self), tuple(self)
