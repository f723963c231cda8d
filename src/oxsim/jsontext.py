"""Indented, key-sorted JSON text through `json`'s C encoder.

Below Python 3.13 the encoder is built from `_json` directly, so no process
loads the `json` package, which imports its decoder and compiles its regexes.
`reports.dump_json` imports this module on first use, so that a process that
writes no JSON (a sweep) does not compile it.
"""
import sys
from itertools import chain

from _json import encode_basestring_ascii as _key, make_encoder as _make_encoder

# depth -> the C encoder whose items are separated by a newline and `depth`
# indents. All of them share one circular-reference marker dict, which a
# finished call leaves empty and `dumps` empties after a failed one.
_ENCODERS = {}
_MARKERS = {}


def dumps(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"`, byte
    for byte, for a payload whose dicts have str keys and whose values are dicts,
    lists and JSON scalars.

    Before Python 3.13, `indent` sends `json` to its pure-Python encoder. There the
    C encoder, which then takes no indent, writes each scalar-only container, and
    each list of non-empty scalar-only dicts, in one call, with a newline and the
    items' indentation as its item separator. An encoded scalar never holds a raw
    newline, so in such a list `},` followed by a newline only ends a row, and the
    row boundaries are re-indented by replacing it. Other containers recurse.
    """
    if sys.version_info >= (3, 13):  # its C encoder takes `indent` itself
        import json
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    try:
        return _encode(payload, 0) + "\n"
    finally:
        _MARKERS.clear()


def _default(value):  # what `json.JSONEncoder.default` raises
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _flat(value, depth: int) -> str:
    # one C-encoder call, built with the arguments `JSONEncoder(sort_keys=True,
    # allow_nan=False)` passes
    if depth not in _ENCODERS:
        _ENCODERS[depth] = _make_encoder(_MARKERS, _default, _key, None, ": ",
                                         ",\n" + "  " * depth, True, False, False)
    return "".join(_ENCODERS[depth](value, 0))


def _scalars(types: set) -> bool:
    return not any(issubclass(t, (dict, list, tuple)) for t in types)


def _encode(value, depth: int) -> str:
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return _flat(value, depth)
    outer, inner, row = ("\n" + "  " * d for d in (depth, depth + 1, depth + 2))
    types = set(map(type, value.values() if is_dict else value))
    if _scalars(types):
        text = _flat(value, depth + 1)
        if len(text) == 2:  # {} or []
            return text
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        parts = [_key(k) + ": " + _encode(v, depth + 1) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if (types == {dict} and all(value)
            and _scalars(set(map(type, chain.from_iterable(map(dict.values, value)))))):
        rows = _flat(value, depth + 2)[2:-2].replace(
            "}," + row + "{", inner + "}," + inner + "{" + row)
        return "[" + inner + "{" + row + rows + inner + "}" + outer + "]"
    parts = [_encode(v, depth + 1) for v in value]
    return "[" + inner + ("," + inner).join(parts) + outer + "]"
