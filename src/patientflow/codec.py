"""The JSON document: one format for every learned sub-model, config and output.

``fit`` writes model documents and ``forecast``, ``simulate`` and the
experiment's fingerprints read them; the generator, scenario and
simulation configs are documents of the same form, and ``write`` puts
every JSON file the CLI writes in that form. A document holds a
dataclass's fields by name: tuples become lists, nested dataclasses and
``dict[str, T]`` values nest. Each model class, and each other
alternative of a union, declares with ``tagged`` the tag its documents
carry: a ``"kind"`` (nested transition matrices keep theirs), or for
tree nodes a ``"leaf"``. That is how ``read`` tells alternatives apart.

``read`` converts each field to its annotated type. A field with a
default may be absent; unknown keys are ignored. A field annotated
``object`` is passed as it is, for its class to check, and so is a value
that is already an instance of the field's dataclass. Anything else that
does not fit, including a NaN or infinite float, raises ``ConfigError``
naming the value's path in the document.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from pathlib import Path

from .errors import ConfigError

_TAGS: dict[type, tuple[str, object]] = {}  # class -> the (key, tag) its documents carry


def tagged(tag, key: str = "kind"):
    """Class decorator: the documents of a dataclass carry ``key: tag``, by
    which ``read`` picks it out of a union; the tag need be unique only there."""
    def register(cls):
        _TAGS[cls] = (key, tag)
        return cls
    return register


def tags(union) -> tuple:
    """The tags of a union's tagged alternatives, in the union's order."""
    return tuple(_TAGS[t][1] for t in typing.get_args(union) if t in _TAGS)


@functools.cache
def _fields(cls) -> tuple[tuple[dataclasses.Field, object], ...]:
    """(field, annotated type) of each field in the document."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def document(obj) -> dict:
    """The JSON-ready document of any dataclass instance."""
    return _encode(obj)


def write(obj, path: str | Path) -> None:
    """Write the document of ``obj`` as indented JSON with sorted keys and
    a final newline: the form of every JSON file the CLI writes."""
    text = json.dumps(document(obj), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


_SCALARS = frozenset((str, int, float, type(None)))  # returned as they are, checked first


def _encode(value):
    if type(value) in _SCALARS:
        return value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if not dataclasses.is_dataclass(value):
        return value
    doc = {f.name: _encode(getattr(value, f.name)) for f, _ in _fields(type(value))}
    if type(value) in _TAGS:
        key, tag = _TAGS[type(value)]
        doc[key] = tag
    return doc


def read(cls, doc, path: str):
    """Decode the document of ``cls``, a dataclass or a scalar type such as
    ``float``; ``path`` names the document in error messages."""
    try:
        return _decode(doc, cls, path)
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply") from None


def _matches(value, option) -> bool:
    """Whether a value can be read as one alternative of a union: a tagged
    dataclass's document by its tag, of the tag's exact type (``1`` is not
    ``True``), a tuple by a list, anything else by its exact type."""
    key, tag = _TAGS.get(option, (None, None))
    if isinstance(value, dict) and key in value:
        return type(value[key]) is type(tag) and value[key] == tag
    return type(value) is (list if typing.get_origin(option) is tuple else option)


def _decode(value, hint, path: str):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        options = [t for t in typing.get_args(hint) if t is not type(None)]
        if value is None and len(options) < len(typing.get_args(hint)):
            return None
        if len(options) > 1:
            names = " or ".join(repr(_TAGS[t][1]) if t in _TAGS else t.__name__
                                for t in options)
            options = [t for t in options if _matches(value, t)]
            if not options:
                raise ConfigError(f"{path}: expected {names}, got {value!r:.60}")
        hint = options[0]
    origin = typing.get_origin(hint)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r:.60}")
        item = typing.get_args(hint)[0]
        if item in (int, str) and set(map(type, value)) <= {item}:
            return tuple(value)  # every element has the exact type: nothing to check
        return tuple(_decode(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
            raise ConfigError(f"{path}: expected an object, got {value!r:.60}")
        item = typing.get_args(hint)[1]
        return {k: _decode(v, item, f"{path}.{k}") for k, v in value.items()}
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r:.60}")
        values = {}
        for f, t in _fields(hint):
            if f.name in value:
                values[f.name] = _decode(value[f.name], t, f"{path}.{f.name}")
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"{path}: missing {f.name!r}")
        return hint(**values)
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # false for NaN, infinities and huge ints
            return float(value)
        raise ConfigError(f"{path}: expected a finite number, got {value!r:.60}")
    if hint is object or type(value) is hint:
        return value
    expected = {float: "a number", int: "a number (an integer)"}.get(hint, hint.__name__)
    raise ConfigError(f"{path}: expected {expected}, got {value!r:.60}")
