"""One codec for every dataclass the harness writes to disk or reads back.

``dump`` turns a dataclass into a JSON-ready dict in field declaration
order: enums become their values, tuples become lists, and nested
dataclasses recurse. ``load`` reads such a dict back, strict in keys
and in value types, and raises the caller's error class naming the key
and the line. Data files (``DataError``) must carry every key; configs
(the ``UsageError`` family) may omit keys that have a dataclass default.

Per-class tables are built once, on first use, from the resolved field
annotations. The supported annotations are ``str``, ``int``, ``float``
(an int is accepted and kept as given), ``bool``, ``dict``, an ``Enum``,
``tuple[Enum, ...]`` (read from a JSON list), a nested dataclass, and
any of these ``| None``. A bool is never accepted as a number.

The file half lives here too: ``read_json`` and ``read_jsonl`` are the
only readers of the harness's JSON and JSONL input files, ``dump_line``
is the one JSONL line encoder, and ``write_atomic`` replaces a whole
file so that no reader sees it half written.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import operator
import os
import types
import typing
import uuid
from enum import Enum
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple

from .errors import HarnessError, UsageError

log = logging.getLogger(__name__)

_NONE = type(None)

_JSON_KINDS = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    dict: "an object",
    list: "a list",
    _NONE: "null",
}

_Codec = tuple[frozenset[type], str, Any, Callable[[Any], Any] | None]


class _Schema(NamedTuple):
    order: tuple[str, ...]
    names: frozenset[str]
    required: frozenset[str]  # keys without a dataclass default
    accepted: dict[str, frozenset[type]]  # JSON types allowed per key
    expected: dict[str, str]  # the same, in words, for messages
    decoders: tuple[tuple[str, Any], ...]  # an enum, a tuple reader or a dataclass
    encoders: tuple[tuple[str, Callable[[Any], Any]], ...]


def dump(obj: Any) -> dict[str, Any]:
    """The dataclass as a JSON-ready dict, keys in field order."""
    schema = _schema(type(obj))
    payload = {name: getattr(obj, name) for name in schema.order}
    for name, encode in schema.encoders:
        if payload[name] is not None:
            payload[name] = encode(payload[name])
    return payload


def load(
    cls: type[Any],
    payload: Any,
    what: str,
    error: type[HarnessError],
    where: str = "",
) -> Any:
    """Build cls from a decoded JSON payload, or raise error.

    what names the thing in messages ("run record", "config"); where
    locates it (" at line 3").
    """
    schema = _schema(cls)
    if not isinstance(payload, dict):
        raise error(f"{what}{where} is not a JSON object, got {_kind(payload)}")
    keys = payload.keys()
    if keys != schema.names:
        extra = sorted(keys - schema.names)
        if extra:
            raise error(
                f"unknown {what} keys{where}: unexpected {extra}, "
                f"expected {sorted(schema.names)}"
            )
        needed = schema.required if issubclass(error, UsageError) else schema.names
        missing = sorted(needed - keys)
        if missing:
            raise error(f"{what}{where} is missing required keys {missing}")
    accepted = schema.accepted
    for name, value in payload.items():
        if type(value) not in accepted[name]:
            raise error(_bad_value(schema, name, value, what, where))
    if schema.decoders:
        payload = dict(payload)
        for name, decode in schema.decoders:
            value = payload.get(name)
            if value is None:
                continue
            if dataclasses.is_dataclass(decode):
                try:
                    payload[name] = load(decode, value, name, error, where)
                except error as exc:
                    raise error(f"bad {what}: {exc}") from None
                continue
            try:
                payload[name] = decode(value)
            except ValueError:
                raise error(_bad_value(schema, name, value, what, where)) from None
    return cls(**payload)


def dump_line(obj: Any) -> str:
    """The dataclass as one JSONL line, without its newline."""
    return json.dumps(dump(obj), ensure_ascii=False)


def load_line(
    cls: type[Any], line: str | bytes, what: str, error: type[HarnessError], where: str = ""
) -> Any:
    """Build cls from one JSON line, or raise error."""
    try:
        payload = json.loads(line if isinstance(line, str) else line.decode())
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise error(f"invalid {what} JSON{where}: {exc}") from None
    return load(cls, payload, what, error, where)


def read_json(path: str | Path, what: str, error: type[HarnessError]) -> Any:
    """The decoded JSON content of a whole file, or error naming the path."""
    with _open(path, what, error) as handle:
        try:
            return json.loads(handle.read().decode())
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise error(f"{what} {path} is not valid JSON: {exc}") from None


def read_jsonl(
    path: str | Path,
    what: str,
    error: type[HarnessError],
    cls: type[Any] | None = None,
    *,
    torn_tail: bool = False,
    bad: Callable[[int, ValueError], None] | None = None,
) -> Iterator[tuple[int, Any]]:
    """(line number, row) for each non-blank line of a JSONL file of whats.

    Lines are split on b"\\n" only, since a string written with
    ensure_ascii=False may hold U+2028 or U+0085, and numbered from 1.
    Each line must be UTF-8 JSON, and with cls is loaded as one. A line
    that fails raises error naming the path and the line, except that
    bad(lineno, exc), when given, takes each line that is not UTF-8
    JSON, and torn_tail drops a failing last line (a killed writer's)
    with a warning. A line after it, even a blank one, still raises.
    """
    with _open(path, f"{what} file", error) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                try:
                    row = json.loads(line.decode())
                except ValueError as exc:
                    if bad is None:
                        raise error(f"invalid JSON: {exc}") from None
                    bad(lineno, exc)
                    continue
                if cls is not None:
                    row = load(cls, row, what, error)
            except error as exc:
                if torn_tail and not handle.read(1):
                    log.warning(
                        "%s: dropping torn final %s line %d (interrupted write)",
                        path,
                        what,
                        lineno,
                    )
                    return
                raise error(f"{path} line {lineno}: {exc}") from None
            yield lineno, row


def write_atomic(path: str | Path, text: str) -> None:
    """Make text the content of path, so that path always holds either
    its old content or all of text: text goes to a temp file in the same
    dir, is flushed and fsynced, then renamed onto path."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with temp.open("xb") as handle:
            handle.write(text.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _open(path: str | Path, what: str, error: type[HarnessError]) -> BinaryIO:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None


def _kind(value: Any) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _bad_value(schema: _Schema, name: str, value: Any, what: str, where: str) -> str:
    return (
        f"{what}{where}: {name!r} must be {schema.expected[name]}, "
        f"got {_kind(value)} {value!r:.60}"
    )


@functools.cache
def _schema(cls: type[Any]) -> _Schema:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    codecs = {f.name: _codec(hints[f.name], f"{cls.__name__}.{f.name}") for f in fields}
    return _Schema(
        order=tuple(codecs),
        names=frozenset(codecs),
        required=frozenset(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ),
        accepted={name: codec[0] for name, codec in codecs.items()},
        expected={name: codec[1] for name, codec in codecs.items()},
        decoders=tuple((name, c[2]) for name, c in codecs.items() if c[2] is not None),
        encoders=tuple((name, c[3]) for name, c in codecs.items() if c[3] is not None),
    )


def _codec(hint: Any, where: str) -> _Codec:
    """(accepted JSON types, description, decoder, encoder) for one annotation."""
    origin = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and _NONE in args:
        inner = args[0] if args[1] is _NONE else args[1]
        kinds, description, decode, encode = _codec(inner, where)
        return kinds | {_NONE}, f"{description} or null", decode, encode
    if origin is float:
        return frozenset({float, int}), _JSON_KINDS[float], None, None
    if origin in (str, int, bool, dict):
        return frozenset({origin}), _JSON_KINDS[origin], None, None
    if isinstance(origin, type) and issubclass(origin, Enum):
        values = [member.value for member in origin]
        kinds = frozenset(type(value) for value in values)
        return kinds, f"one of {values}", origin, operator.attrgetter("value")
    if origin is tuple and args[1:] == (Ellipsis,) and issubclass(args[0], Enum):
        enum = args[0]
        return (
            frozenset({list}),
            f"a list drawn from {[member.value for member in enum]}",
            lambda items: tuple(map(enum, items)),
            lambda members: [member.value for member in members],
        )
    if dataclasses.is_dataclass(origin):
        return frozenset({dict}), _JSON_KINDS[dict], origin, dump
    raise TypeError(f"{where}: unsupported annotation {hint!r}")
