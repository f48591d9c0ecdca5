"""One codec for every dataclass the harness writes to disk or reads back.

``dump`` turns a dataclass into a JSON-ready dict in field declaration
order: enums become their values, tuples become lists, and nested
dataclasses recurse. ``load`` reads such a dict back, strict in keys
and in value types, and raises the caller's error class naming the key
and the line. Data files (``DataError``) must carry every key; configs
(the ``UsageError`` family) may omit keys that have a dataclass default.

Every check runs before an instance is built. The generic path then
builds it by ``cls(**payload)``, and a ``__post_init__`` refusal gets
``where`` too.

Per-class tables are built once, on first use, from the resolved field
annotations, and each class's line codec is compiled from its table,
one small function per direction, as dataclasses compiles ``__init__``:

* The encoder is a ``%`` template of the fixed key text with one slot
  per field. Each slot writes its value by the value's exact class: a
  str through ``json.encoder.encode_basestring``, None as ``null``, a
  bool, an int by ``int.__repr__``, a float by ``float.__repr__`` (or
  ``NaN`` and ``±Infinity``), and a ``JsonText`` as it is. Any other
  value takes the field's encoder, as ``dump`` does, and ``json_value``.
  So a line is exactly ``json_value(dump(obj))``, written without the
  dict. ``line_encoder`` gives it to a caller that holds a record's
  values but no record.
* The decoder exists for a class with no ``__post_init__`` and no
  decoded field (enum, tuple or nested dataclass), such as
  ``RunRecord`` and ``Triplet``. It checks the key set and each value's
  exact type inline, then builds the instance as pickle restores one,
  without its frozen ``__init__``: ``object.__new__`` and each value
  written in field order, through the slots of a slotted class
  (``RunRecord``) or into the instance ``__dict__`` (``Triplet``). On
  any failure ``load`` goes on with its generic checks, so a refusal
  and its message are the same either way.

The supported annotations are ``str``, ``int``, ``float`` (an int is
accepted and kept as given), ``bool``, ``dict``, an ``Enum``,
``tuple[Enum, ...]`` (read from a JSON list), a nested dataclass, and
any of these ``| None``. A bool is never accepted as a number.

The file half lives here too: ``read_json`` and ``read_jsonl`` are the
only readers of the harness's JSON and JSONL input files. A JSONL line
that is one JSON value and its newline is decoded by ``raw_decode``
alone, and any other by ``json.loads``, which then accepts, refuses and
words its message as it always has. ``dump_line`` is the one JSONL line
encoder, ``json_text`` the one JSON file encoding and ``utc_now`` the
one timestamp format. ``json_value``, the compact encoding
``dump_line`` writes, is one encoder that every caller shares.
``write_atomic`` is the one writer of a whole file: it streams a str,
or an iterable of str chunks such as JSONL lines, into a temp file and
renames it onto the target, so that no reader sees the file half
written. Only the run's record log is appended instead (runner).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import operator
import os
import re
import time
import types
import typing
import uuid
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple

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
    line: Callable[..., str]  # the field values, in order or by name -> a line
    encode: Callable[[Any], str]  # an instance -> its line
    decode: Callable[[Any], Any] | None  # a payload -> an instance, or None


class JsonText(str):
    """A str that already is a value's JSON text; a line encoder writes
    it as it is. The runner hands it a prompt's text this way, encoded
    once by render for the content hash."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# A value's JSON text by its exact class, as json_value writes it.
_TEXT_BY_CLASS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring,
    JsonText: str.__str__,
    _NONE: lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
}


_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")  # Unicode category Cc


def control_character(text: str) -> str | None:
    """The first character of text in Unicode category Cc, if any. No
    report artifact can show one: a newline ends a Markdown table row,
    and XML 1.0 cannot hold most of them, escaped or not."""
    found = _CONTROL.search(text)
    return found.group() if found else None


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
    if schema.decode is not None:
        instance = schema.decode(payload)
        if instance is not None:
            return instance
    return _load(schema, cls, payload, what, error, where)


def _load(
    schema: _Schema, cls: type[Any], payload: Any, what: str, error: type[HarnessError], where: str
) -> Any:
    """load's generic path: every check, each with its message, then
    cls(**payload). It gives what a compiled decoder gives for a payload
    that one accepts, and alone words every refusal."""
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
    try:
        return cls(**payload)
    except error as exc:  # a __post_init__ check
        if not where:
            raise
        message = str(exc).removeprefix(f"{what}: ")
        raise type(exc)(f"{what}{where}: {message}") from None


# What json.dumps(value, ensure_ascii=False) gives, without building an
# encoder per call; an encoder keeps no state between calls.
json_value: Callable[[Any], str] = json.JSONEncoder(ensure_ascii=False).encode


def dump_line(obj: Any) -> str:
    """The dataclass as one JSONL line, without its newline: the text
    json_value(dump(obj)) gives, from the class's compiled encoder."""
    return _schema(type(obj)).encode(obj)


def line_encoder(cls: type[Any]) -> Callable[..., str]:
    """cls's compiled line encoder: it takes the field values, in field
    order or by field name, and gives the line dump_line gives for the
    instance they would build, without building it."""
    return _schema(cls).line


_decode_json = json.JSONDecoder().raw_decode


def _json_line(text: str) -> Any:
    """json.loads(text), for a line. A line that is one JSON value and
    its newline, as every line the harness writes is, is decoded once;
    any other (leading or other trailing whitespace, a BOM, bad JSON) is
    left to json.loads, so what is accepted and every message stay
    json.loads's own. JSON whitespace is four characters, far fewer than
    str.isspace takes, so only the newline is skipped here."""
    try:
        value, end = _decode_json(text)
    except ValueError:
        return json.loads(text)
    if end == len(text) or (end == len(text) - 1 and text[end] == "\n"):
        return value
    return json.loads(text)


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
    torn_tail: Callable[[int], None] | None = None,
    bad: Callable[[int, ValueError], None] | None = None,
) -> Iterator[tuple[int, Any]]:
    """(line number, row) for each non-blank line of a JSONL file of whats.

    Lines are split on b"\\n" only, since a string written with
    ensure_ascii=False may hold U+2028 or U+0085, and numbered from 1.
    Each line must be UTF-8 JSON, and with cls is loaded as one. A line
    that fails raises error naming the path and the line, except that
    bad(lineno, exc), when given, takes each line that is not UTF-8
    JSON, and with torn_tail a failing last line (a killed writer's) is
    dropped with a warning and torn_tail(the byte offset where it
    starts) is called. A line after it, even a blank one, still raises.
    """
    with _open(path, f"{what} file", error) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                try:
                    row = _json_line(line.decode())
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
                    torn_tail(handle.tell() - len(line))
                    return
                raise error(f"{path} line {lineno}: {exc}") from None
            yield lineno, row


def json_text(payload: Any) -> str:
    """The text of a JSON file: indented, keys sorted, newline-terminated."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def utc_now() -> str:
    """The current UTC time to the second, as every file records it.

    The system clock is read in whole nanoseconds and floored to the
    second, as datetime.now floors it; each second is formatted once."""
    return _utc_text(time.time_ns() // 1_000_000_000)


@functools.lru_cache(maxsize=1)
def _utc_text(second: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(second))


def write_atomic(path: str | Path, text: str | Iterable[str]) -> Path:
    """Make text, a str or an iterable of str chunks, the content of
    path, so that path always holds either its old content or all of
    text: the chunks are streamed to a temp file in the same dir, which
    is flushed and fsynced, then renamed onto path. Makes the parent dir
    and returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with temp.open("x", encoding="utf-8", newline="") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


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
    decoders = tuple((name, c[2]) for name, c in codecs.items() if c[2] is not None)
    accepted = {name: codec[0] for name, codec in codecs.items()}
    line, encode = _compile_encoder({name: codec[3] for name, codec in codecs.items()})
    restorable = not decoders and not hasattr(cls, "__post_init__")
    return _Schema(
        order=tuple(codecs),
        names=frozenset(codecs),
        required=frozenset(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ),
        accepted=accepted,
        expected={name: codec[1] for name, codec in codecs.items()},
        decoders=decoders,
        encoders=tuple((name, c[3]) for name, c in codecs.items() if c[3] is not None),
        line=line,
        encode=encode,
        decode=_compile_decoder(cls, accepted) if restorable else None,
    )


# The compiled functions name a field's value by the field's name in
# the encoder, where callers may pass values by name, and __v<i> in the
# decoder. Every other name in them starts with two underscores, which
# no dataclass field name can: the class body would mangle it.


def _compiled(source: str, name: str, namespace: dict[str, Any]) -> Callable[..., Any]:
    exec(source, namespace)
    return namespace[name]


def _slot_text(encode: Callable[[Any], Any] | None) -> Callable[[Any], str]:
    """The JSON text of a field value whose class has no entry in
    _TEXT_BY_CLASS: the field's encoder first, as dump applies it."""
    if encode is None:
        return json_value

    def text(value: Any) -> str:
        value = encode(value)
        return _TEXT_BY_CLASS.get(type(value), json_value)(value)

    return text


def _compile_encoder(
    encoders: dict[str, Callable[[Any], Any] | None]
) -> tuple[Callable[..., str], Callable[[Any], str]]:
    """(line, encode) for the fields of encoders, in order, each with its
    dump encoder or None: line(*values) is the line of the instance the
    values would build, and encode(obj) the line of obj."""
    keys = (encode_basestring(name).replace("%", "%%") for name in encoders)
    namespace: dict[str, Any] = {
        "__template": "{" + ", ".join(f"{key}: %s" for key in keys) + "}",
        "__text": _TEXT_BY_CLASS.get,
        "__type": type,
    }
    slots = []
    for i, (name, encode) in enumerate(encoders.items()):
        namespace[f"__slot{i}"] = _slot_text(encode)
        slots.append(f"__text(__type({name}), __slot{i})({name}),")
    line = _compiled(
        f"def __line({', '.join(encoders)}):\n"
        f"    return __template % ({' '.join(slots)})\n",
        "__line",
        namespace,
    )
    encode = _compiled(
        f"def __encode(__obj):\n"
        f"    return __line({', '.join(f'__obj.{name}' for name in encoders)})\n",
        "__encode",
        namespace,
    )
    return line, encode


def _compile_decoder(cls: type[Any], accepted: dict[str, frozenset[type]]) -> Callable[[Any], Any]:
    """A function that builds cls, a class with no decoded field and no
    __post_init__, from a payload of exactly its keys, each holding a
    value of an accepted type, and gives None for any other payload.

    The instance is made as pickle restores one: object.__new__, then
    each value written in field order, with no frozen __setattr__ call.
    A slotted class's values go through its slot descriptors. Other
    values go into the instance __dict__, whose keys then line up with
    the ones __init__ sets, so the dict keeps sharing its keys.
    """
    namespace: dict[str, Any] = {"__cls": cls, "__new": object.__new__}
    slotted = bool(vars(cls).get("__slots__"))
    reads, checks = [], []
    writes = [] if slotted else ["    __state = __instance.__dict__\n"]
    for i, (name, kinds) in enumerate(accepted.items()):
        reads.append(f"        __v{i} = __payload[{name!r}]\n")
        tests = []
        for j, kind in enumerate(sorted(kinds, key=lambda kind: kind is _NONE)):
            if kind is _NONE:
                tests.append(f"__v{i} is None")
            else:
                namespace[f"__kind{i}_{j}"] = kind
                tests.append(f"type(__v{i}) is __kind{i}_{j}")
        checks.append(f"({' or '.join(tests)})")
        if slotted:
            namespace[f"__put{i}"] = vars(cls)[name].__set__
            writes.append(f"    __put{i}(__instance, __v{i})\n")
        else:
            writes.append(f"    __state[{name!r}] = __v{i}\n")
    source = (
        "def __decode(__payload):\n"
        f"    if type(__payload) is not dict or len(__payload) != {len(accepted)}:\n"
        "        return None\n"
        "    try:\n"
        f"{''.join(reads)}"
        "    except KeyError:\n"
        "        return None\n"
        f"    if not ({' and '.join(checks)}):\n"
        "        return None\n"
        "    __instance = __new(__cls)\n"
        f"{''.join(writes)}"
        "    return __instance\n"
    )
    return _compiled(source, "__decode", namespace)


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
