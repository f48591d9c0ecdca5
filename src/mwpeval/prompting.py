"""Prompt construction for the two tasks and the four correction modes.

Templates are versioned data files with double-brace placeholders. The
reasoning task fills {{question}} only. Correction prompts always carry
the wrong solution; the three diagnostic modes add one resource each,
in increasing strength: the numeric answer, a brief explanation, or the
full reference solution. The plain correction mode (sp) adds nothing.
The modes are the five members of the PromptMode enum, in report
order: reasoning, then sp, dop_na, dop_be and dop_sa. A registry checks
each template against the name it is filed under when it is built, so
render fills one in a single pass straight from the triplet's fields.

Every rendered prompt gets a content hash over (template_id, prompt
text, sampling params), which every record keeps. The runner binds an
output dir to what fixes those hashes (the dataset digest, the template
ids, the params and RENDERER in runner.py), so inside the dir a cell's
identity stands for its hash: editing a template or changing sampling
needs a fresh dir, while a resumed identical run replays from disk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from ._schema import dump, json_value
from .errors import DataError, UsageError
from .triplets import Triplet

HASH_ALGORITHM = "sha256"

PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


class TaskKind(str, Enum):
    REASONING = "reasoning"
    CORRECTION = "correction"


class DopLevel(str, Enum):
    """Correction modes, ordered by diagnostic strength."""

    SP = "sp"
    NA = "dop_na"
    BE = "dop_be"
    SA = "dop_sa"


class PromptMode(Enum):
    """The five modes, in report order: solve the problem, then correct
    its wrong solution at each diagnostic level. A member's value is its
    (task, dop) pair; correction, and correction alone, takes a dop."""

    REASONING = (TaskKind.REASONING, None)
    SP = (TaskKind.CORRECTION, DopLevel.SP)
    NA = (TaskKind.CORRECTION, DopLevel.NA)
    BE = (TaskKind.CORRECTION, DopLevel.BE)
    SA = (TaskKind.CORRECTION, DopLevel.SA)

    __hash__ = object.__hash__  # members compare by identity; Enum's hash is slower

    def __init__(self, task: TaskKind, dop: DopLevel | None) -> None:
        self.task = task
        self.dop = dop
        # Stable textual form, e.g. "reasoning|-" or "correction|dop_na".
        self.key = f"{task.value}|{dop.value if dop else '-'}"
        self.template_name = f"correction_{dop.value}" if dop else "reasoning"
        # task and dop as a run record stores them: plain strings. Shared
        # by every caller, so it is read, never changed.
        self.record_fields = {"task": task.value, "dop": dop.value if dop else None}


# Why a task cannot take the dop it was given.
MISPAIRED = {
    TaskKind.REASONING: "the reasoning task takes no correction mode",
    TaskKind.CORRECTION: "the correction task needs a mode: sp, dop_na, dop_be or dop_sa",
}

MODES = tuple(PromptMode)
REASONING_MODE = PromptMode.REASONING
CORRECTION_MODES = {mode.dop: mode for mode in MODES if mode.dop}
ALL_DOP_LEVELS = tuple(CORRECTION_MODES)


def mode_for(task: str, dop: str | None) -> PromptMode | None:
    """The member a (task, dop) pair names, or None for a pair that names
    no mode. str enums hash and compare like their values, so the pair
    may be given as enums or as the strings a record stores."""
    return PromptMode._value2member_map_.get((task, dop))  # type: ignore[return-value]


# Why a mode does not apply to a triplet, as skip_reason gives it.
REASONING_ONLY = "reasoning-only"
NO_EXPLANATION = "no brief explanation"


def skip_reason(triplet: Triplet, mode: PromptMode) -> str | None:
    """Why mode does not apply to triplet, or None when it does: a
    reasoning-only triplet has no wrong solution to correct, and dop_be
    needs a brief explanation."""
    if mode.task is TaskKind.CORRECTION and triplet.reasoning_only:
        return REASONING_ONLY
    if mode.dop is DopLevel.BE and triplet.brief_explanation is None:
        return NO_EXPLANATION
    return None


REQUIRED_PLACEHOLDERS = {
    "reasoning": frozenset({"question"}),
    "correction_sp": frozenset({"question", "wrong_solution"}),
    "correction_dop_na": frozenset({"question", "wrong_solution", "numeric_answer"}),
    "correction_dop_be": frozenset({"question", "wrong_solution", "brief_explanation"}),
    "correction_dop_sa": frozenset({"question", "wrong_solution", "reference_solution"}),
}

# The Triplet field each placeholder reads.
_PLACEHOLDER_FIELDS = {
    "question": "question",
    "wrong_solution": "wrong_solution",
    "numeric_answer": "reference_numeric",
    "brief_explanation": "brief_explanation",
    "reference_solution": "reference_solution",
}


@functools.cache
def template_inputs(mode: PromptMode) -> Callable[[Triplet], Any]:
    """A function giving a triplet's values for the placeholders mode's
    template requires. Two triplets with equal values get equal prompts
    for mode."""
    names = sorted(REQUIRED_PLACEHOLDERS[mode.template_name])
    return operator.attrgetter(*(_PLACEHOLDER_FIELDS[name] for name in names))


@dataclass(frozen=True)
class GenerationParams:
    """Sampling parameters that shape completion content. Both fields
    take part in the content hash; transport settings do not."""

    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise UsageError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise UsageError(f"max_tokens must be >= 1, got {self.max_tokens}")
        # compute_content_hash's encoded payload head per template id; not
        # a field, so equality, hashing and dump ignore it.
        object.__setattr__(self, "_heads", {})


@dataclass(frozen=True)
class Template:
    name: str
    template_id: str
    text: str


@dataclass(frozen=True)
class RenderedPrompt:
    triplet_id: str
    mode: PromptMode
    template_id: str
    text: str
    content_hash: str

    @functools.cached_property
    def text_json(self) -> str:
        """text as a JSON string, as a record line holds it. render
        fills it in with the encoding it hashes; it is no field, so
        equality and repr ignore it."""
        return json_value(self.text)


def compute_content_hash(
    template_id: str, text: str, params: GenerationParams
) -> str:
    """sha256 of the UTF-8 JSON object {"params", "template_id", "text"}
    with sorted keys. Everything before the text is fixed per template
    and params, so it is encoded once and kept on the params object,
    which also keeps 0 and 0.0 apart: they are equal, but dump apart."""
    return _content_hash(template_id, json_value(text), params)


def _content_hash(template_id: str, text_json: str, params: GenerationParams) -> str:
    """compute_content_hash from the text's JSON encoding."""
    heads = params._heads
    head = heads.get(template_id)
    if head is None:
        head = heads[template_id] = _payload_head(template_id, params)
    return hashlib.sha256(head + (text_json + "}").encode("utf-8")).hexdigest()


def _payload_head(template_id: str, params: GenerationParams) -> bytes:
    head = json.dumps(
        {"params": dump(params), "template_id": template_id},
        sort_keys=True,
        ensure_ascii=False,
    )
    return (head[:-1] + ', "text": ').encode("utf-8")


def _template_id(name: str, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
    return f"{name}@{digest}"


class TemplateRegistry:
    """The five templates in use, defaults or overridden from a directory."""

    def __init__(self, templates: dict[str, Template]) -> None:
        missing = sorted(set(REQUIRED_PLACEHOLDERS) - set(templates))
        if missing:
            raise DataError(f"missing templates: {', '.join(missing)}")
        # Each template split once: literal text at the even indices, the
        # Triplet field each placeholder reads at the odd ones.
        self._parts: dict[str, list[str]] = {}
        for name, template in templates.items():
            if name not in REQUIRED_PLACEHOLDERS:
                raise DataError(
                    f"unknown template {name!r}; known names: "
                    + ", ".join(sorted(REQUIRED_PLACEHOLDERS))
                )
            if template.name != name:
                raise DataError(f"template {template.name!r} is filed as {name!r}")
            parts = PLACEHOLDER.split(template.text)
            found, required = set(parts[1::2]), REQUIRED_PLACEHOLDERS[name]
            if found != required:
                raise DataError(
                    f"template {name!r} must use exactly the "
                    f"placeholders {sorted(required)}, found {sorted(found)}"
                )
            parts[1::2] = [_PLACEHOLDER_FIELDS[placeholder] for placeholder in parts[1::2]]
            self._parts[name] = parts
        self._templates = dict(templates)

    @classmethod
    def load(cls, custom_dir: str | Path | None = None) -> "TemplateRegistry":
        texts: dict[str, str] = {}
        package_dir = resources.files("mwpeval") / "templates"
        for name in REQUIRED_PLACEHOLDERS:
            texts[name] = (package_dir / f"{name}.txt").read_text(encoding="utf-8")
        if custom_dir is not None:
            custom = Path(custom_dir)
            if not custom.is_dir():
                raise UsageError(f"template directory not found: {custom}")
            for path in sorted(custom.glob("*.txt")):
                if path.stem not in REQUIRED_PLACEHOLDERS:
                    warnings.warn(
                        f"ignoring unknown template file {path.name}; known names: "
                        + ", ".join(sorted(REQUIRED_PLACEHOLDERS)),
                        stacklevel=2,
                    )
                    continue
                texts[path.stem] = path.read_text(encoding="utf-8")
        return cls(
            {name: Template(name, _template_id(name, text), text) for name, text in texts.items()}
        )

    def get(self, mode: PromptMode) -> Template:
        return self._templates[mode.template_name]

    def fill(self, mode: PromptMode, triplet: Triplet) -> str:
        """mode's template text with each placeholder replaced by the
        triplet field it reads, in a single pass: a value is never
        searched for placeholders itself."""
        pieces = self._parts[mode.template_name].copy()
        pieces[1::2] = [getattr(triplet, field) for field in pieces[1::2]]
        return "".join(pieces)

    def template_ids(self) -> dict[str, str]:
        return {name: t.template_id for name, t in sorted(self._templates.items())}


def render(
    triplet: Triplet,
    mode: PromptMode,
    params: GenerationParams | None = None,
    registry: TemplateRegistry | None = None,
) -> RenderedPrompt:
    """Fill the template for mode with this triplet's fields, in one
    pass from the triplet, so braces inside triplet text are never
    re-expanded. A template filed under another's key never gets here:
    the registry refuses it when it is built."""
    reason = skip_reason(triplet, mode)
    if reason is not None:
        raise DataError(f"triplet {triplet.id} cannot be prompted as {mode.key}: {reason}")
    params = params or GenerationParams()
    registry = registry or TemplateRegistry.load()
    template = registry.get(mode)
    text = registry.fill(mode, triplet)
    text_json = json_value(text)
    prompt = RenderedPrompt(
        triplet_id=triplet.id,
        mode=mode,
        template_id=template.template_id,
        text=text,
        content_hash=_content_hash(template.template_id, text_json, params),
    )
    prompt.__dict__["text_json"] = text_json  # as the cached property keeps it
    return prompt
