"""Prompt construction for the two tasks and the four correction modes.

Templates are versioned data files with double-brace placeholders. The
reasoning task fills {{question}} only. Correction prompts always carry
the wrong solution; the three diagnostic modes add one resource each,
in increasing strength: the numeric answer, a brief explanation, or the
full reference solution. The plain correction mode (sp) adds nothing.

Every rendered prompt gets a content hash over (template_id, prompt
text, sampling params). The hash is the cache identity of the cell, so
editing a template or changing sampling forces fresh completions while
a resumed identical run replays from disk.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from ._schema import dump
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


ALL_DOP_LEVELS = (DopLevel.SP, DopLevel.NA, DopLevel.BE, DopLevel.SA)


@dataclass(frozen=True)
class PromptMode:
    """A task plus, for correction, the diagnostic level."""

    task: TaskKind
    dop: DopLevel | None = None

    def __post_init__(self) -> None:
        if self.task is TaskKind.REASONING and self.dop is not None:
            raise UsageError("the reasoning task takes no correction mode")
        if self.task is TaskKind.CORRECTION and self.dop is None:
            raise UsageError(
                "the correction task needs a mode: sp, dop_na, dop_be or dop_sa"
            )

    @property
    def template_name(self) -> str:
        if self.task is TaskKind.REASONING:
            return "reasoning"
        assert self.dop is not None
        return f"correction_{self.dop.value}"

    @property
    def key(self) -> str:
        """Stable textual form, e.g. "reasoning|-" or "correction|dop_na"."""
        return f"{self.task.value}|{self.dop.value if self.dop else '-'}"


REASONING_MODE = PromptMode(TaskKind.REASONING)
CORRECTION_MODES = {level: PromptMode(TaskKind.CORRECTION, level) for level in ALL_DOP_LEVELS}

REQUIRED_PLACEHOLDERS = {
    "reasoning": frozenset({"question"}),
    "correction_sp": frozenset({"question", "wrong_solution"}),
    "correction_dop_na": frozenset({"question", "wrong_solution", "numeric_answer"}),
    "correction_dop_be": frozenset({"question", "wrong_solution", "brief_explanation"}),
    "correction_dop_sa": frozenset({"question", "wrong_solution", "reference_solution"}),
}


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

    def to_dict(self) -> dict[str, float | int]:
        return dump(self)


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


def compute_content_hash(
    template_id: str, text: str, params: GenerationParams
) -> str:
    payload = json.dumps(
        {"template_id": template_id, "text": text, "params": params.to_dict()},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _template_id(name: str, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
    return f"{name}@{digest}"


class TemplateRegistry:
    """The five templates in use, defaults or overridden from a directory."""

    def __init__(self, templates: dict[str, Template]) -> None:
        missing = sorted(set(REQUIRED_PLACEHOLDERS) - set(templates))
        if missing:
            raise DataError(f"missing templates: {', '.join(missing)}")
        for template in templates.values():
            found = set(PLACEHOLDER.findall(template.text))
            required = REQUIRED_PLACEHOLDERS[template.name]
            if found != required:
                raise DataError(
                    f"template {template.name!r} must use exactly the "
                    f"placeholders {sorted(required)}, found {sorted(found)}"
                )
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
            {
                name: Template(name, _template_id(name, text), text)
                for name, text in texts.items()
            }
        )

    def get(self, mode: PromptMode) -> Template:
        return self._templates[mode.template_name]

    def template_ids(self) -> dict[str, str]:
        return {name: t.template_id for name, t in sorted(self._templates.items())}


def _substitution_values(triplet: Triplet, mode: PromptMode) -> dict[str, str]:
    """The values of the placeholders mode's template requires;
    REQUIRED_PLACEHOLDERS states which resource each level adds."""
    if mode.task is TaskKind.CORRECTION and triplet.reasoning_only:
        raise DataError(
            f"triplet {triplet.id} is reasoning-only and has no wrong "
            "solution to correct"
        )
    if mode.dop is DopLevel.BE and triplet.brief_explanation is None:
        raise DataError(
            f"triplet {triplet.id} has no brief explanation; it cannot "
            "be prompted at the dop_be level"
        )
    resources = {
        "question": triplet.question,
        "wrong_solution": triplet.wrong_solution,
        "numeric_answer": triplet.reference_numeric,
        "brief_explanation": triplet.brief_explanation,
        "reference_solution": triplet.reference_solution,
    }
    return {name: resources[name] for name in REQUIRED_PLACEHOLDERS[mode.template_name]}


def render(
    triplet: Triplet,
    mode: PromptMode,
    params: GenerationParams | None = None,
    registry: TemplateRegistry | None = None,
) -> RenderedPrompt:
    """Fill the template for mode with this triplet's fields.

    Substitution is a single pass, so braces inside triplet text are
    never re-expanded. Every substituted value appears verbatim in the
    output; a final defensive check enforces that.
    """
    params = params or GenerationParams()
    registry = registry or TemplateRegistry.load()
    template = registry.get(mode)
    values = _substitution_values(triplet, mode)
    text = PLACEHOLDER.sub(lambda m: values[m.group(1)], template.text)
    for name, value in values.items():
        if value not in text:
            raise DataError(
                f"template {template.name!r} dropped the {name} value for "
                f"triplet {triplet.id}"
            )
    return RenderedPrompt(
        triplet_id=triplet.id,
        mode=mode,
        template_id=template.template_id,
        text=text,
        content_hash=compute_content_hash(template.template_id, text, params),
    )
