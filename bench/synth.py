"""Seeded synthetic inputs for the benchmark: triplets, stub answers and
the outcomes they must score to.

Everything here is a pure function of the seed. The stub's answer to a
cell is a function of (seed, triplet id, mode), so the benchmark knows in
advance which cells succeed and can check the program's scoring and
reports against that oracle.
"""

from __future__ import annotations

import hashlib
import random

from mwpeval import (
    ALL_DOP_LEVELS,
    CORRECTION_MODES,
    REASONING_MODE,
    CompletionResult,
    Dataset,
    PromptMode,
    QuadrantCounts,
    Triplet,
)

MODES: tuple[PromptMode, ...] = (REASONING_MODE,) + tuple(
    CORRECTION_MODES[level] for level in ALL_DOP_LEVELS
)

# Success probability per mode, roughly the shape of the paper's table:
# solving beats plain correction, and stronger diagnostic resources help.
SUCCESS_RATE = {
    "reasoning|-": 0.75,
    "correction|sp": 0.35,
    "correction|dop_na": 0.60,
    "correction|dop_be": 0.50,
    "correction|dop_sa": 0.65,
}
# Share of failed answers that carry no number at all (scored as
# no-extraction rather than mismatched).
NO_NUMBER_RATE = 0.1

_NAMES = (
    "Ava", "Ben", "Chloe", "Dev", "Elena", "Farid", "Grace", "Hiro", "Ines",
    "Jonas", "Kira", "Liam", "Maya", "Noor", "Omar", "Priya", "Quinn", "Rosa",
    "Sam", "Tariq", "Uma", "Victor", "Wen", "Ximena", "Yusuf", "Zoe",
)
_GOODS = (
    ("boxes", "tools"), ("crates", "jars"), ("bags", "apples"),
    ("shelves", "books"), ("trays", "muffins"), ("packs", "pencils"),
    ("baskets", "eggs"), ("cartons", "bottles"), ("bins", "bolts"),
    ("racks", "shirts"), ("tubs", "marbles"), ("folders", "sheets"),
)
_PLACES = (
    "market", "school fair", "workshop", "library", "bakery", "garden centre",
    "warehouse", "harbour", "museum shop", "community hall",
)
_FILLER = (
    "The {place} was busy all morning.",
    "Everyone at the {place} helped with the count.",
    "It had rained the night before, so the floor was still wet.",
    "A new manager had just started at the {place}.",
    "The delivery van arrived a little late.",
    "Some of the labels were printed in bright colours.",
    "{name} wrote everything down in a small notebook.",
    "Nobody wanted to make a mistake this time.",
)


def _unit(seed: int, *parts: str) -> float:
    """A uniform draw in [0, 1) fixed by the seed and the parts."""
    digest = hashlib.sha256("|".join((str(seed),) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _problem(rng: random.Random) -> tuple[str, str, str, str, int]:
    """(question core, reference solution, its last sentence, wrong
    solution, answer) for one random arithmetic word problem."""
    name = rng.choice(_NAMES)
    container, item = rng.choice(_GOODS)
    kind = rng.randrange(4)
    if kind == 0:
        a, b = rng.randint(3, 99), rng.randint(3, 99)
        answer = a * b
        question = f"{name} packs {a} {container} with {b} {item} in each. How many {item} does {name} pack?"
        last = f"Multiplying gives {a} * {b} = {answer} {item}."
        reference = f"There are {a} {container} holding {b} {item} each. {last}"
        wrong = f"{name} adds the numbers, so {a} + {b} = {a + b} {item}."
    elif kind == 1:
        a, b = rng.randint(10, 999), rng.randint(10, 999)
        answer = a + b
        question = f"{name} has {a} {item} and buys {b} more. How many {item} does {name} have now?"
        last = f"The total is {a} + {b} = {answer} {item}."
        reference = f"{name} starts with {a} {item} and gains {b}. {last}"
        wrong = f"Only the new {item} count, so {name} has {b} {item}."
    elif kind == 2:
        b, answer = rng.randint(10, 500), rng.randint(1, 500)
        a = answer + b
        question = f"{name} had {a} {item} and gave away {b}. How many {item} are left?"
        last = f"Subtracting gives {a} - {b} = {answer} {item}."
        reference = f"{name} gives away {b} of the {a} {item}. {last}"
        wrong = f"Giving away means adding, so {a} + {b} = {a + b} {item}."
    else:
        b, answer = rng.randint(2, 40), rng.randint(2, 60)
        a = answer * b
        question = f"{name} shares {a} {item} equally among {b} {container}. How many {item} go in each?"
        last = f"Each one gets {a} / {b} = {answer} {item}."
        reference = f"Sharing {a} {item} over {b} {container} is an even split. {last}"
        wrong = f"Sharing means multiplying, so {a} * {b} = {a * b} {item}."
    place = rng.choice(_PLACES)
    filler = [
        s.format(place=place, name=name)
        for s in rng.sample(_FILLER, rng.randint(0, 4))
    ]
    core = " ".join([f"At the {place}, {question}"] + filler)
    return core, reference, last, wrong, answer


def make_dataset(seed: int, count: int) -> Dataset:
    """count triplets with pairwise distinct question texts.

    Random draws can repeat a question; a repeat would make two cells
    share a content hash, which the runner rejects. Repeats are redrawn,
    so uniqueness holds for any count the word lists can supply.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    triplets = []
    while len(triplets) < count:
        question, reference, last, wrong, answer = _problem(rng)
        if question in seen:
            continue
        seen.add(question)
        triplets.append(
            Triplet(
                id=f"b{len(triplets):05d}",
                question=question,
                reference_solution=reference,
                reference_numeric=str(answer),
                brief_explanation=last,
                wrong_solution=wrong,
                source="bench",
                meta={},
            )
        )
    return Dataset(triplets, source=f"bench-seed-{seed}", created_at="2000-01-01T00:00:00Z")


def expected_reason(seed: int, triplet_id: str, mode_key: str) -> str:
    """The oracle: how the stub's answer to this cell must score
    ("matched", "mismatched" or "no-extraction")."""
    if _unit(seed, triplet_id, mode_key) < SUCCESS_RATE[mode_key]:
        return "matched"
    if _unit(seed, triplet_id, mode_key, "no-number") < NO_NUMBER_RATE:
        return "no-extraction"
    return "mismatched"


def answer_text(seed: int, triplet: Triplet, mode_key: str) -> str:
    """The stub model's reply to one cell."""
    reason = expected_reason(seed, triplet.id, mode_key)
    if reason == "no-extraction":
        return "I went through the problem twice but could not settle on a value."
    value = int(triplet.reference_numeric)
    if reason == "mismatched":
        value += 1 + int(_unit(seed, triplet.id, mode_key, "off") * 9)
    return (
        "Let me work through the problem one quantity at a time and check "
        f"each step against the question.\nFinal answer: {value}"
    )


def answers(seed: int, dataset: Dataset) -> dict[tuple[str, str], str]:
    """Stub reply for every (triplet id, mode key) cell of the dataset."""
    return {
        (t.id, mode.key): answer_text(seed, t, mode.key)
        for t in dataset
        for mode in MODES
    }


def expected_quadrants(seed: int, dataset: Dataset) -> dict[str, QuadrantCounts]:
    """Quadrant counts per correction mode that the report must show."""
    result = {}
    for level in ALL_DOP_LEVELS:
        key = CORRECTION_MODES[level].key
        tally = {(r, c): 0 for r in (True, False) for c in (True, False)}
        for t in dataset:
            solved = expected_reason(seed, t.id, REASONING_MODE.key) == "matched"
            corrected = expected_reason(seed, t.id, key) == "matched"
            tally[(solved, corrected)] += 1
        result[level.value] = QuadrantCounts(
            tally[(True, True)], tally[(True, False)], tally[(False, True)], tally[(False, False)]
        )
    return result


class StubBackend:
    """Zero-latency in-process model: one dictionary lookup per cell."""

    def __init__(self, replies: dict[tuple[str, str], str]) -> None:
        self._replies = replies

    def complete(self, prompt) -> CompletionResult:
        return CompletionResult(
            text=self._replies[(prompt.triplet_id, prompt.mode.key)],
            latency_ms=0.0,
            attempts=1,
        )
