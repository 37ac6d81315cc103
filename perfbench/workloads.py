"""Workload definitions: the job kinds of each workload, made from a seed.

A *kind* is one distinct ``rigidhecke`` CLI argv together with the check its
output must pass.  A *sweep* (or round) is one job of each kind.  The seed
fixes the ``--spec`` rationals, the ``reduce`` words and the order of the
kinds within every round; the program itself only ever sees argv and datum
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("c2aff-verify", "datum-classes")

SUITES = ("relations", "lengths", "classes", "mackey", "adjunction", "twist",
          "pairing", "density", "counts")

# Parameter names of each preset's rigid table (the golden tables' variables).
TABLE_PARAMS = {"c2-aff": ("Q0", "Q1", "Q2")}

# Generator names accepted by ``reduce --word``.
REDUCE_GENERATORS = {"c2-aff": ("s0", "s1", "s2")}
REDUCE_WORD_LENGTH = 6

# Datum files shipped under perfbench/data, and the preset that joins them.
DATUM_FILES = ("sl3", "g2", "pgl3", "sl4", "pgl4")
DATUM_PRESETS = ("c2-ext",)
DATUM_SUITES = ("counts", "lengths", "classes")


@dataclass(frozen=True)
class Kind:
    """One distinct CLI argv and what its output is checked against."""

    name: str
    argv: tuple[str, ...]
    check: str  # golden | spec | verify | classes | reduce
    datum: str  # preset or datum-file name
    extra: dict = field(default_factory=dict, compare=False, hash=False)


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 7))


def _spec_kind(preset: str, rng: random.Random) -> Kind:
    values = {name: _rational(rng) for name in TABLE_PARAMS[preset]}
    spec = ",".join(f"{k}={v}" for k, v in values.items())
    return Kind(
        f"{preset}.table-spec",
        ("table", "--preset", preset, "--format", "json", "--spec", spec),
        "spec", preset, {"values": {k: str(v) for k, v in values.items()}},
    )


def _reduce_kind(preset: str, rng: random.Random) -> Kind:
    word = ",".join(rng.choice(REDUCE_GENERATORS[preset]) for _ in range(REDUCE_WORD_LENGTH))
    return Kind(f"{preset}.reduce", ("reduce", "--preset", preset, "--word", word),
                "reduce", preset)


def _c2aff(rng: random.Random) -> list[Kind]:
    out = [Kind("c2-aff.table-md", ("table", "--preset", "c2-aff", "--format", "md"),
                "golden", "c2-aff", {"format": "md"}),
           _spec_kind("c2-aff", rng), _reduce_kind("c2-aff", rng)]
    for s in SUITES:
        out.append(Kind(f"c2-aff.verify-{s}", ("verify", "--preset", "c2-aff", "--suite", s),
                        "verify", "c2-aff", {"suite": s}))
    return out


def _datum(rng: random.Random) -> list[Kind]:
    out = []
    sources = [(d, ("--datum", f"perfbench/data/{d}.json")) for d in DATUM_FILES]
    sources += [(p, ("--preset", p)) for p in DATUM_PRESETS]
    for name, src in sources:
        out.append(Kind(f"{name}.classes", ("classes",) + src, "classes", name, {"format": "md"}))
        for s in DATUM_SUITES:
            out.append(Kind(f"{name}.verify-{s}", ("verify",) + src + ("--suite", s),
                            "verify", name, {"suite": s}))
    return out


_MAKERS = {"c2aff-verify": _c2aff, "datum-classes": _datum}


def kinds(workload: str, seed: int) -> list[Kind]:
    """The workload's kinds in canonical order; argv depends on ``seed``."""
    if workload not in _MAKERS:
        raise KeyError(f"unknown workload {workload!r}; have {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def round_order(items: list, seed: int, round_no: int) -> list:
    """The order in which round ``round_no`` runs ``items``."""
    out = list(items)
    random.Random(f"order:{seed}:{round_no}").shuffle(out)
    return out


def all_kind_names() -> list[str]:
    """Every kind name of every workload (names do not depend on the seed)."""
    return [k.name for w in WORKLOADS for k in kinds(w, 0)]
