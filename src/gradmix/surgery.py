"""Gradient surgery: conflict detection, projection, and the stochastic step.

Two gradients conflict when their cosine similarity is negative; the sign
of the raw dot product is the same test without dividing by norms, so the
decision uses the dot product directly. A zero-norm gradient has dot 0 and
never conflicts, and a conflict is never projected onto an o whose
||o||^2 underflows to 0, so a projection never divides by zero. When a
conflict fires and the per-step coin lands under alpha, the mixed-batch
gradient is projected onto the normal plane of the sampled language's
oracle gradient:

    g' = g - (g . o / ||o||^2) o

The no-op path returns the input object untouched, which is what makes
alpha=0 runs bitwise identical to plain mixed training.

`decide` is the one decision, for one run (`sgs_step`) or a stack of runs
trained in lockstep (`trainer.train_lockstep`). It takes every run's oracle
gradient, whatever its coin, so every trace row carries the measured
conflict and cosines. It computes each distinct dot once (o.o, o.g, g.g,
and on an applied step o.g' and g'.g': 5 dots, not 9) and gets the bits of
a step that takes every cosine with `cosine_similarity` and projects with
two more dots, since `dot` is symmetric: a.b and b.a multiply the same
pairs in the same order. A gradient is a (P,) array and a stack of runs'
gradients an (m, P) one; each dot is one `dot` call over all the stack's
rows, each row with the bits of a `dot` of two vectors. There is one
projection path, however many rows a step projects: gather those rows,
project them, and scatter them into a copy of the stack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .corpora import Split
from .models import ModelState, loss_and_grad
from .numcore import ContractViolation, RngStreams, cosine_from_dots, dot, frozen
from .numcore import cosine_similarity  # noqa: F401  (traced by name in perfbench/tracing.py)


@dataclass(frozen=True, slots=True)  # one per step of every surgery run: keep it small
class TraceEntry:
    step: int
    picked_lang: str
    p_value: float
    conflicted: bool
    applied: bool
    cos_before: Optional[float]
    cos_after: Optional[float]

    def __post_init__(self) -> None:
        if self.applied and not self.conflicted:
            raise ContractViolation("applied surgery without a conflict")


# A trace's first line: the names of its columns, `TraceEntry`'s fields in order.
TRACE_HEADER = (json.dumps([f.name for f in fields(TraceEntry)], separators=(",", ":"))
                + "\n").encode("ascii")


def _json_number(x: Optional[float]) -> str:
    """`json.dumps` of a float or None."""
    if x is None:
        return "null"
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def trace_lines(entries: Iterable[TraceEntry]) -> Iterator[bytes]:
    """The lines of a surgery trace: `TRACE_HEADER`, then each entry as one
    compact JSON array of its fields in header order, the bytes of
    `json.dumps(row, separators=(",", ":")) + "\\n"` built from a template:
    each language id is encoded once, floats by `repr`, the literals as they
    are."""
    yield TRACE_HEADER
    langs: Dict[str, str] = {}
    for e in entries:
        lang = langs.get(e.picked_lang)
        if lang is None:
            lang = langs[e.picked_lang] = json.dumps(e.picked_lang)
        yield (f'[{e.step},{lang},{_json_number(e.p_value)},'
               f'{"true" if e.conflicted else "false"},{"true" if e.applied else "false"},'
               f'{_json_number(e.cos_before)},{_json_number(e.cos_after)}]\n').encode("ascii")


def oracle_gradient(model: ModelState, oracle: Dict[str, Split], lang_id: str) -> np.ndarray:
    """Full-batch gradient over one language's oracle examples."""
    return loss_and_grad(model, oracle[lang_id]).grad


def pick(oracle: Dict[str, Split], rng: RngStreams) -> Tuple[str, float]:
    """One step's draws, in their fixed and unconditional order: the
    language from `lang_pick`, then p from `surgery_p`. So runs with
    alpha=0 consume exactly the same stream state as runs that never
    operate on a gradient."""
    langs = list(oracle)
    if not langs:
        raise ContractViolation("oracle bank is empty; need at least one target language")
    return langs[int(rng.lang_pick.integers(len(langs)))], float(rng.surgery_p.random())


def decide(
    G: np.ndarray,
    O: np.ndarray,
    picks: Sequence[Tuple[str, float]],
    step: int,
    alpha: float,
) -> Tuple[np.ndarray, List[TraceEntry]]:
    """One step's surgery decisions for a stack of runs: row i of G (m, P)
    is run i's mixed-batch gradient, row i of O its oracle gradient on the
    language of picks[i], its (language, p) draw.

    A row conflicts when o.g < 0 and is projected onto o's normal plane
    when p is also under alpha, the probability that a detected conflict
    is operated on, and o.o > 0 (a nonzero o whose o.o underflows to 0
    has no plane to project onto). Each `dot` is taken for all rows at
    once: o.o, o.g, g.g, and o.g', g'.g' of the projected rows (5, not 9).
    Cosines are `cosine_from_dots` (None for a zero norm, 1.0 for identical
    bytes). Returns G itself if no row is projected, else a copy of G with the
    projected rows in place, and the trace entry of each row.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation(f"alpha must be in [0, 1], got {alpha}")
    oo, og, gg = dot(O, O).tolist(), dot(O, G).tolist(), dot(G, G).tolist()
    rows = [i for i, (_, p) in enumerate(picks) if og[i] < 0.0 < oo[i] and p < alpha]
    G_out, after = G, {}
    if rows:
        On = O[rows]
        proj = G[rows] - np.array([og[i] / oo[i] for i in rows])[:, None] * On
        G_out = G.copy()
        G_out[rows] = proj
        after = dict(zip(rows, zip(proj, dot(On, proj).tolist(), dot(proj, proj).tolist())))
    entries = []
    for i, (lang, p) in enumerate(picks):
        cos_before = cos_after = cosine_from_dots(O[i], G[i], oo[i], og[i], gg[i])
        if i in after:
            g_out, og_out, gg_out = after[i]
            cos_after = cosine_from_dots(O[i], g_out, oo[i], og_out, gg_out)
        entries.append(TraceEntry(step, lang, p, og[i] < 0.0, i in after, cos_before, cos_after))
    return G_out, entries


def sgs_step(
    g_train: np.ndarray,
    oracle: Dict[str, Split],
    model: ModelState,
    alpha: float,
    rng: RngStreams,
    step: int = 0,
) -> Tuple[np.ndarray, TraceEntry]:
    """One stochastic-surgery decision for the current training step of
    one run: `pick`, the picked language's `oracle_gradient`, then
    `decide`."""
    lang, p = pick(oracle, rng)
    G = g_train[None]
    G_out, [entry] = decide(G, oracle_gradient(model, oracle, lang)[None], [(lang, p)], step, alpha)
    return (g_train if G_out is G else frozen(G_out[0])), entry
