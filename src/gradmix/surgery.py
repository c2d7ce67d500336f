"""Gradient surgery: conflict detection, projection, and the stochastic step.

Two gradients conflict when their cosine similarity is negative; the sign
of the raw dot product is the same test without dividing by norms, so the
decision uses the dot product directly. A zero-norm gradient has dot 0 and
never conflicts, so a projection never divides by zero. When a conflict
fires and the per-step coin lands under alpha, the mixed-batch gradient is
projected onto the normal plane of the sampled language's oracle gradient:

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
pairs in the same order. Each dot is one `dot` call over all the stack's
rows, each row with the bits of a `dot` of two vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpora import Split
from .models import ModelState, loss_and_grad
from .numcore import ContractViolation, ParamVec, RngStreams, cosine_from_dots, dot
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

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "picked_lang": self.picked_lang,
            "p_value": self.p_value,
            "conflicted": self.conflicted,
            "applied": self.applied,
            "cos_before": self.cos_before,
            "cos_after": self.cos_after,
        }


def oracle_gradient(model: ModelState, oracle: Dict[str, Split], lang_id: str) -> ParamVec:
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
    is operated on. Each `dot` is taken for all rows at once: o.o, o.g,
    g.g, and o.g', g'.g' of the projected rows (5, not 9). Cosines are
    `cosine_from_dots` (None for a zero norm, 1.0 for identical bytes).
    Returns G itself if no row is projected, else a new stack with the
    projected rows, and the trace entry of each row.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation(f"alpha must be in [0, 1], got {alpha}")
    oo, og, gg = dot(O, O).tolist(), dot(O, G).tolist(), dot(G, G).tolist()
    rows = [i for i, (_, p) in enumerate(picks) if og[i] < 0.0 and p < alpha]
    G_out, after = G, {}
    if rows:
        every = len(rows) == len(G)  # then no row needs picking out
        On, Gr = (O, G) if every else (O[rows], G[rows])
        # o.g < 0 needs o != 0, so o.o > 0 on every projected row.
        proj = Gr - np.array([og[i] / oo[i] for i in rows])[:, None] * On
        if every:
            G_out = proj
        else:
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
    g_train: ParamVec,
    oracle: Dict[str, Split],
    model: ModelState,
    alpha: float,
    rng: RngStreams,
    step: int = 0,
) -> Tuple[ParamVec, TraceEntry]:
    """One stochastic-surgery decision for the current training step of
    one run: `pick`, the picked language's `oracle_gradient`, then
    `decide`."""
    lang, p = pick(oracle, rng)
    G = g_train.values[None]
    O = oracle_gradient(model, oracle, lang).values[None]
    G_out, [entry] = decide(G, O, [(lang, p)], step, alpha)
    return (g_train if G_out is G else ParamVec._adopt(G_out[0])), entry
