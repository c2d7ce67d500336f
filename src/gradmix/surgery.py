"""Gradient surgery: conflict detection, projection, and the stochastic step.

Two gradients conflict when their cosine similarity is negative; the sign
of the raw dot product is the same test without dividing by norms, so the
decision uses the dot product directly. When a conflict fires and the
per-step coin lands under alpha, the mixed-batch gradient is projected
onto the normal plane of the sampled language's oracle gradient:

    g' = g - (g . o / ||o||^2) o

The no-op path returns the input object untouched, which is what makes
alpha=0 runs bitwise identical to plain mixed training.

`decide` is the one decision, for one run (`sgs_step`) or a stack of runs
trained in lockstep (`trainer.train_lockstep`). It computes each distinct
dot once (o.o, o.g, g.g, and on an applied step o.g' and g'.g': 5 dots,
not 9) and gets the bits of `cosine_similarity`, `is_conflicting` and
`project_gradient`, since `dot` is symmetric: a.b and b.a multiply the
same pairs in the same order. Each dot is one `dot` call over all the
stack's rows, each row with the bits of a `dot` of two vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .corpora import OracleBank
from .models import ModelState, loss_and_grad
from .numcore import ContractViolation, ParamVec, RngStreams, cosine_from_dots, dot
from .numcore import cosine_similarity  # noqa: F401  (traced by name in perfbench/tracing.py)


@dataclass(frozen=True)
class SurgeryPolicy:
    """alpha is the probability that a detected conflict is operated on.

    With lazy=True the oracle gradient is not computed on steps whose coin
    already rules surgery out (p >= alpha); trajectories are unchanged but
    those trace rows carry no cosine.
    """

    alpha: float
    lazy: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractViolation(f"alpha must be in [0, 1], got {self.alpha}")


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


def is_conflicting(a: ParamVec, b: ParamVec) -> bool:
    """Strictly negative dot product. Zero-norm inputs give dot == 0 and are
    therefore never conflicting (surgery is skipped for them)."""
    return dot(a, b) < 0.0


def project_gradient(g_s: ParamVec, g_t: ParamVec) -> ParamVec:
    """Remove from g_s its component along g_t (projection onto g_t's
    normal plane). Callers must guard the zero-norm case: the training path
    never reaches it because zero oracle gradients are non-conflicting."""
    tt = dot(g_t, g_t)
    if tt == 0.0:
        raise ContractViolation("cannot project onto the normal plane of a zero vector")
    return ParamVec._adopt(g_s.values - (dot(g_s, g_t) / tt) * g_t.values)


def oracle_gradient(model: ModelState, oracle_bank: OracleBank, lang_id: str) -> ParamVec:
    """Full-batch gradient over one language's oracle examples."""
    return loss_and_grad(model, oracle_bank.batch(lang_id)).grad


def pick(oracle_bank: OracleBank, rng: RngStreams) -> Tuple[str, float]:
    """One step's draws, in their fixed and unconditional order: the
    language from `lang_pick`, then p from `surgery_p`. So runs with
    alpha=0 consume exactly the same stream state as runs that never
    operate on a gradient."""
    langs = oracle_bank.lang_ids
    if not langs:
        raise ContractViolation("oracle bank is empty; need at least one target language")
    return langs[int(rng.lang_pick.integers(len(langs)))], float(rng.surgery_p.random())


def decide(
    G: np.ndarray,
    picks: Sequence[Tuple[str, float]],
    step: int,
    policy: SurgeryPolicy,
    oracle_grads: Callable[[List[int]], np.ndarray],
) -> Tuple[np.ndarray, List[TraceEntry]]:
    """One step's surgery decisions for a stack of runs: row i of G (m, P)
    is run i's mixed-batch gradient, picks[i] its (language, p) draw.

    A row needs its oracle gradient unless the policy is lazy and p >=
    alpha; `oracle_grads(need)` stacks those of the rows `need`. A row
    conflicts when o.g < 0 and is projected onto o's normal plane when p
    is also under alpha. Each `dot` is taken for all rows at once: o.o,
    o.g, g.g, and o.g', g'.g' of the projected rows (5, not 9). Cosines
    are `cosine_from_dots` (None for a zero norm, 1.0 for identical
    bytes). Returns G itself if no row is projected, else a new stack with
    the projected rows, and the trace entry of each row.
    """
    need = [i for i, (_, p) in enumerate(picks) if not (policy.lazy and p >= policy.alpha)]
    G_out, outcome = G, {}
    if need:
        O = oracle_grads(need)
        Gn = G if len(need) == len(G) else G[need]
        oo, og, gg = dot(O, O).tolist(), dot(O, Gn).tolist(), dot(Gn, Gn).tolist()
        rows = [j for j, i in enumerate(need) if og[j] < 0.0 and picks[i][1] < policy.alpha]
        after = {}
        if rows:
            every = len(rows) == len(need)  # then no row needs picking out
            On, Gr = (O, Gn) if every else (O[rows], Gn[rows])
            # o.g < 0 needs o != 0, so o.o > 0 on every projected row.
            proj = Gr - np.array([og[j] / oo[j] for j in rows])[:, None] * On
            if every and len(need) == len(G):
                G_out = proj
            else:
                G_out = G.copy()
                G_out[[need[j] for j in rows]] = proj
            after = dict(zip(rows, zip(proj, dot(On, proj).tolist(), dot(proj, proj).tolist())))
        for j, i in enumerate(need):
            cos_before = cos_after = cosine_from_dots(O[j], Gn[j], oo[j], og[j], gg[j])
            if j in after:
                g_out, og_out, gg_out = after[j]
                cos_after = cosine_from_dots(O[j], g_out, oo[j], og_out, gg_out)
            outcome[i] = (og[j] < 0.0, j in after, cos_before, cos_after)
    return G_out, [TraceEntry(step, lang, p, *outcome.get(i, (False, False, None, None)))
                   for i, (lang, p) in enumerate(picks)]


def sgs_step(
    g_train: ParamVec,
    oracle_bank: OracleBank,
    model: ModelState,
    policy: SurgeryPolicy,
    rng: RngStreams,
    step: int = 0,
) -> Tuple[ParamVec, TraceEntry]:
    """One stochastic-surgery decision for the current training step of
    one run: `pick`, then `decide`."""
    lang, p = pick(oracle_bank, rng)
    G = g_train.values[None]
    G_out, [entry] = decide(G, [(lang, p)], step, policy,
                            lambda need: oracle_gradient(model, oracle_bank, lang).values[None])
    return (g_train if G_out is G else ParamVec._adopt(G_out[0])), entry
