"""Gradient surgery: conflict detection, projection, and the stochastic step.

Two gradients conflict when their cosine similarity is negative; the sign
of the raw dot product is the same test without dividing by norms, so the
decision uses the dot product directly. When a conflict fires and the
per-step coin lands under alpha, the mixed-batch gradient is projected
onto the normal plane of the sampled language's oracle gradient:

    g' = g - (g . o / ||o||^2) o

The no-op path returns the input object untouched, which is what makes
alpha=0 runs bitwise identical to plain mixed training.

`sgs_step` computes each distinct dot once (o.o, o.g, g.g, and on an
applied step o.g' and g'.g': 5 dots, not 9) and gets the bits of
`cosine_similarity`, `is_conflicting` and `project_gradient`, since `dot`
is symmetric: a.b and b.a multiply the same pairs in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


@dataclass(frozen=True)
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
    return _project(g_s, g_t, dot(g_s, g_t), dot(g_t, g_t))


def _project(g_s: ParamVec, g_t: ParamVec, st: float, tt: float) -> ParamVec:
    """`project_gradient` given st = g_s.g_t and tt = g_t.g_t."""
    if tt == 0.0:
        raise ContractViolation("cannot project onto the normal plane of a zero vector")
    return ParamVec._adopt(g_s.values - (st / tt) * g_t.values)


def oracle_gradient(model: ModelState, oracle_bank: OracleBank, lang_id: str) -> ParamVec:
    """Full-batch gradient over one language's oracle examples."""
    return loss_and_grad(model, oracle_bank.batch(lang_id)).grad


def sgs_step(
    g_train: ParamVec,
    oracle_bank: OracleBank,
    model: ModelState,
    policy: SurgeryPolicy,
    rng: RngStreams,
    step: int = 0,
) -> Tuple[ParamVec, TraceEntry]:
    """One stochastic-surgery decision for the current training step.

    Draw order is fixed and unconditional — language from `lang_pick`, then
    p from `surgery_p` — so runs with alpha=0 consume exactly the same
    stream state as runs that never call this function consume from theirs.
    """
    langs = oracle_bank.lang_ids
    if not langs:
        raise ContractViolation("oracle bank is empty; need at least one target language")
    lang = langs[int(rng.lang_pick.integers(len(langs)))]
    p = float(rng.surgery_p.random())

    g_out, conflicted, applied, cos_before, cos_after = g_train, False, False, None, None
    if not (policy.lazy and p >= policy.alpha):
        g_oracle = oracle_gradient(model, oracle_bank, lang)
        oo = dot(g_oracle, g_oracle)
        og = dot(g_oracle, g_train)
        cos_before = cos_after = cosine_from_dots(
            g_oracle, g_train, oo, og, dot(g_train, g_train))
        conflicted = og < 0.0  # is_conflicting(g_oracle, g_train)
        applied = conflicted and p < policy.alpha
        if applied:
            g_out = _project(g_train, g_oracle, og, oo)
            cos_after = cosine_from_dots(
                g_oracle, g_out, oo, dot(g_oracle, g_out), dot(g_out, g_out))
    return g_out, TraceEntry(
        step=step, picked_lang=lang, p_value=p, conflicted=conflicted,
        applied=applied, cos_before=cos_before, cos_after=cos_after,
    )
