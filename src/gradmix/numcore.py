"""Deterministic flat-vector numerics and seeded RNG substreams.

Everything here is 64-bit float with fixed accumulation order so that two
runs of the same code produce bit-identical results. The training loop and
the trajectory-equivalence tests rely on that.

Two shortcuts keep every bit: `ParamVec._adopt` wraps an array its caller
has just computed (a gradient, a theta, a projection) without the public
constructor's copy but with its checks, and `cosine_from_dots` reuses dots
a caller already holds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Named substreams of a run's RNG. Each is seeded independently from the
# master seed, so consuming one never advances another.
SUBSTREAM_IDS = ("init", "shuffle", "lang_pick", "surgery_p", "shot_sample", "synth_data")


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


def is_int(v) -> bool:
    """Whether a JSON value is an integer (bool is an int in Python, not in JSON)."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True, eq=False)
class ParamVec:
    """Immutable 1-D float64 vector holding model parameters or a gradient."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked(np.array(self.values, dtype=np.float64, copy=True).reshape(-1))
        object.__setattr__(self, "values", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "ParamVec":
        """A ParamVec over `arr` itself, a fresh 1-D float64 array no one
        else holds: the public constructor's checks without its copy."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", _checked(arr))
        return vec

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def tobytes(self) -> bytes:
        return self.values.tobytes()

    def bitwise_equal(self, other: "ParamVec") -> bool:
        return self.dim == other.dim and self.tobytes() == other.tobytes()

    def __repr__(self) -> str:  # keep test failure output short
        head = ", ".join(repr(v) for v in self.values[:4].tolist())
        tail = ", ..." if self.dim > 4 else ""
        return f"ParamVec([{head}{tail}], dim={self.dim})"


def _checked(arr: np.ndarray) -> np.ndarray:
    """`arr`, made read-only, once it is known to be non-empty and finite."""
    if arr.size == 0:
        raise ContractViolation("ParamVec must be non-empty")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ContractViolation(f"non-finite entry at index {bad}")
    arr.setflags(write=False)
    return arr


def _check_dims(a: ParamVec, b: ParamVec) -> None:
    if a.dim != b.dim:
        raise ContractViolation(f"dimension mismatch: {a.dim} != {b.dim}")


def dot(a, b):
    """Inner product with strict sequential left-to-right f64 accumulation:
    of two ParamVecs, as a float, or of each row pair of two (m, P) stacks
    of vectors, as an (m,) array with each row's bits.

    Deliberately not BLAS: the accumulation order is part of the contract,
    which keeps the result independent of library reduction strategies.
    `np.add.accumulate` (what `cumsum` calls, without its dispatch cost)
    adds in exactly that order, unlike the pairwise `sum`. Adding 0.0 turns
    an all-negative-zero sum into +0.0, as a loop whose accumulator starts
    at 0.0 gives.
    """
    if not isinstance(a, ParamVec):
        return np.add.accumulate(a * b, axis=-1)[:, -1] + 0.0
    _check_dims(a, b)
    return float(np.add.accumulate(a.values * b.values)[-1]) + 0.0


def cosine_similarity(a: ParamVec, b: ParamVec) -> Optional[float]:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Returns None ("missing") when either vector has zero norm; callers
    serialize that as an explicit null rather than letting NaN propagate.
    """
    _check_dims(a, b)
    return cosine_from_dots(a, b, dot(a, a), dot(a, b), dot(b, b))


def cosine_from_dots(a: Union[ParamVec, np.ndarray], b: Union[ParamVec, np.ndarray],
                     aa: float, ab: float, bb: float) -> Optional[float]:
    """`cosine_similarity(a, b)` from the dots aa = a.a, ab = a.b and
    bb = b.b, which a caller that needs them anyway computes once. a and b
    are ParamVecs or 1-D arrays (rows of a stack)."""
    na = math.sqrt(aa)
    nb = math.sqrt(bb)
    if na == 0.0 or nb == 0.0:
        return None
    if a.tobytes() == b.tobytes():
        return 1.0  # identical content is exactly parallel; avoid rounding to 1-ulp
    return min(1.0, max(-1.0, ab / (na * nb)))


def _label_spawn_key(label: str) -> tuple[int, ...]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))


class RngStreams:
    """Independent named random substreams derived from one master seed.

    Each named substream is its own PCG64 generator, so drawing from one
    never changes what another will produce. `derived` mints additional
    generators under a substream namespace (per language, per epoch, ...)
    that are a pure function of (master_seed, substream, label); they make
    shot selection and shuffles independent of call order.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ContractViolation("master_seed must be a non-negative integer")
        self.master_seed = int(master_seed)
        for idx, name in enumerate(SUBSTREAM_IDS):
            seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(idx,))
            setattr(self, name, np.random.Generator(np.random.PCG64(seq)))

    # Declarations so attribute access is discoverable; real generators are
    # installed in __init__.
    init: np.random.Generator
    shuffle: np.random.Generator
    lang_pick: np.random.Generator
    surgery_p: np.random.Generator
    shot_sample: np.random.Generator
    synth_data: np.random.Generator

    def derived(self, substream: str, label: str) -> np.random.Generator:
        if substream not in SUBSTREAM_IDS:
            raise ContractViolation(f"unknown substream {substream!r}")
        idx = SUBSTREAM_IDS.index(substream)
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(idx, 1) + _label_spawn_key(label)
        )
        return np.random.Generator(np.random.PCG64(seq))
