"""Deterministic flat-vector numerics and seeded RNG substreams.

Everything here is 64-bit float with fixed accumulation order so that two
runs of the same code produce bit-identical results. The training loop and
the trajectory-equivalence tests rely on that.

A parameter vector or a gradient is a (P,) float64 array and a chain of
states an (E+1, P) one, each checked by `frozen` (non-empty, finite) and
made read-only in place, without a copy. `dot` takes two vectors or two
stacks of them; `cosine_from_dots` reuses dots a caller already holds.

`read_object` reads a JSON object against its key table, which states
each key's kind (JSON kind, range or allowed values) and default; config
documents, synthetic profiles, `TrainPlan` and `ModelSpec` are all read
this way, and every refusal names the dotted path.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Tuple

import numpy as np

# Named substreams of a run's RNG. Each is seeded independently from the
# master seed, so consuming one never advances another.
SUBSTREAM_IDS = ("init", "shuffle", "lang_pick", "surgery_p", "shot_sample", "synth_data")


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


def is_int(v) -> bool:
    """Whether a JSON value is an integer (bool is an int in Python, not in JSON)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """Whether a JSON value is a number: an integer or a finite float, not a
    bool (Python's `json` also reads NaN and Infinity, which JSON has not)."""
    return is_int(v) or isinstance(v, float) and math.isfinite(v)


# The kinds a key table may ask of a value, by the words a refusal uses.
KINDS = {
    "an integer": is_int,
    **{f"an integer >= {least}": lambda v, least=least: is_int(v) and v >= least
       for least in (0, 1, 2)},
    "an integer >= 1 or null": lambda v: v is None or is_int(v) and v >= 1,
    "a number": is_number,
    "a number in [0, 1]": lambda v: is_number(v) and 0 <= v <= 1,
    "a finite number >= 0": lambda v: is_number(v) and 0 <= v < math.inf,
    "a string": lambda v: isinstance(v, str),
    "a JSON object": lambda v: isinstance(v, dict),
    "a JSON list": lambda v: isinstance(v, list),
    "a non-empty JSON list": lambda v: isinstance(v, list) and len(v) > 0,
    "a non-empty list of integers": lambda v: isinstance(v, list) and v and all(map(is_int, v)),
    "a non-empty list of strings": lambda v: (isinstance(v, list) and v
                                              and all(isinstance(s, str) for s in v)),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(is_number, v)),
}
REQUIRED = object()  # the default of a key that must be given


def check(value, kind, path: str) -> None:
    """Refuse `value`, by its dotted `path`, unless it is of `kind`: a key
    of `KINDS`, or a tuple of the values allowed."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ContractViolation(f"{path}: {value!r} is not one of {', '.join(kind)}")
    elif not KINDS[kind](value):
        raise ContractViolation(f"{path}: {value!r} is not {kind}")


def read_object(value, path: str, table: Dict[str, Tuple[object, object]]) -> dict:
    """Every key of `table`, in its order, with its value in the JSON object
    `value` or its default. `table` gives each key the object may hold its
    kind (see `check`) and its default, or `REQUIRED`. A non-object, the
    unknown keys, a missing required key and a given value not of its kind
    are refused by their dotted path below `path` ("" is a config document,
    called "config" where no key is named)."""
    where = path + "." if path else ""
    if not isinstance(value, dict):
        raise ContractViolation(f"{path or 'config'}: {value!r} is not a JSON object")
    unknown = [where + key for key in value if key not in table]
    if unknown:
        raise ContractViolation(f"unknown key(s): {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        if key in value:
            check(value[key], kind, where + key)
        elif default is REQUIRED:
            raise ContractViolation(f"{path or 'config'}: no {key!r} key")
        out[key] = value.get(key, default)
    return out


def frozen(arr) -> np.ndarray:
    """`arr` as float64 (no copy if it is), made read-only once known non-empty
    and finite: the one check of parameter vectors, gradients and chains."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        raise ContractViolation("an empty array of parameters")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0].tolist()  # one index per axis
        raise ContractViolation(f"non-finite entry at index {', '.join(map(str, bad))}")
    arr.setflags(write=False)
    return arr


def dot(a: np.ndarray, b: np.ndarray):
    """Inner product with strict sequential left-to-right f64 accumulation:
    of two (P,) vectors, as a float, or of each row pair of two (m, P)
    stacks of vectors, as an (m,) array with each row's bits.

    Deliberately not BLAS: the accumulation order is part of the contract,
    which keeps the result independent of library reduction strategies.
    `np.add.accumulate` (what `cumsum` calls, without its dispatch cost)
    adds in exactly that order, unlike the pairwise `sum`. Adding 0.0 turns
    an all-negative-zero sum into +0.0, as a loop whose accumulator starts
    at 0.0 gives.
    """
    if a.shape != b.shape:
        raise ContractViolation(f"dimension mismatch: {a.shape} != {b.shape}")
    d = np.add.accumulate(a * b, axis=-1)[..., -1] + 0.0
    return d if d.ndim else float(d)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> Optional[float]:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Returns None ("missing") when either vector has zero norm; callers
    serialize that as an explicit null rather than letting NaN propagate.
    """
    return cosine_from_dots(a, b, dot(a, a), dot(a, b), dot(b, b))


def cosine_from_dots(a: np.ndarray, b: np.ndarray,
                     aa: float, ab: float, bb: float) -> Optional[float]:
    """`cosine_similarity(a, b)` from the dots aa = a.a, ab = a.b and
    bb = b.b, which a caller that needs them anyway computes once."""
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
