"""Synthetic multi-language corpora, TSV ingestion, and shot sampling.

A "language" here is a labeled distribution over a shared feature space.
Synthetic languages are class-conditional Gaussians whose class means are a
rotated and translated copy of the source means: languages sharing a script
tag share the rotation and differ only by translation, and distance from
the source is the rotation angle. That gives a controllable desk-scale
analog of cross-language distribution shift. A synthetic profile is a JSON
object in the form of the manifest it generates: `gen_synthetic_family`
reads it once, against its key tables, and builds the manifest and the
corpora from what it read.

Array layout. This module owns the one format examples take everywhere:
a `Split` of read-only arrays. For classification it is `X` (n, D)
float64 and `y` (n,) int64, one row per example. For token tagging it is
the flat tokens of all sequences, `X` (T, D) and `y` (T,), plus `offsets`
(n+1,): sequence i is rows offsets[i]:offsets[i+1]. `len()` counts
examples, not tokens. Corpus splits, the training pool
(`build_mixed_dataset`) and the oracle batches (`build_oracle_bank`) are
Splits. A training batch is the pool rows of one sorted chunk of keys
(`epoch_order`, `batch_iter`), so its loss does not depend on the order its
examples were drawn in. Data from outside the program is checked once, as
whole arrays, where it enters: `Split` construction checks an array's
shape and `ingest_tsv` a file's rows. A corpus carries only examples; the
model's layout, width and class count belong to `trainer.Task`, which
checks every split against them when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .numcore import REQUIRED, ContractViolation, RngStreams, read_object

TASKS = ("classification", "token_tags")
ROLES = ("source", "target")
SPLITS = ("train", "dev", "test")
OUTSIDE_LABEL = 0  # token_tags: the tag that micro-F1 leaves out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Split:
    """One split's examples as read-only arrays (layout in the module
    docstring). Construction copies and checks the arrays."""

    X: np.ndarray
    y: np.ndarray
    offsets: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise ContractViolation(f"features must be a 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ContractViolation(f"{X.shape[0]} feature rows vs labels of shape {y.shape}")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))
        if self.offsets is not None:
            off = np.array(self.offsets, dtype=np.int64)
            if (off.ndim != 1 or off.size == 0 or off[0] != 0 or off[-1] != X.shape[0]
                    or np.any(np.diff(off) < 0)):
                raise ContractViolation(
                    f"sequence offsets must rise from 0 to {X.shape[0]} tokens"
                )
            object.__setattr__(self, "offsets", _frozen(off))

    def __len__(self) -> int:
        return len(self.y) if self.offsets is None else len(self.offsets) - 1

    def _rows(self, idx: np.ndarray):
        """X, y and offsets of the examples at `idx`, in that order."""
        if self.offsets is None:
            return self.X[idx], self.y[idx], None
        starts = self.offsets[idx]
        lens = self.offsets[idx + 1] - starts
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        rows = np.repeat(starts - offsets[:-1], lens) + np.arange(offsets[-1])
        return self.X[rows], self.y[rows], offsets

    def take(self, idx: Sequence[int]) -> "Split":
        """The examples at `idx`, in that order."""
        return Split(*self._rows(np.asarray(idx, dtype=np.int64)))

    @property
    def xs(self) -> List[np.ndarray]:
        # Token matrix of each sequence (tagger splits); perfbench/tracing.py counts tokens here.
        return np.split(self.X, self.offsets[1:-1])

    @staticmethod
    def concat(parts: Sequence["Split"]) -> "Split":
        """The examples of every part, in order."""
        # Empty parts are skipped: an empty TSV file gives features of width 0.
        parts = [p for p in parts if len(p)] or list(parts[:1])
        if len(parts) == 1:
            return parts[0]
        if len({p.offsets is None for p in parts}) > 1:
            raise ContractViolation("cannot pool classification and token_tags examples")
        X = np.concatenate([p.X for p in parts])
        y = np.concatenate([p.y for p in parts])
        if parts[0].offsets is None:
            return Split(X, y)
        starts = np.cumsum([0] + [len(p.y) for p in parts[:-1]])
        offsets = np.concatenate([[0]] + [p.offsets[1:] + s for p, s in zip(parts, starts)])
        return Split(X, y, offsets)


@dataclass(frozen=True)
class LanguageCorpus:
    """One language's examples by split; a missing split is an empty one."""

    lang_id: str
    script_tag: str
    role: str
    train: Optional[Split] = None
    dev: Optional[Split] = None
    test: Optional[Split] = None

    def __post_init__(self) -> None:
        for name in SPLITS:
            if getattr(self, name) is None:
                object.__setattr__(self, name, Split(np.empty((0, 0)), np.empty(0)))

    def split(self, name: str) -> Split:
        if name not in SPLITS:
            raise ContractViolation(f"unknown split {name!r}")
        return getattr(self, name)


# --- shot sampling ----------------------------------------------------------

SHOT_MODES = ("k_shot", "n_way_k_shot")
Shots = Dict[str, Tuple[int, ...]]  # a shot bank: each target's train indices, in target order


def sample_k_shots(corpus: LanguageCorpus, k: int, rng: RngStreams) -> Tuple[int, ...]:
    """k distinct train indices, deterministic per (master seed, lang_id)."""
    n = len(corpus.train)
    if k < 1:
        raise ContractViolation("k must be positive")
    if k > n:
        raise ContractViolation(f"k={k} exceeds train size {n} for {corpus.lang_id}")
    gen = rng.derived("shot_sample", corpus.lang_id)
    picked = gen.choice(n, size=k, replace=False)
    return tuple(int(i) for i in picked)


def sample_n_way_k_shot(corpus: LanguageCorpus, k: int, num_classes: int,
                        rng: RngStreams) -> Tuple[int, ...]:
    """k train indices per class (N*k total), deterministic per (seed, lang_id)."""
    if corpus.train.offsets is not None:
        raise ContractViolation("n-way k-shot sampling applies to classification tasks")
    if k < 1:
        raise ContractViolation("k must be positive")
    by_class: List[List[int]] = [[] for _ in range(num_classes)]
    for i, y in enumerate(corpus.train.y.tolist()):
        by_class[y].append(i)
    gen = rng.derived("shot_sample", corpus.lang_id)
    picked: List[int] = []
    for c, pool in enumerate(by_class):
        if len(pool) < k:
            raise ContractViolation(f"{corpus.lang_id}: class {c}: {len(pool)} < {k}")
        sel = gen.choice(len(pool), size=k, replace=False)
        picked.extend(pool[int(j)] for j in sel)
    return tuple(picked)


def build_shot_bank(targets: Sequence[LanguageCorpus], k: int, mode: str, num_classes: int,
                    rng: RngStreams) -> Shots:
    """Each target's shots: k of its train examples (`k_shot`) or k of each
    of the model's `num_classes` classes (`n_way_k_shot`). One seed's bank
    feeds every strategy."""
    if mode not in SHOT_MODES:
        raise ContractViolation(f"unknown shot mode {mode!r}")
    if mode == "k_shot":
        return {c.lang_id: sample_k_shots(c, k, rng) for c in targets}
    return {c.lang_id: sample_n_way_k_shot(c, k, num_classes, rng) for c in targets}


def build_oracle_bank(shots: Shots, targets: Sequence[LanguageCorpus]) -> Dict[str, Split]:
    """Each language's oracle batch, by language in shot bank order: exactly
    its shot examples, in train index order, nothing external. Surgery takes
    the gradient of the picked language's batch."""
    by_id = {c.lang_id: c for c in targets}
    return {lang: by_id[lang].train.take(sorted(idx)) for lang, idx in shots.items()}


# --- the training pool & batching ---------------------------------------------


def build_mixed_dataset(
    source: Optional[LanguageCorpus],
    targets: Sequence[LanguageCorpus],
    shots: Optional[Shots],
) -> Split:
    """The training pool: the full source train split followed by every
    target's shots, in shot bank order. An example's position in the pool is
    its key (see `epoch_order`). With zero targets this degenerates to the
    source-only pool; with no source it is the pool of shots alone."""
    parts: List[Split] = [] if source is None else [source.train]
    if targets and shots is not None:
        by_id = {c.lang_id: c for c in targets}
        parts += [by_id[lang].train.take(idx) for lang, idx in shots.items() if lang in by_id]
    if not sum(map(len, parts)):
        raise ContractViolation("mixed dataset pool is empty")
    return Split.concat(parts)


def epoch_order(n: int, size: int, epoch: int, rng: RngStreams, scope: str = "pool") -> np.ndarray:
    """The pool keys 0..n-1 in one epoch's order: a fresh uniform shuffle,
    then each consecutive chunk of `size` keys (one batch; the last may be
    short) sorted.

    The permutation comes from a generator derived from (seed, shuffle,
    scope, epoch), so the order for a given epoch does not depend on how
    many other scopes or epochs have been drawn.
    """
    if size < 1:
        raise ContractViolation("batch_size must be >= 1")
    keys = rng.derived("shuffle", f"{scope}:{epoch}").permutation(n)
    full = n - n % size
    keys[:full].reshape(-1, size).sort(axis=1)
    keys[full:].sort()
    return keys


def batch_iter(pool: Split, batch_size: int, epoch: int, rng: RngStreams,
               scope: str = "pool") -> List[Tuple[np.ndarray, np.ndarray]]:
    """One epoch's batches as read-only (X, y) rows, in `epoch_order`: the
    rows of all of them gathered in one pass and cut at the batch bounds
    (tagger: at the bounds of each batch's sequences). The short final batch
    is kept; dropping it would lose shots from tiny pools."""
    keys = epoch_order(len(pool), batch_size, epoch, rng, scope)
    X, y, offsets = pool._rows(keys)
    cuts = list(range(0, len(keys), batch_size)) + [len(keys)]
    if offsets is not None:
        cuts = offsets[cuts].tolist()
    X, y = _frozen(X), _frozen(y)
    return [(X[a:b], y[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


# --- synthetic generation ----------------------------------------------------

# A synthetic profile's `read_object` tables: the keys of the manifest that
# `gen_synthetic_family` writes, of which those derived from the rest are not read.
PROFILE_KEYS = {"languages": ("a non-empty JSON list", REQUIRED),
                "num_classes": ("an integer >= 2", REQUIRED),
                "input_dim": ("an integer >= 2", REQUIRED),  # the rotation plane
                "mean_radius": ("a number", REQUIRED), "noise_sd": ("a number", REQUIRED),
                "seed": ("an integer >= 0", REQUIRED), "kind": ("a string", None),
                "n_langs": ("an integer", None)}
PROFILE_LANGUAGE_KEYS = {
    "lang_id": ("a string", REQUIRED), "script_tag": ("a string", REQUIRED),
    "role": (ROLES, REQUIRED), "angle_deg": ("a number", REQUIRED),
    "translation": ("a list of numbers", REQUIRED), "sizes": ("a JSON object", REQUIRED),
    "class_means": ("a non-empty JSON list", None)}
SIZES_KEYS = dict.fromkeys(SPLITS, ("an integer >= 0", REQUIRED))


def _class_means(num_classes: int, input_dim: int, mean_radius: float, angle_deg: float,
                 translation: Sequence[float]) -> np.ndarray:
    """Source means sit on a circle in the first two feature dims; each
    language rotates them by its angle and adds its translation."""
    base = np.zeros((num_classes, input_dim))
    for c in range(num_classes):
        phi = 2.0 * math.pi * c / num_classes
        base[c, 0] = mean_radius * math.cos(phi)
        base[c, 1] = mean_radius * math.sin(phi)
    a = math.radians(angle_deg)
    rot = np.eye(input_dim)
    rot[0, 0] = math.cos(a)
    rot[0, 1] = -math.sin(a)
    rot[1, 0] = math.sin(a)
    rot[1, 1] = math.cos(a)
    t = np.zeros(input_dim)
    t[: len(translation)] = translation
    return base @ rot.T + t


def _balanced_labels(n: int, num_classes: int, gen: np.random.Generator) -> np.ndarray:
    """Near-equal class counts in shuffled order (exact balance keeps the
    n-way sampler's per-class precondition easy to satisfy)."""
    reps = [c for c in range(num_classes) for _ in range((n + num_classes - 1) // num_classes)]
    labels = np.array(reps[:n], dtype=np.int64)
    gen.shuffle(labels)
    return labels


def gen_synthetic_family(profile: Dict,
                         path: str = "profile") -> Tuple[List[LanguageCorpus], Dict]:
    """Deterministic corpora for every language of a synthetic profile, plus
    the manifest that fully reproduces them. The profile (a config's
    `benchmark.profile` at dotted `path`, a manifest, or `default_profile()`)
    is read once against `PROFILE_KEYS`, each language against
    `PROFILE_LANGUAGE_KEYS` and its sizes against `SIZES_KEYS`
    ("profile.languages[0].sizes.train: 2.5 is not an integer >= 0"), and a number
    is stored as a float, as the manifest writes it. A profile needs two or
    more languages, one angle per script tag and no translation with more
    values than `input_dim`; `trainer.Task` checks the ids and roles."""
    where = path + "." if path else ""
    doc = read_object(profile, path, PROFILE_KEYS)
    C, D = doc["num_classes"], doc["input_dim"]
    langs: List[Dict] = []
    manifest = {"kind": "synthetic-benchmark", "n_langs": len(doc["languages"]),
                "num_classes": C, "input_dim": D, "mean_radius": float(doc["mean_radius"]),
                "noise_sd": float(doc["noise_sd"]), "seed": doc["seed"], "languages": langs}
    for i, entry in enumerate(doc["languages"]):
        at = f"{where}languages[{i}]"
        lang = read_object(entry, at, PROFILE_LANGUAGE_KEYS)
        if len(lang["translation"]) > D:
            raise ContractViolation(f"{at}.translation: {lang['translation']!r} has more "
                                    f"values than input_dim ({D})")
        langs.append({"lang_id": lang["lang_id"], "script_tag": lang["script_tag"],
                      "role": lang["role"], "angle_deg": float(lang["angle_deg"]),
                      "translation": [float(v) for v in lang["translation"]],
                      "sizes": read_object(lang["sizes"], f"{at}.sizes", SIZES_KEYS)})
    if len(langs) < 2:
        raise ContractViolation("need at least two languages (one source, one target)")
    by_script: Dict[str, float] = {}
    for l in langs:
        if by_script.setdefault(l["script_tag"], l["angle_deg"]) != l["angle_deg"]:
            raise ContractViolation(
                f"languages sharing script {l['script_tag']!r} must share the rotation angle"
            )

    rng = RngStreams(doc["seed"])
    corpora: List[LanguageCorpus] = []
    for l in langs:
        means = _class_means(C, D, manifest["mean_radius"], l["angle_deg"], l["translation"])
        gen = rng.derived("synth_data", l["lang_id"])
        splits = {}
        for split_name, size in l["sizes"].items():
            labels = _balanced_labels(size, C, gen)
            noise = gen.standard_normal((size, D))
            splits[split_name] = Split(means[labels] + manifest["noise_sd"] * noise, labels)
        corpora.append(LanguageCorpus(l["lang_id"], l["script_tag"], l["role"], **splits))
        l["class_means"] = [[repr(float(v)) for v in row] for row in means.tolist()]
    return corpora, manifest


# --- shipped default benchmark ------------------------------------------------
#
# 1 source + 6 targets. The three "near" languages share a script rotated
# 12 degrees from the source and sit almost on top of it; the three
# "distant" ones share a script rotated further and live along the
# extrapolation of a source decision boundary at increasing distance, so a
# source-trained model still classifies them far above chance while
# per-language fine-tuning has to traverse a long way from its
# initialization. Calibrated so zero-shot accuracy on the distant subset
# lands 10-30 points below source accuracy.

DEFAULT_BENCHMARK_SEED = 7021
_FAR_RAY_DEG = 60.0  # direction of a source class boundary


def _ray(deg: float, dist: float) -> List[float]:
    return [dist * math.cos(math.radians(deg)), dist * math.sin(math.radians(deg))]


def default_profile() -> Dict:
    """The shipped benchmark's profile, in the form `gen_synthetic_family` reads."""
    def lang(lang_id, script, role, angle, translation, train):
        return {"lang_id": lang_id, "script_tag": script, "role": role, "angle_deg": angle,
                "translation": translation, "sizes": {"train": train, "dev": 100, "test": 100}}

    return {
        "languages": [
            lang("src", "scr-src", "source", 0.0, [0.0, 0.0], 500),
            lang("near-a", "scr-near", "target", 12.0, [0.25, 0.0], 100),
            lang("near-b", "scr-near", "target", 12.0, [0.0, 0.25], 100),
            lang("near-c", "scr-near", "target", 12.0, [-0.175, 0.175], 100),
            lang("far-a", "scr-far", "target", 22.0, _ray(_FAR_RAY_DEG, 4.8), 100),
            lang("far-b", "scr-far", "target", 22.0, _ray(_FAR_RAY_DEG, 6.0), 100),
            lang("far-c", "scr-far", "target", 22.0, _ray(_FAR_RAY_DEG, 7.2), 100),
        ],
        "num_classes": 3,
        "input_dim": 2,
        "mean_radius": 2.0,
        "noise_sd": 1.25,
        "seed": DEFAULT_BENCHMARK_SEED,
    }


def default_benchmark() -> Tuple[List[LanguageCorpus], Dict]:
    return gen_synthetic_family(default_profile())


# --- TSV ingestion -------------------------------------------------------------


def ingest_tsv(path: Union[str, Path], schema: str, num_classes: Optional[int] = None) -> Split:
    """Parse a UTF-8 TSV file into one split's examples.

    classification: one row per example, "f1<TAB>...<TAB>fD<TAB>label".
    token_tags: one token per line with the same shape; a blank line ends a
    sequence. CRLF is accepted identically to LF. A label must be a
    non-negative integer, below `num_classes` if that is given. An empty
    file gives an empty split of width 0.
    """
    if schema not in TASKS:
        raise ContractViolation(f"unknown schema {schema!r}")
    text = Path(path).read_text(encoding="utf-8").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    width: Optional[int] = None

    def parse_row(line: str, lineno: int) -> Tuple[List[float], int]:
        nonlocal width
        parts = line.split("\t")
        if width is None:
            if len(parts) < 2:
                raise ContractViolation(f"line {lineno}: need at least one feature and a label")
            width = len(parts)
        if len(parts) != width:
            raise ContractViolation(
                f"line {lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            feats = [float(p) for p in parts[:-1]]
        except ValueError as exc:
            raise ContractViolation(f"line {lineno}: bad feature value ({exc})") from None
        raw = parts[-1]
        try:
            label = int(raw)
        except ValueError:
            raise ContractViolation(f"line {lineno}: unknown label {raw!r}") from None
        if label < 0 or (num_classes is not None and label >= num_classes):
            raise ContractViolation(f"line {lineno}: unknown label {raw!r}")
        return feats, label

    # One row per example (classification) or per token; for token_tags a
    # blank line ends a sequence, and offsets marks where each one starts.
    rows: List[List[float]] = []
    labels: List[int] = []
    offsets = [0]
    for lineno, line in enumerate(lines, 1):
        if line == "":
            if offsets[-1] != len(labels):
                offsets.append(len(labels))
            continue
        feats, label = parse_row(line, lineno)
        rows.append(feats)
        labels.append(label)
    if offsets[-1] != len(labels):
        offsets.append(len(labels))

    input_dim = (width - 1) if width is not None else 0
    return Split(
        np.array(rows, dtype=np.float64).reshape(len(rows), input_dim),
        labels,
        offsets if schema == "token_tags" else None,
    )
