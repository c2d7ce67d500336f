"""Reference implementations the array code path is checked against.

They keep the earlier per-example formulation: examples as (features,
label) tuples, batches stacked row by row in (key, position) order, and
evaluation by one `predict` call per example; and the scalar loop that
defines `dot`'s accumulation order.
"""

import numpy as np

from gradmix import analysis
from gradmix.corpora import Batch
from gradmix.models import predict


def examples_of(split):
    """A split as a list of (features, label) tuples: (D,) and int for
    classification, (L, D) and (L,) per sequence for token tagging."""
    if split.offsets is None:
        return [(split.X[i], int(split.y[i])) for i in range(len(split))]
    bounds = zip(split.offsets[:-1], split.offsets[1:])
    return [(split.X[a:b], split.y[a:b]) for a, b in bounds]


def to_arrays(examples):
    """(X, y, offsets) of tuples in the given order, as `make_batch` takes them."""
    xs = [np.asarray(x, dtype=np.float64) for x, _ in examples]
    if xs and xs[0].ndim == 2:
        offsets = np.cumsum([0] + [x.shape[0] for x in xs])
        y = np.concatenate([np.asarray(t, dtype=np.int64).reshape(-1) for _, t in examples])
        return np.concatenate(xs), y, offsets
    X = np.empty((len(xs), xs[0].shape[0] if xs else 0))
    for row, x in enumerate(xs):
        X[row] = x
    return X, np.array([int(y) for _, y in examples], dtype=np.int64), None


def stack_batch(examples, keys=None):
    """Tuple-stacking batch assembly: sort by (key, position), then stack."""
    keys = list(range(len(examples))) if keys is None else [int(k) for k in keys]
    order = sorted(range(len(examples)), key=lambda i: (keys[i], i))
    X, y, offsets = to_arrays([examples[i] for i in order])
    return Batch(X=X, y=y, keys=np.array([keys[i] for i in order]), offsets=offsets)


def evaluate_per_example(model, corpus, split):
    """Accuracy or token micro-F1 with one `predict` call per example."""
    examples = examples_of(corpus.split(split))
    if corpus.task == "classification":
        correct = 0
        for x, y in examples:
            if predict(model, x) == int(y):
                correct += 1
        return correct / len(examples)
    preds = [predict(model, x) for x, _ in examples]
    gold = [np.asarray(y) for _, y in examples]
    return analysis.micro_f1(preds, gold, outside_label=corpus.outside_label)


def dot_loop(a, b):
    """Inner product of two ParamVecs by a Python loop: strict left-to-right
    f64 accumulation from 0.0."""
    acc = 0.0
    for x, y in zip(a.values.tolist(), b.values.tolist()):
        acc += x * y
    return acc
