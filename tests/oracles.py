"""Reference implementations the array code path is checked against, and
helpers only tests use.

They keep the earlier formulations:
- the per-example path: examples as (features, label) tuples, batches
  stacked row by row in (key, position) order, and evaluation by one
  `predict` call per example;
- the scalar loop that defines `dot`'s accumulation order, and the token
  loop that defines `micro_f1`'s counts;
- the per-step training path before the lean hot path: a copying
  `ParamVec` for every gradient and state, one numpy call per operation in
  `loss_and_grad`, one gather per batch in `batch_iter`, the 9-dot surgery
  step built from `cosine_similarity`, a dot-product conflict test and
  `project_gradient`, and the per-batch source-gradient loop;
- the per-run training loop built from those steps (`train_loop`), the
  reference for `trainer.train_lockstep`.
"""

import math
from pathlib import Path

import numpy as np

from gradmix import analysis
from gradmix.corpora import OUTSIDE_LABEL, LanguageCorpus, Split
from gradmix.models import GradReport, ModelState, _logits, predict
from gradmix.numcore import ContractViolation, ParamVec, dot
from gradmix.surgery import TraceEntry, decide


def examples_of(split):
    """A split as a list of (features, label) tuples: (D,) and int for
    classification, (L, D) and (L,) per sequence for token tagging."""
    if split.offsets is None:
        return [(split.X[i], int(split.y[i])) for i in range(len(split))]
    bounds = zip(split.offsets[:-1], split.offsets[1:])
    return [(split.X[a:b], split.y[a:b]) for a, b in bounds]


def to_arrays(examples):
    """(X, y, offsets) of tuples in the given order, as `Split` takes them."""
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
    """Tuple-stacking batch assembly: sort by (key, position), then stack
    into a Split."""
    keys = list(range(len(examples))) if keys is None else [int(k) for k in keys]
    order = sorted(range(len(examples)), key=lambda i: (keys[i], i))
    return Split(*to_arrays([examples[i] for i in order]))


def evaluate_per_example(model, corpus, split):
    """Accuracy or token micro-F1 with one `predict` call per example."""
    examples = examples_of(corpus.split(split))
    if corpus.split(split).offsets is None:
        correct = 0
        for x, y in examples:
            if predict(model, x) == int(y):
                correct += 1
        return correct / len(examples)
    preds = [predict(model, x) for x, _ in examples]
    gold = [np.asarray(y) for _, y in examples]
    return analysis.micro_f1(preds, gold, outside_label=OUTSIDE_LABEL)


def micro_f1_loop(predictions, gold, outside_label):
    """`analysis.micro_f1` counting TP, FP and FN by a loop over tokens."""
    pred_seqs = predictions if isinstance(predictions, (list, tuple)) else [predictions]
    gold_seqs = gold if isinstance(gold, (list, tuple)) else [gold]
    tp = fp = fn = 0
    for p, g in zip(pred_seqs, gold_seqs):
        p = np.asarray(p).reshape(-1)
        g = np.asarray(g).reshape(-1)
        for pi, gi in zip(p.tolist(), g.tolist()):
            if pi == gi:
                if gi != outside_label:
                    tp += 1
            else:
                if pi != outside_label:
                    fp += 1
                if gi != outside_label:
                    fn += 1
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def dot_loop(a, b):
    """Inner product of two ParamVecs by a Python loop: strict left-to-right
    f64 accumulation from 0.0."""
    acc = 0.0
    for x, y in zip(a.values.tolist(), b.values.tolist()):
        acc += x * y
    return acc


# --- the per-step training path before the lean hot path --------------------


def loss_and_grad(state, batch):
    """`models.loss_and_grad` with one numpy call per operation and a
    copying ParamVec (no batch checks: they do not change a result)."""
    spec = state.spec
    X, y = batch.X, batch.y
    n = X.shape[0]
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    v = state.theta.values
    if h == 0:
        W = v[: c * d].reshape(c, d)
        b = v[c * d : c * d + c]
        Z = X @ W.T + b
    else:
        W1 = v[: h * d].reshape(h, d)
        b1 = v[h * d : h * d + h]
        W2 = v[h * d + h : h * d + h + c * h].reshape(c, h)
        b2 = v[h * d + h + c * h :]
        A1 = np.tanh(X @ W1.T + b1)
        Z = A1 @ W2.T + b2

    Zmax = Z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(Z - Zmax).sum(axis=1, keepdims=True)) + Zmax
    loss = float(np.sum(logsumexp[:, 0] - Z[np.arange(n), y]) / n)

    G = np.exp(Z - logsumexp)
    G[np.arange(n), y] -= 1.0
    G /= n

    if h == 0:
        grad = np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
    else:
        dZ1 = (G @ W2) * (1.0 - A1 * A1)
        grad = np.concatenate(
            [(dZ1.T @ X).ravel(), dZ1.sum(axis=0), (G.T @ A1).ravel(), G.sum(axis=0)]
        )
    if not math.isfinite(loss):
        raise ContractViolation("non-finite loss")
    return GradReport(loss=loss, grad=ParamVec(grad))


def sgd_step(state, grad, lr):
    """`models.sgd_step` through the copying ParamVec constructor."""
    return ModelState(spec=state.spec, theta=ParamVec(state.theta.values - lr * grad.values))


def batch_iter(pool, batch_size, epoch, rng, scope="pool"):
    """`corpora.batch_iter` with one sort and one gather per batch, each
    batch a Split."""
    n = len(pool)
    perm = rng.derived("shuffle", f"{scope}:{epoch}").permutation(n)
    return [pool.take(np.sort(perm[start : start + batch_size]))
            for start in range(0, n, batch_size)]


def cosine_similarity(a, b):
    """`numcore.cosine_similarity` computing its three dots itself."""
    na = math.sqrt(dot(a, a))
    nb = math.sqrt(dot(b, b))
    if na == 0.0 or nb == 0.0:
        return None
    if a.tobytes() == b.tobytes():
        return 1.0
    return min(1.0, max(-1.0, dot(a, b) / (na * nb)))


def project_gradient(g_s, g_t):
    denom = dot(g_t, g_t)
    if denom == 0.0:
        raise ContractViolation("cannot project onto the normal plane of a zero vector")
    return ParamVec(g_s.values - (dot(g_s, g_t) / denom) * g_t.values)


def sgs_step(g_train, oracle, model, alpha, rng, step=0):
    """`surgery.sgs_step` with 9 dots on an applied step (4 otherwise)."""
    langs = list(oracle)
    lang = langs[int(rng.lang_pick.integers(len(langs)))]
    p = float(rng.surgery_p.random())
    g_oracle = loss_and_grad(model, oracle[lang]).grad
    cos_before = cosine_similarity(g_oracle, g_train)
    conflicted = dot(g_oracle, g_train) < 0.0
    if conflicted and p < alpha:
        g_out = project_gradient(g_train, g_oracle)
        cos_after = cosine_similarity(g_oracle, g_out)
        return g_out, TraceEntry(step, lang, p, True, True, cos_before, cos_after)
    return g_train, TraceEntry(step, lang, p, conflicted, False, cos_before, cos_before)


def train_loop(run, step_hook=None):
    """`trainer.train_lockstep([run], step_hook)[0]` as one run's loop over
    the per-step path: fixed-epoch SGD over per-epoch reshuffles of the
    pool, with the surgery decision between backprop and the update when
    the run has oracle batches. Returns the chain, epoch 0 first, and the
    trace."""
    state = run.state0
    chain = [state]
    trace = [] if run.oracle is not None else None
    step = 0
    for epoch in range(1, run.epochs + 1):
        for batch in batch_iter(run.pool, run.batch_size, epoch, run.rng, scope=run.scope):
            grad = loss_and_grad(state, batch).grad
            if run.oracle is not None:
                grad, entry = sgs_step(grad, run.oracle, state, run.alpha, run.rng, step=step)
                trace.append(entry)
            state = sgd_step(state, grad, run.lr)
            step += 1
            if step_hook is not None:
                step_hook(step, state)
        chain.append(state)
    return chain, trace


def train_one_by_one(runs, step_hook=None):
    """`trainer.train_lockstep` by `train_loop`, one run at a time."""
    return [train_loop(run, step_hook) for run in runs]


def source_gradient(model, corpus, rng, batch_size=32, n_batches=100):
    """`analysis.language_gradient` of a source: one batch at a time."""
    n = len(corpus.train)
    size = min(batch_size, n)
    acc = np.zeros(model.theta.dim)
    for _ in range(n_batches):
        idx = rng.choice(n, size=size, replace=False)
        acc += loss_and_grad(model, corpus.train.take(np.sort(idx))).grad.values
    return ParamVec(acc / n_batches)


# --- helpers only tests use -------------------------------------------------


def norm(a):
    return math.sqrt(dot(a, a))


def as_paramvec(v):
    return v if isinstance(v, ParamVec) else ParamVec(np.asarray(v, dtype=np.float64))


def finite_diff_grad(loss_fn, theta, h=None):
    """Central-difference gradient of a scalar field, the test oracle for
    analytic gradients.

    With h=None the step is 1e-5 * max(1, |theta_i|) per coordinate, a
    standard balance of truncation against f64 round-off.
    """
    if h is not None and h <= 0.0:
        raise ContractViolation(f"h must be positive, got {h}")
    base = theta.values
    grad = np.empty(theta.dim, dtype=np.float64)
    for i in range(theta.dim):
        step = h if h is not None else 1e-5 * max(1.0, abs(float(base[i])))
        plus = base.copy()
        minus = base.copy()
        plus[i] += step
        minus[i] -= step
        lp = float(loss_fn(ParamVec(plus)))
        lm = float(loss_fn(ParamVec(minus)))
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise ContractViolation(f"non-finite loss probing coordinate {i}")
        grad[i] = (lp - lm) / (2.0 * step)
    return ParamVec(grad)


def decide_one(g_train, g_oracle):
    """The `surgery.decide` kernel on a stack of one run whose coin always
    lands under alpha: g_train projected onto g_oracle's normal plane if the
    two conflict, else g_train itself (bitwise no-op, same object); and the
    step's trace entry."""
    G = g_train.values[None]
    G_out, [entry] = decide(G, g_oracle.values[None], [("t", 0.0)], 0, 1.0)
    return (g_train if G_out is G else ParamVec(G_out[0])), entry


def predict_proba(state, x):
    """Class probabilities; rows for the tagger, a single row otherwise."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X.reshape(1, -1)
    if X.shape[1] != state.spec.input_dim:
        raise ContractViolation(
            f"features have dim {X.shape[1]}, expected {state.spec.input_dim}"
        )
    Z = _logits(state.spec, state.theta, X)
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    P = E / E.sum(axis=1, keepdims=True)
    return P[0] if single else P


def read_sim_matrix_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    langs = tuple(lines[0].split(",")[1:])
    rows = []
    for line in lines[1:]:
        cells = line.split(",")[1:]
        rows.append(tuple(None if c == "" else float(c) for c in cells))
    return analysis.SimMatrix(lang_ids=langs, values=tuple(rows))


def class_counts(corpus: LanguageCorpus, split="train"):
    return np.bincount(corpus.split(split).y)


# Targets rotated further than this from the source are the "distant" ones.
DISTANT_ANGLE_THRESHOLD = 20.0


def distant_lang_ids(manifest):
    return tuple(
        l["lang_id"]
        for l in manifest["languages"]
        if l["role"] == "target" and float(l["angle_deg"]) > DISTANT_ANGLE_THRESHOLD
    )
