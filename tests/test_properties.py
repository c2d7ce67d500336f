"""Properties of the numeric core on generated inputs: a stack of slices
gets the bits each slice gets alone, `predict` over rows equals `predict`
of each row, `surgery.decide` equals the per-row reference on every row of
a stack, `trainer.train_lockstep` gives any set of runs what the per-run
reference loop gives each run alone, a similarity matrix is symmetric with
a diagonal of 1.0 or None, a surgery trace is a header line and then one
compact `json.dumps` array per entry that decodes to the entry, and a
small grid writes the same tree at `--jobs 1` and `--jobs 2`. Every run draws the same examples
(`derandomize=True`, no example database), so a failure reproduces."""

import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradmix import analysis
from gradmix.cli import parse_config, run_experiment
from gradmix.corpora import Split
from gradmix.models import ModelSpec, ModelState, init_params, loss_and_grad, predict, stack_grads
from gradmix.numcore import ContractViolation, RngStreams, dot, frozen
from gradmix.surgery import TraceEntry, decide, trace_lines
from gradmix.trainer import STRATEGIES, Run, stackable, train_lockstep

import oracles
from test_cli import small_config_doc

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def specs(draw, family=st.sampled_from(["softmax_classifier", "mlp_token_tagger"])):
    return ModelSpec(draw(family), input_dim=draw(st.integers(1, 4)),
                     hidden_dim=draw(st.sampled_from([0, 0, 1, 3, 5])),
                     num_classes=draw(st.integers(2, 4)))


def layout(spec, rows):
    """A batch's offsets: none for a classifier, one sequence for a tagger."""
    return None if spec.family == "softmax_classifier" else [0, rows]


@FIXED
@given(spec=specs(), slices=st.integers(1, 4), rows=st.integers(1, 6),
       shared=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_each_stack_grads_row_is_its_slice_alone(spec, slices, rows, shared, seed):
    rng = np.random.default_rng(seed)
    thetas = rng.normal(scale=1.5, size=(slices, spec.param_dim))
    X = rng.normal(size=(slices, rows, spec.input_dim))
    y = rng.integers(spec.num_classes, size=(slices, rows))
    grads = stack_grads(spec, thetas[0] if shared else thetas, X, y)
    assert grads.shape == (slices, spec.param_dim)
    for i in range(slices):
        state = ModelState(spec, thetas[0] if shared else thetas[i])
        alone = loss_and_grad(state, Split(X[i], y[i], layout(spec, rows))).grad
        assert grads[i].tobytes() == alone.tobytes()


@FIXED
@given(spec=specs(family=st.just("softmax_classifier")), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_classifier_predict_over_rows_is_each_row_alone(spec, n, seed):
    rng = np.random.default_rng(seed)
    state = ModelState(spec, rng.normal(scale=2.0, size=spec.param_dim))
    X = rng.normal(size=(n, spec.input_dim))
    assert predict(state, X).tolist() == [predict(state, x) for x in X]


entries = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def decide_stacks(draw):
    """G and O (m, P) with 1-4 rows; each oracle row's sign is drawn, so
    conflicts come and go, and a row may be all zeros."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    G = np.array(draw(st.lists(st.lists(entries, min_size=p, max_size=p),
                               min_size=m, max_size=m)))
    O = np.array(draw(st.lists(st.lists(entries, min_size=p, max_size=p),
                               min_size=m, max_size=m)))
    O *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))[:, None]
    coins = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=m, max_size=m))
    return frozen(G), frozen(O), [(f"t{i}", c) for i, c in enumerate(coins)]


@settings(FIXED, max_examples=100)
@given(stack=decide_stacks(), alpha=st.floats(0.0, 1.0), step=st.integers(0, 99))
def test_decide_is_the_per_row_reference_on_every_row(stack, alpha, step):
    G, O, picks = stack
    G_out, trace = decide(G, O, picks, step, alpha)
    assert len(trace) == len(G)
    if not any(entry.applied for entry in trace):
        assert G_out is G
    for i, ((lang, p), entry) in enumerate(zip(picks, trace)):
        g, o = G[i], O[i]
        conflicted = dot(o, g) < 0.0
        # An o whose square norm underflows to 0 has no normal plane.
        applied = conflicted and p < alpha and dot(o, o) > 0.0
        want = oracles.project_gradient(g, o) if applied else g
        before = oracles.cosine_similarity(o, g)
        after = oracles.cosine_similarity(o, want) if applied else before
        assert G_out[i].tobytes() == want.tobytes()
        assert asdict(entry) == {
            "step": step, "picked_lang": lang, "p_value": p, "conflicted": conflicted,
            "applied": applied, "cos_before": before, "cos_after": after}


@st.composite
def run_sets(draw, family, alpha):
    """1-3 runs of one spec of `family` and one epoch count, with surgery
    at `alpha` (None: without); alike (one pool size, lr and oracle batch
    size, so a classifier's stack) or each drawing its own. A tagger's
    pools and oracle batches are ragged: sequences of 1-3 tokens. Returns
    a maker of the runs, each with fresh streams, so every training draws
    the same, and whether they stack: True for one run or alike classifier
    runs, False for two or more taggers, else None (runs that draw their
    own may still draw alike)."""
    spec = draw(specs(family=st.just(family)))
    n, alike, epochs = draw(st.integers(1, 3)), draw(st.booleans()), draw(st.integers(1, 2))
    batch = draw(st.integers(1, 4))
    per_run = lambda values: [draw(values)] * n if alike else [draw(values) for _ in range(n)]
    sizes, lrs = per_run(st.integers(1, 6)), per_run(st.sampled_from([0.1, 0.5]))
    shots, langs = per_run(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    tagger = family == "mlp_token_tagger"

    def split(m):  # m examples, or m sequences of 1-3 tokens
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 4, size=m))]) if tagger else None
        rows = int(offsets[-1]) if tagger else m
        return Split(rng.normal(size=(rows, spec.input_dim)),
                     rng.integers(spec.num_classes, size=rows), offsets)

    data = [(split(size), {f"t{j}": split(k) for j in range(langs)})
            for size, k in zip(sizes, shots)]

    def make():
        runs = []
        for seed, ((pool, oracle), lr) in enumerate(zip(data, lrs)):
            streams = RngStreams(seed)
            run = Run(init_params(spec, streams), pool, epochs, batch, lr, streams, "pool")
            runs.append(run if alpha is None else run._replace(oracle=oracle, alpha=alpha))
        return runs

    return make, True if n == 1 or (alike and not tagger) else False if tagger else None


def trained_bytes(trained):
    """The chains' bytes and the traces' JSON of `train_lockstep` output."""
    return ([chain.states.tobytes() for chain, _ in trained],
            [None if trace is None else json.dumps([asdict(e) for e in trace])
             for _, trace in trained])


@pytest.mark.parametrize("alpha", [None, 0.0, 0.6, 1.0])
@pytest.mark.parametrize("family", ["softmax_classifier", "mlp_token_tagger"])
@settings(FIXED, max_examples=10)
@given(data=st.data())
def test_train_lockstep_gives_every_run_set_what_each_run_gets_alone(family, alpha, data):
    make, stacks = data.draw(run_sets(family, alpha))
    assert stacks is None or stackable(make()) == stacks
    got = trained_bytes(train_lockstep(make()))
    assert got == trained_bytes(oracles.train_one_by_one(make()))
    if alpha == 0.0:  # surgery that never applies leaves each chain as without it
        plain = train_lockstep([run._replace(oracle=None) for run in make()])
        assert got[0] == trained_bytes(plain)[0]


# Floats whose text is easy to get wrong: signed zeros, subnormals, a value
# `repr` writes with an exponent, one it writes with 17 digits; and any float.
trace_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e16, 1 / 3, -1.0]),
                         st.floats())


@st.composite
def trace_entries(draw):
    conflicted = draw(st.booleans())
    return TraceEntry(step=draw(st.integers(0, 10**6)),
                      picked_lang=draw(st.sampled_from(["t0", 'q"u\\o\'te', "日本語", "é\n"])
                                       | st.text()),
                      p_value=draw(trace_floats), conflicted=conflicted,
                      applied=conflicted and draw(st.booleans()),
                      cos_before=draw(st.none() | trace_floats),
                      cos_after=draw(st.none() | trace_floats))


def compact(value) -> bytes:
    return (json.dumps(value, separators=(",", ":")) + "\n").encode("utf-8")


@FIXED
@given(entries=st.lists(trace_entries(), max_size=8))
def test_trace_lines_are_the_bytes_of_json_dumps(entries):
    header = ["step", "picked_lang", "p_value", "conflicted", "applied", "cos_before", "cos_after"]
    lines = list(trace_lines(entries))
    assert lines == [compact(header)] + [compact([*asdict(e).values()]) for e in entries]
    for entry, line in zip(entries, lines[1:]):
        row = asdict(entry)
        if all(math.isfinite(v) for v in row.values() if isinstance(v, float)):
            assert dict(zip(header, json.loads(line))) == row


@st.composite
def language_gradients(draw):
    """Gradients of 1-4 languages at 1-3 checkpoints, P = 1-4; some zero."""
    n, m, p = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    vectors = st.lists(st.lists(entries, min_size=p, max_size=p), min_size=n, max_size=n)
    return [[frozen(np.array(g)) for g in grads]
            for grads in draw(st.lists(vectors, min_size=m, max_size=m))]


@FIXED
@given(grads=language_gradients())
def test_similarity_matrix_is_symmetric_with_a_unit_or_missing_diagonal(grads):
    n = len(grads[0])
    spec = ModelSpec("softmax_classifier", 1, 0, 2)
    checkpoints = [ModelState(spec, np.zeros(spec.param_dim)) for _ in grads]
    corpora = [SimpleNamespace(lang_id=f"t{i}", role="target",
                               train=Split(np.zeros((1, 1)), [0])) for i in range(n)]
    shots = {c.lang_id: [0] for c in corpora}
    drawn = iter(g for at_checkpoint in grads for g in at_checkpoint)
    with mock.patch.object(analysis, "language_gradient", lambda *args: next(drawn)):
        matrix = analysis.similarity_matrix(checkpoints, corpora, shots, np.random.default_rng(0))
    values = matrix.values
    assert all(values[i][j] == values[j][i] for i in range(n) for j in range(n))
    for i in range(n):
        zero_somewhere = any(dot(at[i], at[i]) == 0.0 for at in grads)
        assert values[i][i] == (None if zero_somewhere else 1.0)


@st.composite
def small_grids(draw):
    """A config of `small_config_doc`'s benchmark: subsets of the
    strategies, of K in {1, 2} and of seeds {1, 2} (an empty one is
    refused), and 0-2 epochs per phase."""
    pick = lambda values: [v for v in values if draw(st.booleans())]
    doc = small_config_doc(strategies=pick(STRATEGIES), ks=pick([1, 2]), seeds=pick([1, 2]))
    doc["plan"].update(source_epochs=draw(st.integers(0, 2)), adapt_epochs=draw(st.integers(0, 2)))
    return doc


def tree(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@settings(FIXED, max_examples=8)
@given(doc=small_grids())
def test_jobs_1_and_jobs_2_write_the_same_tree(doc):
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work) / f"jobs{jobs}" for jobs in (1, 2)]
        try:
            code = run_experiment(parse_config(doc), outs[0], jobs=1)  # refuses an empty list
        except ContractViolation:
            assume(False)
        assert run_experiment(parse_config(doc), outs[1], jobs=2) == code
        assert tree(outs[0]) == tree(outs[1])
