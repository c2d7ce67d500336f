"""The numeric core's bits, pinned: sha256 digests of what `loss_and_grad`,
`stack_grads`, `predict` and `surgery.decide` return on fixed seeded
inputs. The digests were computed before the forward pass and the
projection path were shared, so a refactor of either that moves a single
bit fails here, whatever the reference implementations say."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from gradmix.corpora import Split
from gradmix.models import ModelSpec, ModelState, loss_and_grad, predict, stack_grads
from gradmix.numcore import frozen
from gradmix.surgery import decide

SPECS = {
    "classifier-linear": ModelSpec("softmax_classifier", input_dim=5, hidden_dim=0, num_classes=3),
    "classifier-mlp": ModelSpec("softmax_classifier", input_dim=5, hidden_dim=7, num_classes=3),
    "tagger-linear": ModelSpec("mlp_token_tagger", input_dim=4, hidden_dim=0, num_classes=5),
    "tagger-mlp": ModelSpec("mlp_token_tagger", input_dim=4, hidden_dim=6, num_classes=5),
}

# name: (loss_and_grad, 3-slice stack_grads, predict)
MODEL_PINS = {
    "classifier-linear": ("8b71507ddd6f6ff1f4a21143a9cb6720153621a94202fe63c3cbb574e4594c3f",
                          "f13d4797aa2014149beb043648d58fcab83d9d16949a819a044485e1185301b1",
                          "4c246ab91d881f94570064b844bf907e1cfc39c043b1a90c19d4a49ce3a91324"),
    "classifier-mlp": ("59292a6d8479d7bf58b2a0d318f38fafafed24eb120b4a1ce17bf0cf2b0a7583",
                       "c37367ebf1d933ba3be1813b3904d899d6dda6b1218efde24165bf36d820b3af",
                       "85c484c59080b48d13ac61eab25657d56287cb8922acfcbac2ac344c50c1b091"),
    "tagger-linear": ("d34119128ba3168aee09a077130c4e357e4aab2d64d3ef1d9d66e29a54c33b9f",
                      "1bacd077320288b94aa35e7556fc4e60b268c66ea7a3582015c9e1c942519a73",
                      "0db09e7701e10992d2fef8ccd67cbfe8f4011155027e8fec13f5f254f9477df9"),
    "tagger-mlp": ("fd2e35420fa945b25c19995b5ebfb31f83e9c0eefeb642a2975e9c10eca4e79e",
                   "8939bfe5368e702371e9c7b1e26c6885c3777ccaff218b760e83c6fcc6cb33f6",
                   "43e9ecf868ce5e923b34c1544e36712d14f775e8ce1d968e79d0955eefc2a61d"),
}

# name: (G_out bytes, trace JSON)
DECIDE_PINS = {
    "none": ("08cad63e78e965bbaa84bfd1cc391297cdd3d9c060d18fa232ed5c506fa9455a",
             "f183391d0554907e0d42d4e53b1a2713eaf36298653545bbb602fdcf23026408"),
    "some": ("c923ac2f3320b46c74c9c6051876af0d40b6f1862d5adb9fb28caba387f1249e",
             "80d0b58eb427b693125e2b83e221c117e85b89510631fef26ab6e3e7da064c17"),
    "every": ("d79a838e37340f2fd4762c5ea291c4c45e1d0f3c153aedd5903364b8a77207ad",
              "4bfbe239e86df22e1d13e6577f86e0bb2c8c8acfb32f3002c0e22a682a3577b7"),
}


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def seeded(spec, seed, rows=9):
    """θ, one batch as a Split (three tagger sequences), and a 3-slice
    stack: three θs, each with its own dense batch of `rows` rows."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(scale=0.7, size=spec.param_dim)
    X = rng.normal(size=(rows, spec.input_dim))
    y = rng.integers(spec.num_classes, size=rows)
    offsets = None if spec.family == "softmax_classifier" else [0, 2, 6, rows]
    thetas = rng.normal(scale=0.7, size=(3, spec.param_dim))
    Xs = rng.normal(size=(3, rows, spec.input_dim))
    ys = rng.integers(spec.num_classes, size=(3, rows))
    return ModelState(spec, theta), Split(X, y, offsets), (thetas, Xs, ys)


def model_digests(name):
    spec = SPECS[name]
    state, batch, (thetas, Xs, ys) = seeded(spec, seed=sorted(SPECS).index(name) + 11)
    report = loss_and_grad(state, batch)
    grads = stack_grads(spec, thetas, Xs, ys)
    labels = predict(state, batch.X)
    return (sha(repr(report.loss).encode(), report.grad.tobytes()),
            sha(grads.tobytes()),
            sha(np.asarray(labels, dtype="<i8").tobytes()))


def decide_stack(name):
    """A fixed stack of four runs (P = 40) whose oracle gradients conflict
    with the mixed ones in rows 1 and 3 only, or in every row; alpha 0.5
    and the coins decide which conflicts are projected."""
    rng = np.random.default_rng(29)
    G = rng.normal(size=(4, 40))
    O = rng.normal(size=(4, 40))
    conflict = [False, True, False, True] if name != "every" else [True] * 4
    for i in range(4):
        if (float(O[i] @ G[i]) < 0) != conflict[i]:
            O[i] = -O[i]
    coins = {"none": [0.1, 0.9, 0.2, 0.7], "some": [0.6, 0.3, 0.1, 0.8],
             "every": [0.4, 0.0, 0.2, 0.49]}[name]
    picks = [(f"t{i}", p) for i, p in enumerate(coins)]
    return frozen(G), frozen(O), picks


def decide_digests(name):
    G, O, picks = decide_stack(name)
    G_out, entries = decide(G, O, picks, 7, 0.5)
    trace = json.dumps([asdict(e) for e in entries])
    return sha(G_out.tobytes()), sha(trace.encode())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_model_kernel_bits_pinned(name):
    assert model_digests(name) == MODEL_PINS[name]


@pytest.mark.parametrize("name", sorted(DECIDE_PINS))
def test_decide_bits_pinned(name):
    assert decide_digests(name) == DECIDE_PINS[name]


def test_decide_stacks_project_none_some_and_every_row():
    projected = {}
    for name in DECIDE_PINS:
        G, O, picks = decide_stack(name)
        G_out, entries = decide(G, O, picks, 7, 0.5)
        projected[name] = [e.applied for e in entries]
        assert (G_out is G) == (not any(projected[name]))
    assert projected == {"none": [False] * 4, "some": [False, True, False, False],
                         "every": [True] * 4}
