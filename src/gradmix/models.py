"""Small differentiable models with analytic gradients.

Two families stand in for task heads at desk scale: a softmax classifier
over fixed feature vectors and a per-token MLP tagger over token-feature
sequences. Parameters live in one flat vector so the surgery kernel can
treat gradients uniformly.

A batch is a `corpora.Split` whose examples are in canonical key order
(see `corpora`), which makes loss and gradient bitwise invariant to the
order examples were drawn.
One kernel computes them, for one batch or, slice by slice, for a stack:
of batches (`batch_grads`) or of parameter vectors each on its own batch
(`stack_grads`, lockstep training), each slice with the bits it gets alone.

A trained model is a chain of states, epoch 0 first (see `trainer`);
`save_checkpoint` writes one chain to one file and `load_checkpoint` reads
it back bit for bit. `write_atomic` is the one way files are written.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Union

import numpy as np

from .corpora import Split
from .numcore import REQUIRED, ContractViolation, ParamVec, RngStreams, read_object

FAMILIES = ("softmax_classifier", "mlp_token_tagger")
# ModelSpec's key table (see `numcore.read_object`): every field is required.
SPEC_KEYS = {"family": (FAMILIES, REQUIRED), "input_dim": ("an integer >= 1", REQUIRED),
             "hidden_dim": ("an integer >= 0", REQUIRED),  # 0 means linear
             "num_classes": ("an integer >= 2", REQUIRED)}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        read_object(vars(self), "", SPEC_KEYS)

    @property
    def param_dim(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if h == 0:
            return c * d + c
        return h * d + h + c * h + c

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "num_classes": self.num_classes,
        }

    @staticmethod
    def from_dict(d, path: str = "") -> "ModelSpec":
        """The spec of a JSON object, read against `SPEC_KEYS` at dotted `path`."""
        return ModelSpec(**read_object(d, path, SPEC_KEYS))


@dataclass(frozen=True)
class ModelState:
    spec: ModelSpec
    theta: ParamVec

    def __post_init__(self) -> None:
        if self.theta.dim != self.spec.param_dim:
            raise ContractViolation(
                f"theta has dim {self.theta.dim}, spec needs {self.spec.param_dim}"
            )


@dataclass(frozen=True)
class GradReport:
    loss: float
    grad: ParamVec


def init_params(spec: ModelSpec, rng: RngStreams) -> ModelState:
    """Uniform weights in [-s, s] with s = 1/sqrt(fan_in), zero biases.

    Drawn from the `init` substream only, so consuming other substreams
    never perturbs initialization.
    """
    gen = rng.init
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    parts = []
    if h == 0:
        s = 1.0 / math.sqrt(d)
        parts.append(gen.uniform(-s, s, size=c * d))
        parts.append(np.zeros(c))
    else:
        s1 = 1.0 / math.sqrt(d)
        parts.append(gen.uniform(-s1, s1, size=h * d))
        parts.append(np.zeros(h))
        s2 = 1.0 / math.sqrt(h)
        parts.append(gen.uniform(-s2, s2, size=c * h))
        parts.append(np.zeros(c))
    return ModelState(spec=spec, theta=ParamVec(np.concatenate(parts)))


def _unpack(spec: ModelSpec, v: np.ndarray):
    """Read-only weight views into a flat parameter vector (P,) or a stack
    of them (S, P): matrices (..., rows, cols) and biases (..., 1, n), so a
    bias broadcasts over a batch's rows and a stack's slices."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    lead = v.shape[:-1]
    if h == 0:
        return v[..., : c * d].reshape(lead + (c, d)), v[..., c * d :].reshape(lead + (1, c))
    o = h * d + h
    return (v[..., : h * d].reshape(lead + (h, d)), v[..., h * d : o].reshape(lead + (1, h)),
            v[..., o : o + c * h].reshape(lead + (c, h)), v[..., o + c * h :].reshape(lead + (1, c)))


def _logits(spec: ModelSpec, theta: ParamVec, X: np.ndarray) -> np.ndarray:
    *hidden, W, b = _unpack(spec, theta.values)
    if hidden:
        X = np.tanh(X @ hidden[0].swapaxes(-1, -2) + hidden[1])
    return X @ W.swapaxes(-1, -2) + b


def check_batch(spec: ModelSpec, batch: Split) -> None:
    """Whole-batch checks: non-empty, the layout of the family, features
    of the model's width, labels in range."""
    if len(batch) == 0:
        raise ContractViolation("empty batch")
    tokens = batch.offsets is not None
    if tokens == (spec.family == "softmax_classifier"):
        raise ContractViolation(f"{spec.family} cannot take a batch of this layout "
                                f"({'with' if tokens else 'without'} sequence offsets)")
    X, y = batch.X, batch.y
    if X.shape[1] != spec.input_dim:
        raise ContractViolation(f"features have dim {X.shape[1]}, expected {spec.input_dim}")
    if X.shape[0] == 0:
        raise ContractViolation("batch contains no tokens")
    # As unsigned, a negative label is huge: one reduction checks both ends.
    if y.astype(np.uint64).max() >= spec.num_classes:
        bad = int(y[(y < 0) | (y >= spec.num_classes)][0])
        raise ContractViolation(f"label {bad} out of range [0, {spec.num_classes})")


def _forward_backward(spec: ModelSpec, v: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradient, flattened in parameter order,
    of the parameters v (P,) on one batch (X (rows, D), y (rows,)), or on
    each of a stack of equal batches (X (s, rows, D), y (s, rows)), or of
    each of a stack of parameters v (s, P) on its own batch of such a
    stack. This is the one kernel: `loss_and_grad`, `batch_grads` and
    `stack_grads` all call it. A stack runs every matmul slice by slice
    (weights through `swapaxes`, never a 2-D matmul over the stacked rows)
    and every reduction within a batch, so each slice gets the bits it gets
    alone. Temporaries are updated in place (`a += b` for `a + b`).
    """
    n, c = y.shape[-1], spec.num_classes
    if spec.hidden_dim == 0:  # H: the output layer's input
        (W, b), H = _unpack(spec, v), X
    else:
        W1, b1, W, b = _unpack(spec, v)
        H = X @ W1.swapaxes(-1, -2)
        H += b1
        np.tanh(H, out=H)
    Z = H @ W.swapaxes(-1, -2)
    Z += b

    zmax = Z.max(axis=-1, keepdims=True)
    lse = Z - zmax
    np.exp(lse, out=lse)
    lse = np.log(lse.sum(axis=-1, keepdims=True))
    lse += zmax
    # Flat index of each row's gold logit in Z (and in G below).
    gold = np.arange(0, y.size * c, c).reshape(y.shape) + y
    loss = (lse[..., 0] - Z.take(gold)).sum(axis=-1) / n

    G = Z - lse
    np.exp(G, out=G)
    G.reshape(-1)[gold] -= 1.0
    G /= n

    lead = y.shape[:-1] + (-1,)
    parts = [(G.swapaxes(-1, -2) @ H).reshape(lead), G.sum(axis=-2)]
    if spec.hidden_dim:
        dZ1 = G @ W
        T = H * H
        np.subtract(1.0, T, out=T)
        dZ1 *= T
        parts[:0] = [(dZ1.swapaxes(-1, -2) @ X).reshape(lead), dZ1.sum(axis=-2)]
    return loss, np.concatenate(parts, axis=-1)


def loss_and_grad(state: ModelState, batch: Split) -> GradReport:
    """Mean cross-entropy over the batch (tagger: over all tokens) and its
    analytic gradient, flattened in parameter order."""
    check_batch(state.spec, batch)
    loss, grad = _forward_backward(state.spec, state.theta.values, batch.X, batch.y)
    if not math.isfinite(loss):
        raise ContractViolation("non-finite loss")
    return GradReport(loss=float(loss), grad=ParamVec._adopt(grad))


def stack_grads(spec: ModelSpec, thetas: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row i: the gradient of parameters thetas[i] (or of thetas itself,
    when it is one (P,) vector) on the dense batch X[i], y[i], bit for bit
    what `loss_and_grad` gives that pair alone. The caller checks the
    batches once (`check_batch` of each split they come from); every
    slice's loss and gradient is checked finite here."""
    loss, grads = _forward_backward(spec, thetas, X, y)
    if not np.isfinite(loss).all():
        raise ContractViolation("non-finite loss")
    if not np.isfinite(grads).all():
        raise ContractViolation("non-finite gradient")
    return grads


def batch_grads(state: ModelState, data: Split, keys: np.ndarray) -> np.ndarray:
    """Row i: `loss_and_grad(state, data.take(keys[i])).grad`, bit for bit,
    for classifier keys (s, size) sorted by row. The split is checked once,
    as a whole, with the checks `loss_and_grad` makes per batch."""
    check_batch(state.spec, data)
    return stack_grads(state.spec, state.theta.values, data.X[keys], data.y[keys])


def sgd_step(state: ModelState, grad: ParamVec, lr: float) -> ModelState:
    """theta' = theta - lr * grad, elementwise."""
    if grad.dim != state.theta.dim:
        raise ContractViolation(f"grad dim {grad.dim} != theta dim {state.theta.dim}")
    if lr < 0:
        raise ContractViolation("lr must be non-negative")
    return ModelState(spec=state.spec, theta=ParamVec._adopt(state.theta.values - lr * grad.values))


def predict(state: ModelState, x: np.ndarray):
    """Argmax prediction; ties break toward the lowest class index.

    A classifier given one (D,) vector yields an int. Rows (n, D) yield one
    label per row: per example for the classifier, per token for the tagger
    (one sequence, or the flat tokens of a whole split).
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1 and state.spec.family == "softmax_classifier":
        return int(np.argmax(_logits(state.spec, state.theta, X.reshape(1, -1))[0]))
    if X.ndim != 2:
        raise ContractViolation(f"predict expects (n, D) rows, got shape {X.shape}")
    return np.argmax(_logits(state.spec, state.theta, X), axis=1)


# --- checkpoint files -------------------------------------------------------
#
# One JSON file per distinct trained model: its spec once, then the chain of
# states, epoch 0 (the state training started from) first, each as one
# base64 row of little-endian f64, so save -> load -> evaluate is bitwise
# stable. The file names no strategy: `cli` stores each chain once under
# `chain_digest` and every cell that trained it points at that file.

CHECKPOINT_VERSION = 3


def write_atomic(path: Union[str, Path], data: Union[bytes, Iterable[bytes]]) -> None:
    """Write `data` (bytes, or chunks of bytes written in turn, so a long
    file is never built whole in memory) to `path` through a temporary file
    in the same directory and `os.replace`, so the target name only ever
    holds a whole file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_chain(chain: Sequence[ModelState]) -> None:
    if not chain or any(state.spec != chain[0].spec for state in chain):
        raise ContractViolation("a checkpoint chain needs one or more states of one spec")


def chain_digest(chain: Sequence[ModelState]) -> str:
    """16 hex digits of the sha256 of a chain's spec and raw states: the
    store name, the same for equal chains (64 bits make a clash between
    different chains negligible)."""
    _check_chain(chain)
    h = hashlib.sha256(json.dumps(chain[0].spec.to_dict(), sort_keys=True).encode())
    for state in chain:
        h.update(state.theta.tobytes())
    return h.hexdigest()[:16]


def save_checkpoint(chain: Sequence[ModelState], path: Union[str, Path]) -> None:
    """Write a model's chain of states, epoch 0 first, to one compact file."""
    _check_chain(chain)
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "model-chain",
        "spec": chain[0].spec.to_dict(),
        "states": [
            binascii.b2a_base64(state.theta.values.astype("<f8").tobytes(), newline=False)
            .decode("ascii")
            for state in chain
        ],
    }
    write_atomic(path, (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8"))


def load_checkpoint(path: Union[str, Path]) -> List[ModelState]:
    """Read the chain of a file written by `save_checkpoint`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ContractViolation(
            f"{path} is a version-{version} checkpoint; expected version {CHECKPOINT_VERSION}"
        )
    try:
        spec = ModelSpec.from_dict(payload.get("spec"), "spec")
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from None
    chain = []
    for row in payload["states"]:
        values = np.frombuffer(binascii.a2b_base64(row), dtype="<f8")
        if values.size != spec.param_dim:
            raise ContractViolation(
                f"{path}: a state has {values.size} values, spec needs {spec.param_dim}"
            )
        chain.append(ModelState(spec=spec, theta=ParamVec(values)))
    return chain
