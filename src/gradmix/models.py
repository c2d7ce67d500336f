"""Small differentiable models with analytic gradients.

Two families stand in for task heads at desk scale: a softmax classifier
over fixed feature vectors and a per-token MLP tagger over token-feature
sequences. Parameters live in one flat read-only (P,) array
(`numcore.frozen`), as does a gradient, so surgery treats them uniformly.

A batch is a `corpora.Split` whose examples are in canonical key order
(see `corpora`), which makes loss and gradient bitwise invariant to the
order examples were drawn.
One kernel computes them, for one batch (`loss_and_grad`) or, slice by
slice, for a stack of batches or of parameter vectors each on its own
batch (`stack_grads`: lockstep training, the source gradient of a
similarity matrix), each slice with the bits it gets alone. `predict`
runs the kernel's forward half, so evaluation scores the model that
training differentiates.

A trained model is a `Chain`, one read-only (E+1, P) array of states,
epoch 0 first (see `trainer`); `save_checkpoint` writes one chain to one
file, a JSON header line and the raw f64 rows, and `load_checkpoint` reads
it back bit for bit. `write_atomic` is the one way files are written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Union

import numpy as np

from .corpora import Split
from .numcore import REQUIRED, ContractViolation, RngStreams, check, frozen, read_object

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

    @staticmethod
    def from_dict(d, path: str = "") -> "ModelSpec":
        """The spec of a JSON object, read against `SPEC_KEYS` at dotted `path`."""
        return ModelSpec(**read_object(d, path, SPEC_KEYS))


@dataclass(frozen=True, eq=False)
class ModelState:
    """A model: its spec and its parameters theta, a read-only (P,) array."""

    spec: ModelSpec
    theta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", frozen(self.theta))
        want = (self.spec.param_dim,)
        if self.theta.shape != want:
            raise ContractViolation(f"theta has shape {self.theta.shape}, not {want}")


class Chain(NamedTuple):
    """A trained model's states, epoch 0 (the state training started from)
    first: one read-only (E+1, P) array of one spec."""

    spec: ModelSpec
    states: np.ndarray

    def state(self, epoch: int) -> ModelState:
        return ModelState(self.spec, self.states[epoch])


class GradReport(NamedTuple):
    loss: float
    grad: np.ndarray  # read-only (P,)


def init_params(spec: ModelSpec, rng: RngStreams) -> ModelState:
    """Uniform weights in [-s, s] with s = 1/sqrt(fan_in), zero biases.

    Drawn from the `init` substream only, so consuming other substreams
    never perturbs initialization.
    """
    theta = np.zeros(spec.param_dim)
    for W in _unpack(spec, theta)[::2]:  # each weight matrix (rows, fan_in), in parameter order
        s = 1.0 / math.sqrt(W.shape[-1])
        W[...] = rng.init.uniform(-s, s, size=W.shape)
    return ModelState(spec=spec, theta=theta)


def _unpack(spec: ModelSpec, v: np.ndarray):
    """Weight views into a flat parameter vector (P,) or a stack of them
    (S, P), read-only when it is: matrices (..., rows, cols) and biases
    (..., 1, n), so a bias broadcasts over a batch's rows and a stack's
    slices."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    lead = v.shape[:-1]
    if h == 0:
        return v[..., : c * d].reshape(lead + (c, d)), v[..., c * d :].reshape(lead + (1, c))
    o = h * d + h
    return (v[..., : h * d].reshape(lead + (h, d)), v[..., h * d : o].reshape(lead + (1, h)),
            v[..., o : o + c * h].reshape(lead + (c, h)), v[..., o + c * h :].reshape(lead + (1, c)))


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


def _forward(spec: ModelSpec, v: np.ndarray, X: np.ndarray):
    """The kernel's forward half: the logits Z, the output layer's input H
    (X itself, or the tanh hidden layer) and its weights W, for the shapes
    `_forward_backward` takes."""
    if spec.hidden_dim == 0:
        (W, b), H = _unpack(spec, v), X
    else:
        W1, b1, W, b = _unpack(spec, v)
        H = X @ W1.swapaxes(-1, -2)
        H += b1
        np.tanh(H, out=H)
    Z = H @ W.swapaxes(-1, -2)
    Z += b
    return Z, H, W


def _forward_backward(spec: ModelSpec, v: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradient, flattened in parameter order,
    of the parameters v (P,) on one batch (X (rows, D), y (rows,)), or on
    each of a stack of equal batches (X (s, rows, D), y (s, rows)), or of
    each of a stack of parameters v (s, P) on its own batch of such a
    stack. This is the one kernel: `loss_and_grad` and `stack_grads` call
    it, and `predict` its forward half. A stack runs every matmul slice by
    slice (weights through `swapaxes`, never a 2-D matmul over the stacked
    rows) and every reduction within a batch, so each slice gets the bits
    it gets alone. Temporaries are updated in place (`a += b` for `a + b`).
    """
    n, c = y.shape[-1], spec.num_classes
    Z, H, W = _forward(spec, v, X)
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
    loss, grad = _forward_backward(state.spec, state.theta, batch.X, batch.y)
    if not math.isfinite(loss):
        raise ContractViolation("non-finite loss")
    return GradReport(loss=float(loss), grad=frozen(grad))


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


def sgd_step(state: ModelState, grad: np.ndarray, lr: float) -> ModelState:
    """theta' = theta - lr * grad, elementwise."""
    if grad.shape != state.theta.shape:
        raise ContractViolation(f"grad shape {grad.shape} != theta shape {state.theta.shape}")
    if lr < 0:
        raise ContractViolation("lr must be non-negative")
    return ModelState(spec=state.spec, theta=state.theta - lr * grad)


def predict(state: ModelState, x: np.ndarray):
    """Argmax prediction; ties break toward the lowest class index.

    A classifier given one (D,) vector yields an int. Rows (n, D) yield one
    label per row: per example for the classifier, per token for the tagger
    (one sequence, or the flat tokens of a whole split).
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim == 1 and state.spec.family == "softmax_classifier":
        return int(np.argmax(_forward(state.spec, state.theta, X.reshape(1, -1))[0][0]))
    if X.ndim != 2:
        raise ContractViolation(f"predict expects (n, D) rows, got shape {X.shape}")
    return np.argmax(_forward(state.spec, state.theta, X)[0], axis=1)


# --- checkpoint files -------------------------------------------------------
#
# One file per distinct trained model: a one-line JSON header (format
# version, kind, spec, number of states), then the chain of states, epoch 0
# (the state training started from) first, as raw little-endian f64 rows, so
# save -> load -> evaluate is bitwise stable. The file names no strategy:
# `cli` stores each chain once under `chain_digest` and every cell that
# trained it points at that file.

CHECKPOINT_VERSION = 4


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


def chain_digest(chain: Chain) -> str:
    """16 hex digits of the sha256 of a chain's spec and raw states: the
    store name, the same for equal chains (64 bits make a clash between
    different chains negligible)."""
    h = hashlib.sha256(json.dumps(asdict(chain.spec), sort_keys=True).encode())
    h.update(chain.states.tobytes())
    return h.hexdigest()[:16]


def save_checkpoint(chain: Chain, path: Union[str, Path]) -> None:
    """Write a model's chain of states, epoch 0 first, to one file: the
    header line, then the (E+1, P) states as raw little-endian f64."""
    header = {"format_version": CHECKPOINT_VERSION, "kind": "model-chain",
              "spec": asdict(chain.spec), "states": len(chain.states)}
    write_atomic(path, [(json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8"),
                        chain.states.astype("<f8", copy=False).tobytes()])


def load_checkpoint(path: Union[str, Path]) -> Chain:
    """Read the chain of a file written by `save_checkpoint`. The header is
    the bytes before the first newline, or the whole file if it has none,
    so a file of an older version is refused by its version. Every refusal,
    of a file that cannot be read or of what it holds, starts with `path`."""
    try:
        head, _, body = Path(path).read_bytes().partition(b"\n")
        header = json.loads(head)
        check(header, "a JSON object", "checkpoint")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ContractViolation(f"a version-{header.get('format_version')} checkpoint; "
                                    f"expected version {CHECKPOINT_VERSION}")
        spec = ModelSpec.from_dict(header.get("spec"), "spec")
        check(header.get("states"), "an integer >= 1", "states")
        n, p = header["states"], spec.param_dim
        if len(body) != 8 * n * p:
            raise ContractViolation(f"the states take {len(body)} bytes; {n} states of "
                                    f"{p} f64 values take {8 * n * p}")
        return Chain(spec, frozen(np.frombuffer(body, dtype="<f8").reshape(n, p)))
    except OSError as exc:  # no file, or one that cannot be read
        raise ContractViolation(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a ContractViolation, or a header that is no JSON
        raise ContractViolation(f"{path}: {exc}") from None
