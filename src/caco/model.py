"""Query/key MLP encoders, the category classifier, and checkpoints.

The query encoder is trained by gradient descent; the key encoder shares
its shapes and moves only through an exponential moving average of the
query parameters. Embeddings are L2-normalized per row so that the usual
low temperatures (0.07) make sense for dot-product similarities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, ParameterError

_INIT_NAME = "caco-checkpoint"
_INIT_VERSION = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


# the JSON type each header field must have
_HEADER_TYPES = {
    "layer_widths": _is_int_list,
    "num_categories": _is_int,
    "seed": _is_int,
    "encoder_momentum": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "arrays": lambda v: isinstance(v, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and _is_int_list(e.get("shape"))
        for e in v),
}
_HEADER_FIELDS = tuple(_HEADER_TYPES)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., embedding); hidden layers use ReLU."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 3:
            raise ParameterError("need at least one hidden layer")
        if any(w < 1 for w in widths):
            raise ParameterError(f"layer widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ParameterError("embedding dimension must be at least 2")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_widths[-1]


@dataclass
class MlpParams:
    """Weight/bias tensors per layer, in declaration order."""

    weights: list[Tensor]
    biases: list[Tensor]

    def tensors(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self, requires_grad: bool) -> "MlpParams":
        return MlpParams(
            [Tensor(w.data.copy(), requires_grad) for w in self.weights],
            [Tensor(b.data.copy(), requires_grad) for b in self.biases],
        )


def init_params(spec: MlpSpec, seed: int) -> MlpParams:
    """Uniform +/- sqrt(6/fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)), True))
        biases.append(Tensor(np.zeros(fan_out), True))
    return MlpParams(weights, biases)


def encode(params: MlpParams, x) -> Tensor:
    """MLP forward pass over a (batch, D) block, unit-normalized per row, as one tape record."""
    return ad.normalized_mlp(x, params.weights, params.biases)


# a block's 64-wide hidden layer stays under glibc's 128 KiB mmap threshold
EMBED_BLOCK = 128


def embed(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """encode(params, x).data bit for bit, as plain numpy: no Tensor, no tape record.

    autodiff.mlp_layers over near-equal blocks of at most EMBED_BLOCK rows,
    so a pass reuses heap pages (a 1-row block would run as a matrix-vector
    product, whose last bit can differ); then one unit_normalize over all
    rows, which raises what encode's would.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"embed expects a (batch, D) block, got shape {x.shape}")
    n = x.shape[0]
    k = max(1, -(-n // EMBED_BLOCK))  # a block of 0 rows still checks the shapes
    out = ad.mlp_layers(x[:n // k], params.weights, params.biases)[-1]
    if k > 1:  # the first block's rows, then room for the others
        out = np.concatenate([out, np.empty((n - n // k, out.shape[1]))])
        for i in range(1, k):
            lo, hi = n * i // k, n * (i + 1) // k
            out[lo:hi] = ad.mlp_layers(x[lo:hi], params.weights, params.biases)[-1]
    return ad.unit_normalize(out)[0]


@dataclass
class Classifier:
    """Linear map from embeddings to category logits."""

    weight: Tensor  # (d, C)
    bias: Tensor  # (C,)

    @property
    def num_categories(self) -> int:
        return self.weight.shape[1]


def init_classifier(embed_dim: int, num_categories: int, seed: int) -> Classifier:
    if num_categories < 2:
        raise ParameterError("classifier needs at least 2 categories")
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / embed_dim)
    return Classifier(
        Tensor(rng.uniform(-limit, limit, (embed_dim, num_categories)), True),
        Tensor(np.zeros(num_categories), True),
    )


def classifier_logits(clf: Classifier, embeddings: Tensor) -> Tensor:
    return ad.linear(embeddings, clf.weight, clf.bias)


def classify(clf: Classifier, embeddings: np.ndarray) -> np.ndarray:
    """Per-row softmax probabilities of an embedding array on the simplex; no tape record."""
    e = np.asarray(embeddings)
    if e.ndim != 2 or e.shape[1] != clf.weight.shape[0]:
        raise DimensionError(
            f"classify expects (batch, {clf.weight.shape[0]}) embeddings, got {e.shape}"
        )
    # z - max, exp and the division in place on the one new array
    p = e @ clf.weight.data
    p += clf.bias.data
    p -= ad.row_max(p)[:, None]
    np.exp(p, out=p)
    p /= ad.row_sum(p)[:, None]
    return p


@dataclass
class EncoderPair:
    """Query parameters, key parameters of the same shapes, and the EMA coefficient."""

    query: MlpParams
    key: MlpParams
    momentum: float

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ParameterError(f"momentum must lie in [0, 1], got {self.momentum}")


def new_encoder_pair(spec: MlpSpec, seed: int, momentum: float) -> EncoderPair:
    """Initialize the query encoder and copy it exactly into the key encoder."""
    query = init_params(spec, seed)
    return EncoderPair(query, query.copy(requires_grad=False), momentum)


def momentum_update(pair: EncoderPair) -> EncoderPair:
    """key <- m*key + (1-m)*query, coordinate-wise; no gradient flows through.

    Updates each key array in place, with the bits of the out-of-place
    expression.
    """
    if not 0.0 <= pair.momentum <= 1.0:
        raise ParameterError(f"momentum must lie in [0, 1], got {pair.momentum}")
    m = pair.momentum
    for tq, tk in zip(pair.query.tensors(), pair.key.tensors()):
        tk.data *= m
        tk.data += (1.0 - m) * tq.data
    return pair


@dataclass
class CacoModel:
    """Everything needed to score samples and to resume from disk."""

    mlp_spec: MlpSpec
    num_categories: int
    seed: int
    encoders: EncoderPair
    classifier: Classifier

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Category probabilities for a (batch, D) block."""
        return classify(self.classifier, embed(self.encoders.query, x))

    def predict_indices(self, x: np.ndarray) -> np.ndarray:
        """1-based argmax categories for a (batch, D) block."""
        return np.argmax(self.predict_probs(x), axis=1) + 1


# ---------------------------------------------------------------------------
# Checkpoint format: one JSON header line, then raw little-endian float64
# arrays in declaration order (query layers, key layers, classifier).
# ---------------------------------------------------------------------------


def _array_layout(spec: MlpSpec, num_categories: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every checkpoint array, in payload order."""
    layout = []
    for side in ("query", "key"):
        for i, (fan_in, fan_out) in enumerate(zip(spec.layer_widths, spec.layer_widths[1:])):
            layout += [(f"{side}.w{i}", (fan_in, fan_out)), (f"{side}.b{i}", (fan_out,))]
    layout += [
        ("classifier.weight", (spec.embed_dim, num_categories)),
        ("classifier.bias", (num_categories,)),
    ]
    return layout


def save_checkpoint(path: str | Path, model: CacoModel) -> None:
    names = [name for name, _ in _array_layout(model.mlp_spec, model.num_categories)]
    tensors = model.encoders.query.tensors() + model.encoders.key.tensors()
    tensors += [model.classifier.weight, model.classifier.bias]
    header = {
        "format": _INIT_NAME,
        "version": _INIT_VERSION,
        "layer_widths": list(model.mlp_spec.layer_widths),
        "num_categories": model.num_categories,
        "seed": model.seed,
        "encoder_momentum": model.encoders.momentum,
        "arrays": [{"name": name, "shape": list(t.shape)} for name, t in zip(names, tensors)],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for t in tensors:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> CacoModel:
    """Read a checkpoint; ContractError unless its header and payload agree with each other."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ContractError(f"not a recognizable checkpoint: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != _INIT_NAME \
                or header.get("version") != _INIT_VERSION:
            raise ContractError(f"not a recognizable checkpoint: {path}")
        missing = [name for name in _HEADER_FIELDS if name not in header]
        if missing:
            raise ContractError(f"checkpoint header lacks {missing}: {path}")
        malformed = [name for name in _HEADER_FIELDS if not _HEADER_TYPES[name](header[name])]
        if malformed:
            raise ContractError(f"checkpoint header fields {malformed} have the wrong type: {path}")
        blob = fh.read()

    spec = MlpSpec(tuple(header["layer_widths"]))
    num_categories = header["num_categories"]
    layout = _array_layout(spec, num_categories)
    declared = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    if declared != layout:
        raise ContractError(
            f"checkpoint array names or shapes do not match layer_widths "
            f"{list(spec.layer_widths)} and num_categories {num_categories}"
        )
    counts = [int(np.prod(shape)) for _, shape in layout]
    if 8 * sum(counts) != len(blob):
        raise ContractError(
            f"checkpoint payload holds {len(blob)} bytes, its header declares {8 * sum(counts)}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), count in zip(layout, counts):
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8

    n_layers = len(spec.layer_widths) - 1

    def params_for(side: str, requires_grad: bool) -> MlpParams:
        return MlpParams(
            [Tensor(arrays[f"{side}.w{i}"], requires_grad) for i in range(n_layers)],
            [Tensor(arrays[f"{side}.b{i}"], requires_grad) for i in range(n_layers)],
        )

    encoders = EncoderPair(
        params_for("query", True),
        params_for("key", False),
        float(header["encoder_momentum"]),
    )
    classifier = Classifier(
        Tensor(arrays["classifier.weight"], True),
        Tensor(arrays["classifier.bias"], True),
    )
    return CacoModel(spec, num_categories, header["seed"], encoders, classifier)
