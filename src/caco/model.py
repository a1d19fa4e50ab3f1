"""Query/key MLP encoders, the category classifier, and checkpoints.

The query encoder is trained by gradient descent; the key encoder shares
its shapes and moves only through an exponential moving average of the
query parameters. Embeddings are L2-normalized per row so that the usual
low temperatures (0.07) make sense for dot-product similarities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_integers, check_reals, is_integer
from .errors import ContractError, ParameterError

_INIT_NAME = "caco-checkpoint"
_INIT_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., embedding); hidden layers use ReLU."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_widths) < 3:
            raise ParameterError(f"layer_widths must list a hidden layer, got {self.layer_widths}")
        check_integers({f"layer_widths[{i}]": w for i, w in enumerate(self.layer_widths)},
                       at_least=1)
        check_integers({"layer_widths[-1]": self.layer_widths[-1]}, at_least=2)
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))

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

    def copy(self) -> "MlpParams":
        """Copies of the arrays as constants: the key encoder, which no gradient reaches."""
        return MlpParams(
            [Tensor(w.data.copy()) for w in self.weights],
            [Tensor(b.data.copy()) for b in self.biases],
        )


def _init_layer(rng, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    """Uniform +/- sqrt(6/fan_in) weights and zero biases, both grad-enabled."""
    limit = np.sqrt(6.0 / fan_in)
    return (Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)), True),
            Tensor(np.zeros(fan_out), True))


def init_params(spec: MlpSpec, seed: int) -> MlpParams:
    """Every layer by _init_layer, in order, from one stream; deterministic per seed."""
    rng = np.random.default_rng(seed)
    weights, biases = zip(*(_init_layer(rng, fan_in, fan_out) for fan_in, fan_out
                            in zip(spec.layer_widths, spec.layer_widths[1:])))
    return MlpParams(list(weights), list(biases))


def encode(params: MlpParams, x) -> Tensor:
    """MLP forward pass over a (batch, D) block, unit-normalized per row, as one tape record."""
    return ad.normalized_mlp(x, params.weights, params.biases)


def embed(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """encode(params, x).data, a new array: normalized_mlp on constants, so no tape record."""
    return ad.normalized_mlp(x, [w.data for w in params.weights],
                             [b.data for b in params.biases]).data


@dataclass
class Classifier:
    """Linear map from embeddings to category logits."""

    weight: Tensor  # (d, C)
    bias: Tensor  # (C,)


def init_classifier(embed_dim: int, num_categories: int, seed: int) -> Classifier:
    check_integers({"embed_dim": embed_dim, "num_categories": num_categories}, at_least=2)
    return Classifier(*_init_layer(np.random.default_rng(seed), embed_dim, num_categories))


def classifier_logits(clf: Classifier, embeddings: Tensor) -> Tensor:
    return ad.linear(embeddings, clf.weight, clf.bias)


def classify(clf: Classifier, embeddings: np.ndarray) -> np.ndarray:
    """Per-row softmax probabilities of an embedding array on the simplex; no tape record."""
    # z - max, exp and the division in place on affine's new array
    p = ad.affine(np.asarray(embeddings), clf.weight.data, clf.bias.data)
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
        check_reals({"momentum": self.momentum}, at_least=0, at_most=1)
        self.momentum = float(self.momentum)  # the EMA's arithmetic and the header's JSON type


def new_encoder_pair(spec: MlpSpec, seed: int, momentum: float) -> EncoderPair:
    """Initialize the query encoder and copy it exactly into the key encoder."""
    query = init_params(spec, seed)
    return EncoderPair(query, query.copy(), momentum)


def momentum_update(pair: EncoderPair) -> EncoderPair:
    """key <- m*key + (1-m)*query, coordinate-wise; no gradient flows through.

    Updates each key array in place, with the bits of the out-of-place
    expression.
    """
    check_reals({"momentum": pair.momentum}, at_least=0, at_most=1)
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

    def predict_indices(self, x: np.ndarray) -> np.ndarray:
        """1-based argmax categories for a (batch, D) block."""
        return np.argmax(classify(self.classifier, embed(self.encoders.query, x)), axis=1) + 1


# ---------------------------------------------------------------------------
# Checkpoint format: one JSON header line, then raw little-endian float64
# arrays in declaration order (query layers, key layers, classifier).
# ---------------------------------------------------------------------------


def _array_layout(spec: MlpSpec, num_categories: int) -> list[dict]:
    """Name and shape of every checkpoint array, in payload order: the header's arrays field."""
    layout = []
    for side in ("query", "key"):
        for i, (fan_in, fan_out) in enumerate(zip(spec.layer_widths, spec.layer_widths[1:])):
            layout += [{"name": f"{side}.w{i}", "shape": [fan_in, fan_out]},
                       {"name": f"{side}.b{i}", "shape": [fan_out]}]
    return layout + [{"name": "classifier.weight", "shape": [spec.embed_dim, num_categories]},
                     {"name": "classifier.bias", "shape": [num_categories]}]


def _tensors(model: CacoModel) -> list[Tensor]:
    """Every checkpoint tensor of the model, in _array_layout's order."""
    return (model.encoders.query.tensors() + model.encoders.key.tensors()
            + [model.classifier.weight, model.classifier.bias])


def save_checkpoint(path: str | Path, model: CacoModel) -> None:
    header = {
        "format": _INIT_NAME,
        "version": _INIT_VERSION,
        "layer_widths": list(model.mlp_spec.layer_widths),
        "num_categories": model.num_categories,
        "seed": int(model.seed),
        "encoder_momentum": model.encoders.momentum,
        "arrays": _array_layout(model.mlp_spec, model.num_categories),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for t in _tensors(model):
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> CacoModel:
    """Read a checkpoint that save_checkpoint wrote; ContractError, ending in the path, if not.

    Every header check passes, the arrays field against _array_layout and the
    payload size included, before anything of the header's size is allocated;
    then each payload array is read into a new model's _tensors, in order.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ContractError(f"not a recognizable checkpoint: {path}") from exc
        if not isinstance(header, dict) or header.get("format") != _INIT_NAME \
                or header.get("version") != _INIT_VERSION or not is_integer(header["version"]):
            raise ContractError(f"not a recognizable checkpoint: {path}")
        missing = [name for name in ("layer_widths", "num_categories", "seed",
                                     "encoder_momentum", "arrays") if name not in header]
        if missing:
            raise ContractError(f"checkpoint header lacks {missing}: {path}")
        if not isinstance(header["layer_widths"], list):
            raise ContractError(f"checkpoint header field layer_widths has the wrong type: {path}")
        try:  # the rules training applies
            spec = MlpSpec(tuple(header["layer_widths"]))
            check_integers({"num_categories": header["num_categories"]}, at_least=2)
            check_integers({"seed": header["seed"]}, at_least=0)
            check_reals({"encoder_momentum": header["encoder_momentum"]}, at_least=0, at_most=1)
        except ParameterError as exc:
            raise ContractError(f"checkpoint header field {exc}: {path}") from exc
        num_categories, seed = header["num_categories"], header["seed"]
        layout = _array_layout(spec, num_categories)
        if json.dumps(header["arrays"], sort_keys=True) != json.dumps(layout, sort_keys=True):
            raise ContractError(
                f"checkpoint header field arrays has the wrong type or layout for layer_widths "
                f"{list(spec.layer_widths)} and num_categories {num_categories}: {path}"
            )
        blob = fh.read()
    size = 8 * sum(math.prod(entry["shape"]) for entry in layout)
    if size != len(blob):
        raise ContractError(
            f"checkpoint payload holds {len(blob)} bytes, its header declares {size}: {path}"
        )
    model = CacoModel(spec, num_categories, seed,
                      new_encoder_pair(spec, seed, header["encoder_momentum"]),
                      init_classifier(spec.embed_dim, num_categories, seed))
    offset = 0
    for t in _tensors(model):
        t.data[...] = np.frombuffer(blob, "<f8", t.data.size, offset).reshape(t.shape)
        offset += 8 * t.data.size
    return model
