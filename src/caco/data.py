"""Synthetic labeled-source / unlabeled-target tasks with controllable shift.

Classes are isotropic unit-variance Gaussians whose means sit on a circle
in the first two coordinates. The target domain redraws from the same
mixture and then rotates it. A DomainPair keeps the target labels in an
evaluation-only pocket: training code sees source rows with their labels
and bare target rows, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

KEY_VARIANTS = ("S", "T", "full")


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool is an int, but no integer argument."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integers(fields: dict, at_least: int | None = None) -> None:
    """ParameterError, naming the field, for the first value that is not an integer (is_integer)
    or is below at_least."""
    for name, value in fields.items():
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if at_least is not None and value < at_least:
            bound = "non-negative" if at_least == 0 else f"at least {at_least}"
            raise ParameterError(f"{name} must be {bound}, got {value}")


def is_real(value) -> bool:
    """True for a finite int, float, numpy integer or numpy float; a bool is an int, but no real."""
    if not isinstance(value, (float, np.floating)) and not is_integer(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_reals(fields: dict, above: float | None = None, at_least: float | None = None,
                at_most: float | None = None) -> None:
    """ParameterError, naming the field, for the first value that is not a real (is_real)
    or is at most `above`, below at_least or above at_most."""
    for name, value in fields.items():
        if not is_real(value):
            raise ParameterError(f"{name} must be finite and real, got {value!r}")
        if above is not None and value <= above:
            raise ParameterError(f"{name} must be above {above}, got {value}")
        if at_least is not None and value < at_least:
            raise ParameterError(f"{name} must be at least {at_least}, got {value}")
        if at_most is not None and value > at_most:
            raise ParameterError(f"{name} must be at most {at_most}, got {value}")


def is_label(value, num_categories: int) -> bool:
    """True for a 1-based category: an integer (is_integer) in [1..num_categories]."""
    return is_integer(value) and 1 <= value <= num_categories


def as_label_array(labels, num_categories: int) -> np.ndarray:
    """A 1-D int64 array of 1-based labels in [1..num_categories]; an int64 one is not copied."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or (arr.size and (
            np.minimum.reduce(arr) < 1 or np.maximum.reduce(arr) > num_categories)):
        raise ContractError(f"expected a vector of integer labels in [1..{num_categories}]")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class DomainPair:
    """Labeled source rows plus unlabeled target rows, as read-only arrays.

    Labels are 1-based categories in [1..num_categories]; a category may
    have no source row and still count. The target labels exist only
    behind evaluation_labels(); training reads source_x, source_y and
    target_x.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    num_categories: int
    _eval_labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_integers({"num_categories": self.num_categories})
        object.__setattr__(self, "num_categories", int(self.num_categories))
        for name in ("source_x", "source_y", "target_x", "_eval_labels"):
            given = getattr(self, name)
            array = np.array(given, dtype=np.float64) if name.endswith("_x") else np.array(given)
            array.flags.writeable = False  # a private copy, so no caller can change it either
            object.__setattr__(self, name, array)
            # min and max propagate a NaN, and unlike np.isfinite(array) they make no (n, d)
            # temporary; initial=0.0 lets a block of 0 rows through
            if name.endswith("_x") and not np.isfinite(
                    (array.min(initial=0.0), array.max(initial=0.0))).all():
                raise ContractError(f"{name} holds a NaN or infinite value")
        sx, sy, tx, ty = self.source_x, self.source_y, self.target_x, self._eval_labels
        if sx.ndim != 2 or tx.ndim != 2 or sx.shape[1] != tx.shape[1] \
                or sy.shape != sx.shape[:1] or ty.shape != tx.shape[:1]:
            raise DimensionError(f"need (n, d) rows with n labels per domain; got source "
                                 f"{sx.shape} with {sy.shape}, target {tx.shape} with {ty.shape}")
        for labels in (sy, ty):
            as_label_array(labels, self.num_categories)

    @property
    def source(self) -> np.ndarray:
        """source_x under its earlier name, kept because the benchmark reads len(pair.source)."""
        return self.source_x

    def evaluation_labels(self) -> np.ndarray:
        """Held-out 1-based target labels; for evaluation and export only."""
        return self._eval_labels


@dataclass
class DataConfig:
    """Generative parameters of the default domain-shift task."""

    num_categories: int = 4
    dim: int = 8
    separation: float = 3.0
    n_per_class: int = 500
    angle: float = float(np.pi / 4)

    def validate(self) -> None:
        check_integers({"num_categories": self.num_categories, "dim": self.dim}, at_least=2)
        check_integers({"n_per_class": self.n_per_class}, at_least=1)
        # a class mean's squared norm, separation**2, must stay finite
        check_reals({"separation": self.separation}, above=0, at_most=math.sqrt(np.finfo(float).max))
        check_reals({"angle": self.angle})


def build_domain_pair(config: DataConfig, root_seed: int) -> DomainPair:
    """Source and shifted target sets from named child streams of one seed; checks config first."""
    from .seeding import child_seed

    config.validate()
    mixture = (config.num_categories, config.dim, config.n_per_class, config.separation)
    source_x, source_y = make_gaussian_mixture(*mixture, child_seed(root_seed, "source_data"))
    target_x, target_y = shift_domain(
        *make_gaussian_mixture(*mixture, child_seed(root_seed, "target_data")), config.angle
    )
    return DomainPair(source_x, source_y, target_x, config.num_categories, target_y)


def mixture_centers(num_categories: int, dim: int, separation: float) -> np.ndarray:
    """Class means: separation * (cos, sin, 0...) at evenly spaced angles."""
    centers = np.zeros((num_categories, dim))
    angles = 2.0 * np.pi * np.arange(num_categories) / num_categories
    centers[:, 0] = separation * np.cos(angles)
    centers[:, 1] = separation * np.sin(angles)
    return centers


def make_gaussian_mixture(
    num_categories: int,
    dim: int,
    n_per_class: int,
    separation: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance Gaussian blobs as (x, 1-based y), class-major order, deterministic per seed."""
    check_integers({"num_categories": num_categories, "dim": dim}, at_least=2)
    check_integers({"n_per_class": n_per_class}, at_least=1)
    check_reals({"separation": separation})
    rng = np.random.default_rng(seed)
    centers = mixture_centers(num_categories, dim, separation)
    x = np.concatenate([
        centers[c] + rng.standard_normal((n_per_class, dim)) for c in range(num_categories)
    ])
    return x, np.repeat(np.arange(1, num_categories + 1), n_per_class)


def shift_domain(x: np.ndarray, y: np.ndarray, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows rotated by angle in the first two coordinates.

    A pure transform: row i of the result is row i of x rotated, and the
    labels come back as given, so the caller can park them on the
    evaluation side of a pair.
    """
    check_reals({"angle": angle})
    dim = x.shape[1]
    rot = np.eye(dim)
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]

    # one matmul per run of equal labels (per class block): one over all rows may round differently
    shifted = np.empty_like(x, dtype=np.float64)
    cuts = [0, *(np.flatnonzero(y[1:] != y[:-1]) + 1), len(y)]
    for lo, hi in zip(cuts, cuts[1:]):
        np.matmul(x[lo:hi], rot.T, out=shifted[lo:hi])
    return shifted, y


def sample_query_batch(pair: DomainPair, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement draw of row indices into pair.target_x."""
    check_integers({"n": n}, at_least=0)
    total = pair.target_x.shape[0]
    if n > total:
        raise ContractError(f"requested {n} queries from {total} target samples")
    return rng.choice(total, size=n, replace=False)


def sample_key_batch(
    pair: DomainPair, n: int, variant: str, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a key batch per dictionary variant: source only, target only, or an even mix.

    Returns the drawn row indices into pair.source_x and into pair.target_x,
    source first; a domain the variant does not draw from gets an empty array.
    """
    n_source, n_target = key_batch_rows(n, variant)
    return (_draw_rows(pair.source_x, n_source, "source", rng),
            _draw_rows(pair.target_x, n_target, "target", rng))


def key_batch_rows(n: int, variant: str) -> tuple[int, int]:
    """Source and target rows of an n-key batch per variant; ParameterError for an odd full batch."""
    if variant not in KEY_VARIANTS:
        raise ContractError(f"variant must be one of {KEY_VARIANTS}, got {variant!r}")
    check_integers({"n": n}, at_least=0)
    if variant == "full" and n % 2:
        raise ParameterError(f"the full variant splits each key batch evenly between the "
                             f"domains; got an odd key batch of {n}")
    n_source = {"S": n, "T": 0, "full": n // 2}[variant]
    return n_source, n - n_source


def _draw_rows(rows: np.ndarray, count: int, pool: str, rng) -> np.ndarray:
    if not count:
        return np.zeros(0, dtype=np.int64)
    if count > rows.shape[0]:
        raise ContractError(f"key batch larger than the {pool} pool")
    return rng.choice(rows.shape[0], size=count, replace=False)
