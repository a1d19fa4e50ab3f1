"""Synthetic labeled-source / unlabeled-target tasks with controllable shift.

Classes are isotropic unit-variance Gaussians whose means sit on a circle
in the first two coordinates. The target domain redraws from the same
mixture and then rotates, scales and translates it. A DomainPair keeps the
target labels in an evaluation-only pocket: training code sees source
rows with their labels and bare target rows, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

KEY_VARIANTS = ("S", "T", "full")


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
        for name in ("source_x", "source_y", "target_x", "_eval_labels"):
            given = getattr(self, name)
            array = np.array(given, dtype=np.float64) if name.endswith("_x") else np.array(given)
            array.flags.writeable = False  # a private copy, so no caller can change it either
            object.__setattr__(self, name, array)
        sx, sy, tx, ty = self.source_x, self.source_y, self.target_x, self._eval_labels
        if sx.ndim != 2 or tx.ndim != 2 or sx.shape[1] != tx.shape[1] \
                or sy.shape != sx.shape[:1] or ty.shape != tx.shape[:1]:
            raise DimensionError(f"need (n, d) rows with n labels per domain; got source "
                                 f"{sx.shape} with {sy.shape}, target {tx.shape} with {ty.shape}")
        c = self.num_categories
        for labels in (sy, ty):
            if labels.dtype.kind not in "iu" or ((labels < 1) | (labels > c)).any():
                raise ContractError(f"labels must be integer categories in [1..{c}]")

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
    translation: tuple[float, ...] = (0.0,)
    scale: float = 1.0


def build_domain_pair(config: DataConfig, root_seed: int) -> DomainPair:
    """Source and shifted target sets from named child streams of one seed."""
    from .seeding import child_seed

    source_x, source_y = make_gaussian_mixture(
        config.num_categories,
        config.dim,
        config.n_per_class,
        config.separation,
        child_seed(root_seed, "source_data"),
    )
    target_x, target_y = shift_domain(
        source_x,
        source_y,
        config.angle,
        config.translation,
        config.scale,
        child_seed(root_seed, "target_data"),
        separation=config.separation,
        num_categories=config.num_categories,
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
    if num_categories < 2:
        raise ParameterError("need at least 2 categories")
    if dim < 2:
        raise ParameterError("need at least 2 dimensions")
    rng = np.random.default_rng(seed)
    centers = mixture_centers(num_categories, dim, separation)
    x = np.concatenate([
        centers[c] + rng.standard_normal((n_per_class, dim)) for c in range(num_categories)
    ])
    return x, np.repeat(np.arange(1, num_categories + 1), n_per_class)


def shift_domain(
    source_x: np.ndarray,
    source_y: np.ndarray,
    angle: float,
    translation,
    scale: float,
    seed: int,
    *,
    separation: float,
    num_categories: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh draws from the source mixture, then rotate/scale/translate.

    The dimension and the per-class counts come from the source rows and
    their 1-based labels; ``separation`` and ``num_categories`` pin down the
    generating centers. Returns (x, y): the labels are kept so the caller
    can park them on the evaluation side of a pair.
    """
    if scale <= 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")
    dim = source_x.shape[1]
    counts = np.bincount(source_y, minlength=num_categories + 1)[1:num_categories + 1]

    offset = np.asarray(_as_translation(translation, dim))
    rng = np.random.default_rng(seed)
    centers = mixture_centers(num_categories, dim, separation)
    rot = np.eye(dim)
    rot[0, 0] = rot[1, 1] = np.cos(angle)
    rot[0, 1] = -np.sin(angle)
    rot[1, 0] = np.sin(angle)

    # transform each class block on its own: one matmul over all rows may round differently
    x = np.concatenate([
        scale * ((centers[c] + rng.standard_normal((counts[c], dim))) @ rot.T) + offset
        for c in range(num_categories)
    ])
    return x, np.repeat(np.arange(1, num_categories + 1), counts)


def _as_translation(translation, dim: int) -> tuple[float, ...]:
    if np.isscalar(translation):
        if float(translation) != 0.0:
            raise ContractError("scalar translation must be 0; pass a vector otherwise")
        return (0.0,) * dim
    vec = tuple(float(v) for v in translation)
    if len(vec) > dim:
        raise ContractError(f"translation has {len(vec)} entries for dim {dim}")
    return vec + (0.0,) * (dim - len(vec))


def sample_query_batch(pair: DomainPair, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement draw of row indices into pair.target_x."""
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
    """How many source and target rows an n-key batch of a dictionary variant draws."""
    if variant not in KEY_VARIANTS:
        raise ContractError(f"variant must be one of {KEY_VARIANTS}, got {variant!r}")
    if variant == "full" and n % 2:
        raise ContractError(f"the mixed variant needs an even batch, got {n}")
    n_source = {"S": n, "T": 0, "full": n // 2}[variant]
    return n_source, n - n_source


def _draw_rows(rows: np.ndarray, count: int, pool: str, rng) -> np.ndarray:
    if not count:
        return np.zeros(0, dtype=np.int64)
    if count > rows.shape[0]:
        raise ContractError(f"key batch larger than the {pool} pool")
    return rng.choice(rows.shape[0], size=count, replace=False)
