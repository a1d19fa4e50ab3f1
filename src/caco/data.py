"""Synthetic labeled-source / unlabeled-target tasks with controllable shift.

Classes are isotropic unit-variance Gaussians whose means sit on a circle
in the first two coordinates. The target domain redraws from the same
mixture and then rotates, scales and translates it. A DomainPair keeps the
target labels in an evaluation-only pocket: training code sees source
samples and bare target feature rows, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParameterError
from .labels import SOURCE, TARGET, CategoryLabel

KEY_VARIANTS = ("S", "T", "full")


@dataclass(frozen=True)
class LabeledSample:
    x: np.ndarray
    y: CategoryLabel


@dataclass(frozen=True)
class KeyDraw:
    """One key-batch element: features, domain tag, ground truth for source only.

    ``index`` is the row's position in its domain: pair.source for source
    keys, pair.target_x for target keys.
    """

    x: np.ndarray
    domain: str
    label: CategoryLabel | None
    index: int


@dataclass
class DomainPair:
    """Labeled source set plus unlabeled target features.

    Target labels exist only behind evaluation_samples()/evaluation_labels();
    training code paths receive source samples and target feature rows.
    """

    source: list[LabeledSample]
    target_x: np.ndarray
    _eval_labels: tuple[CategoryLabel, ...] = field(default=(), repr=False)

    @classmethod
    def from_lists(cls, source: list[LabeledSample], target: list[LabeledSample]) -> "DomainPair":
        target_x = np.stack([s.x for s in target]) if target else np.zeros((0, 0))
        target_x.flags.writeable = False
        return cls(source, target_x, tuple(s.y for s in target))

    @property
    def num_categories(self) -> int:
        """The label space's size, which a category without source rows still counts in."""
        return len(self.source[0].y.one_hot)

    def evaluation_labels(self) -> list[CategoryLabel]:
        """Held-out target labels; for evaluation and export only."""
        return list(self._eval_labels)

    def evaluation_samples(self) -> list[LabeledSample]:
        labels = self.evaluation_labels()
        return [LabeledSample(x, y) for x, y in zip(self.target_x, labels)]


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

    source = make_gaussian_mixture(
        config.num_categories,
        config.dim,
        config.n_per_class,
        config.separation,
        child_seed(root_seed, "source_data"),
    )
    target = shift_domain(
        source,
        config.angle,
        config.translation,
        config.scale,
        child_seed(root_seed, "target_data"),
        separation=config.separation,
    )
    return DomainPair.from_lists(source, target)


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
) -> list[LabeledSample]:
    """Unit-variance Gaussian blobs, class-major order, deterministic per seed."""
    if num_categories < 2:
        raise ParameterError("need at least 2 categories")
    if dim < 2:
        raise ParameterError("need at least 2 dimensions")
    rng = np.random.default_rng(seed)
    centers = mixture_centers(num_categories, dim, separation)
    samples: list[LabeledSample] = []
    for c in range(1, num_categories + 1):
        label = CategoryLabel.of(c, num_categories)
        block = centers[c - 1] + rng.standard_normal((n_per_class, dim))
        samples.extend(LabeledSample(row, label) for row in block)
    return samples


def shift_domain(
    source: list[LabeledSample],
    angle: float,
    translation,
    scale: float,
    seed: int,
    *,
    separation: float,
) -> list[LabeledSample]:
    """Fresh draws from the source mixture, then rotate/scale/translate.

    Category count (the size of the source labels' label space), dimension
    and per-class counts are inferred from the source list; ``separation``
    pins down the generating centers. Labels are retained so the caller can
    park them on the evaluation side of a pair.
    """
    if scale <= 0.0:
        raise ParameterError(f"scale must be positive, got {scale}")
    num_categories = len(source[0].y.one_hot)
    dim = source[0].x.shape[0]
    counts = [sum(1 for s in source if s.y.index == c) for c in range(1, num_categories + 1)]

    offset = np.asarray(_as_translation(translation, dim))
    rng = np.random.default_rng(seed)
    centers = mixture_centers(num_categories, dim, separation)
    rot = np.eye(dim)
    rot[0, 0] = rot[1, 1] = np.cos(angle)
    rot[0, 1] = -np.sin(angle)
    rot[1, 0] = np.sin(angle)

    samples: list[LabeledSample] = []
    for c in range(1, num_categories + 1):
        label = CategoryLabel.of(c, num_categories)
        block = centers[c - 1] + rng.standard_normal((counts[c - 1], dim))
        block = scale * (block @ rot.T) + offset
        samples.extend(LabeledSample(row, label) for row in block)
    return samples


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
) -> list[KeyDraw]:
    """Key samples per dictionary variant: source only, target only, or an even mix."""
    if variant not in KEY_VARIANTS:
        raise ContractError(f"variant must be one of {KEY_VARIANTS}, got {variant!r}")
    if variant == "full" and n % 2:
        raise ContractError(f"the mixed variant needs an even batch, got {n}")

    def draw_source(count: int) -> list[KeyDraw]:
        if count > len(pair.source):
            raise ContractError("key batch larger than the source pool")
        idx = rng.choice(len(pair.source), size=count, replace=False)
        return [KeyDraw(pair.source[i].x, SOURCE, pair.source[i].y, int(i)) for i in idx]

    def draw_target(count: int) -> list[KeyDraw]:
        if count > pair.target_x.shape[0]:
            raise ContractError("key batch larger than the target pool")
        idx = rng.choice(pair.target_x.shape[0], size=count, replace=False)
        return [KeyDraw(pair.target_x[i], TARGET, None, int(i)) for i in idx]

    if variant == "S":
        return draw_source(n)
    if variant == "T":
        return draw_target(n)
    return draw_source(n // 2) + draw_target(n // 2)

