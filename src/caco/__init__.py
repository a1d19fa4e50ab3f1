"""Category-contrast trainer for unsupervised domain adaptation on synthetic tasks."""

from .autodiff import Tape, Tensor, backward, finite_diff_grad
from .data import (
    DataConfig,
    DomainPair,
    LabeledSample,
    build_domain_pair,
    make_gaussian_mixture,
    sample_key_batch,
    sample_query_batch,
    shift_domain,
)
from .dictionary import CategoricalDictionary, CategoricalKey
from .errors import (
    CacoError,
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    DivergenceError,
    NotWarmError,
    ParameterError,
)
from .labels import CategoryLabel, assign_pseudo_label, key_label, prototype_memberships
from .losses import (
    LossValue,
    cat_nce,
    info_nce,
    key_temperature,
    prediction_entropy,
    supervised_loss,
)
from .model import (
    CacoModel,
    Classifier,
    EncoderPair,
    MlpParams,
    MlpSpec,
    classify,
    encode,
    init_classifier,
    init_params,
    load_checkpoint,
    momentum_update,
    new_encoder_pair,
    save_checkpoint,
)
from .train import (
    EvalResult,
    RunMetrics,
    TrainConfig,
    evaluate,
    pseudo_label_churn,
    train_caco,
    train_source_only,
)

__version__ = "0.1.0"
