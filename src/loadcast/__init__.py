"""Mid-term electricity demand forecasting engine.

Stacked residual-block network with per-block destandardization, trained in
cross-learning mode over many monthly series with a pinball-percentage +
variance-normalized squared-error loss, plus bootstrap ensembling and a full
evaluation stack. See the CLI (``loadcast --help``) for the batch surface.
"""

from .baselines import seasonal_naive
from .data import (
    DatasetError,
    RegionSplit,
    SplitSpec,
    StratifiedSampler,
    TimeSeries,
    evaluation_windows,
    load_dataset,
    split,
    synthetic_dataset,
    training_windows,
)
from .ensemble import EnsembleSpec, aggregate_blocks, member_forecast_matrix, run_trials
from .evaluation import (
    DMResult,
    aggregate_metrics,
    diebold_mariano,
    dm_decision,
    point_errors,
)
from .loss import LossConfig, loss_components, loss_gradients, nmse, pmape
from .model import (
    ModelConfig,
    config_hash,
    decompose,
    init_params,
    loss_and_grad,
    model_forward,
    normalize_input,
)
from .train import (
    AdamState, Pool, TrainSchedule, TrainedMember, adam_step, build_pool, load_pool, train_one,
    training_set,
)

__version__ = "0.1.0"
