"""Knowledge-enhanced multi-intent recommender at desk scale.

The library couples a masked graph transformer over user-item interactions
with relation-aware knowledge aggregation, learnable intent prototypes,
Gumbel top-k knowledge denoising, a layer-wise local-global contrastive
objective, and pairwise-ranking multi-task training, all on a minimal
float64 reverse-mode autodiff substrate.
"""

from .autodiff import Tape, Tensor, constant, parameter
from .config import ExperimentConfig, parse_config
from .data import (
    Dataset,
    InteractionGraph,
    KnowledgeGraph,
    Split,
    build_dataset,
    generate_synthetic,
    inject_noise,
    load_dataset,
    load_interactions,
    load_kg,
    make_split,
    negative_sample,
    synthetic_dataset,
    write_dataset,
)
from .denoise import (
    LayerStack,
    SampledGraphView,
    contrastive_loss,
    gumbel_perturb,
    light_aggregate,
    sample_topk,
)
from .experiments import (
    MetricReport,
    MetricRow,
    evaluate_model,
    noise_robustness,
    recall_at_k,
    run_ablation,
)
from .gradcheck import check_gradients, full_model_check
from .intents import (
    GlobalState,
    forward_global,
    intent_assignment,
    intent_mix,
    kg_aggregate,
    transformer_layer,
)
from .metrics import auc, f1
from .training import (
    Adam,
    FitResult,
    ModelParameters,
    bpr_loss,
    fit,
    load_checkpoint,
    predict,
    save_checkpoint,
    total_loss,
)

__version__ = "0.1.0"
