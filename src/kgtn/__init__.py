"""Knowledge-enhanced multi-intent recommender at desk scale.

The library couples a masked graph transformer over user-item interactions
with relation-aware knowledge aggregation, learnable intent prototypes,
Gumbel top-k knowledge denoising, a layer-wise local-global contrastive
objective, and pairwise-ranking multi-task training, all on a minimal
float64 reverse-mode autodiff substrate.

Importing the package sets the process's glibc allocator policy once (see
`HEAP_KEPT`).
"""

import ctypes

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

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_MAX = 32 << 20   # glibc's ceiling on 64-bit: half its 64 MiB heap
_INT_MAX = 2**31 - 1


def _keep_heap(libc):
    """Keep freed blocks up to 32 MiB in one heap; True when the policy took.

    Every step and evaluation frees (E, d) arrays of several MB; glibc
    would unmap or trim them and fault their pages in again on the next
    step. Both thresholds are set together: setting either one switches
    off glibc's dynamic adjustment of both. The cost: freed memory stays
    with the process, so RSS does not fall after a peak, and blocks above
    32 MiB are still mapped afresh each time.

    The process also keeps one arena: a worker thread (`infonce`,
    `recall_at_k`) allocates from, and frees into, the heap the calling
    thread reuses, instead of an arena of its own that would keep its
    freed blocks apart. So a worker allocates every buffer of its job
    itself, and what it frees serves the next allocation on any thread.
    The cost: every thread of the importing process, its own threads too,
    shares that arena and its lock, so threads that allocate at the same
    time wait on each other.

    A libc without `mallopt`, or one that refuses the mmap threshold, is
    left unchanged (the trim and arena calls, which glibc never refuses,
    come after it).
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
            and mallopt(_M_TRIM_THRESHOLD, _INT_MAX) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


# True when this process's freed blocks up to 32 MiB stay in its one heap.
HEAP_KEPT = _keep_heap(ctypes.CDLL(None))
