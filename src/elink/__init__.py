"""Desk-scale neural entity linking toolkit.

Library and CLI for pretraining a Transformer disambiguation model on
entity-labeled text, fine-tuning with alias-table or full-vocabulary
softmax, and evaluating disambiguation accuracy and end-to-end
strong-matching micro-F1.
"""

# first: it caps glibc's malloc arenas before any elink thread allocates
from . import threads  # noqa: F401
from .aliastable import AliasTable, RedirectMap, normalize_alias, resolve, table_stats
from .candidates import (
    CandidateConfig,
    CandidateSet,
    PageLinks,
    assemble_candidates,
    batch_negatives,
    load_phrase_table,
    page_candidates,
    phrase_candidates,
)
from .corpus import (
    CharMention,
    Context,
    Document,
    EntityVocab,
    MentionLabel,
    TokenVocab,
    align_spans,
    chunk_document,
    sentence_contexts,
    tokenize,
    window_contexts,
)
from .evaluation import disambiguation_accuracy, strong_matching_micro_f1
from .model import (
    ModelConfig,
    ModelParams,
    backward,
    bio_loss,
    encode,
    linking_loss,
    load_checkpoint,
    predict_end_to_end,
    rank_entities,
    save_checkpoint,
    score_and_prob,
    span_repr,
    total_loss,
)
from .noising import NoiseConfig, apply_noise
from .training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    clip_gradients,
    finetune,
    lr_schedule,
    pretrain,
)

__version__ = "0.1.0"
