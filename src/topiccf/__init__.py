"""topiccf: hybrid collaborative filtering with latent item topics.

Learns item topics from text with collapsed-Gibbs LDA, projects users into
the same topic space as personas, and combines topic similarity with
rating-overlap similarity to build better user neighborhoods. Ships with
user-based and item-based CF baselines and a precision/recall/f-measure@K
evaluation harness.
"""
from .ingest import (
    ConfigurationError,
    DocumentCorpus,
    ParseError,
    RatingColumns,
    RatingDataset,
    RatingRangeError,
    RatingRecord,
    SplitPair,
    load_corpus,
    parse_ratings,
    split_train_test,
    write_ratings_csv,
)
from .lda import (
    EncodedCorpus,
    TopicModel,
    Vocabulary,
    build_vocabulary,
    corpus_log_likelihood,
    item_profiles,
    tokenize,
    topic_top_words,
    train_lda,
)
from .persona import PersonaTable, UserPersona, build_all_personas, build_persona
from .similarity import (
    SimilarityScore,
    hybrid_similarity,
    item_llr_similarity,
    llr_similarity,
    pearson_similarity,
    symmetric_kl,
    topic_similarity,
)
from .recommend import (
    NeighborSet,
    Recommendation,
    RecommendationList,
    build_neighborhood,
    recommend_hybrid,
    recommend_item_based,
    recommend_neighborhood,
    recommend_topic_only,
    recommend_user_based,
)
from .evaluate import (
    EvalReport,
    EvalRow,
    emit_report,
    evaluate_sweep,
    f_measure,
    precision_recall_at_k,
)

__version__ = "0.1.0"
