"""Fuzzy document clustering over word-frequency features.

The pipeline runs in four stages, one module each:

- :mod:`fuzzydocs.preprocess` turns raw text or HTML into a tuple of terms
  (markup stripping, tokenization, stopword removal, stemming, optional
  bigrams);
- :mod:`fuzzydocs.features` counts terms, scales them to word
  frequencies per 10000 (one WF row per document), and selects
  discriminative features by comparing labeled corpus profiles;
- :mod:`fuzzydocs.fcm` clusters the document vectors with fuzzy
  c-means, exposing each update step as well as the full loop;
- :mod:`fuzzydocs.labeling` names the clusters after the nearest
  profiles and grades per-document membership strength.

:mod:`fuzzydocs.cli` wires the stages into a batch command-line tool.
"""

from .fcm import FcmParams, FeatureMatrix, harden, run_fcm
from .features import LabeledProfile, build_profile, score_terms, select_features
from .labeling import (
    STRENGTHS,
    StrengthReport,
    classify_strength,
    label_clusters,
    rank_documents,
    render_report_table,
)
from .preprocess import (
    PreprocessConfig,
    default_stopwords,
    preprocess_document,
    strip_markup,
    tokenize,
)

__version__ = "0.1.0"

# The names the README and the demos import; everything else is imported
# from its own module.
__all__ = [
    "STRENGTHS",
    "FcmParams",
    "FeatureMatrix",
    "LabeledProfile",
    "PreprocessConfig",
    "StrengthReport",
    "build_profile",
    "classify_strength",
    "default_stopwords",
    "harden",
    "label_clusters",
    "preprocess_document",
    "rank_documents",
    "render_report_table",
    "run_fcm",
    "score_terms",
    "select_features",
    "strip_markup",
    "tokenize",
]
