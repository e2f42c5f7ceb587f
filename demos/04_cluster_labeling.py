"""
Naming clusters and grading document membership
===============================================

A converged partition is numbers; readers want words. Matching cluster
centers against labeled reference profiles names each cluster, and the
membership spread sorts documents into strong, moderate and ambiguous.
"""

import numpy as np

from fuzzydocs import (
    FcmParams,
    FeatureMatrix,
    STRENGTHS,
    LabeledProfile,
    classify_strength,
    label_clusters,
    rank_documents,
    render_report_table,
    run_fcm,
)

features = ["stadium", "ball", "team", "democracy"]
docs = ["doc1", "doc2", "doc3", "doc4", "doc5", "doc6", "doc7", "doc8"]
wf = np.array([
    [180.0, 400.0, 200.0, 1.0],
    [200.0, 410.0, 250.0, 2.0],
    [5.0, 20.0, 40.0, 40.0],
    [3.0, 7.0, 35.0, 38.0],
    [210.0, 380.0, 180.0, 0.0],
    [7.0, 10.0, 20.0, 27.0],
    [190.0, 401.0, 170.0, 5.0],
    [2.0, 15.0, 26.0, 50.0],
])
init = np.array([
    [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
])
result = run_fcm(FeatureMatrix(docs, wf), FcmParams(c=2, init=init))

# Reference profiles measured on labeled corpora elsewhere. Only the
# selected feature dimensions participate in the match.
profiles = [
    LabeledProfile("sports", {"stadium": 203.2, "ball": 501.7,
                              "team": 250.6, "democracy": 1.1}),
    LabeledProfile("politics", {"stadium": 7.1, "ball": 30.2,
                                "team": 80.8, "democracy": 140.1}),
]
# labels[j] names cluster j
labels = label_clusters(result.centers, profiles, features)
print("cluster labels:", labels)
print()

# the report keeps the partition and, per document, two indexes: its top
# cluster (labels[report.top[i]] is its top label) and its strength class
# (STRENGTHS[report.strength[i]])
report = classify_strength(result.partition, docs, labels)
print(render_report_table(report))
print()

# rank_documents answers "which pieces are most clearly about sports?"
ranked = rank_documents(result.partition, docs, labels, "sports")
print("most sports-like first:",
      [f"{d} ({v:.3f})" for d, v in ranked])

# Strength classes make the soft part legible: a document over the
# strong threshold in one cluster is a safe exemplar, while a small gap
# between its top two memberships flags it for human review.
ambiguous = [doc_id for doc_id, k in zip(report.doc_ids, report.strength.tolist())
             if STRENGTHS[k] == "ambiguous"]
print("flagged as ambiguous:", ambiguous or "none")
