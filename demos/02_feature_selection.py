"""
Picking features that tell corpora apart
========================================

Word frequencies are normalized per ten thousand terms, so documents of
different lengths are comparable. A term is discriminative when its
frequency differs sharply between labeled corpora.
"""

from fuzzydocs import (
    LabeledProfile,
    build_profile,
    preprocess_document,
    score_terms,
    select_features,
)

# Two tiny labeled corpora. Real ones would be directories of files;
# three sentences each is enough to see the mechanics.
sports_docs = [
    "The team won the match at the new stadium.",
    "A brilliant ball, the team celebrates the win.",
    "Fans filled the stadium to watch the ball game.",
]
politics_docs = [
    "The candidate spoke about democracy and reform.",
    "Voters want democracy, said the candidate.",
    "The campaign team promised a stronger democracy.",
]

# Profiles are measured on cleaned documents, so preprocessing runs
# first. Stemming means the profile keys are stems, not surface forms.
sports = build_profile("sports", [preprocess_document(d) for d in sports_docs])
politics = build_profile("politics", [preprocess_document(d) for d in politics_docs])

print("sports profile  :", {t: round(v, 1) for t, v in sorted(sports.wf.items())})
print("politics profile:", {t: round(v, 1) for t, v in sorted(politics.wf.items())})
print()

# Every term gets a ratio: highest frequency across profiles divided by
# the lowest (plus one, so absence does not blow up the quotient).
for term, ratio in score_terms([sports, politics]):
    print(f"  {term:<12} ratio {ratio:8.2f}")
print()

# Selection keeps terms whose ratio and support clear the thresholds,
# best ratio first.
chosen = select_features([sports, politics], top_k=4, min_ratio=2.0, min_wf=5.0)
print("selected features:", chosen)

# Profiles round-trip through plain dicts too, which is handy when the
# reference frequencies come from somewhere else entirely.
hand_built = LabeledProfile("weather", {"rain": 120.0, "storm": 40.0})
print("hand-built profile:", hand_built.label, hand_built.wf)
