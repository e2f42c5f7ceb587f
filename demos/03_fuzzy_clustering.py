"""
Fuzzy c-means on an eight-document corpus
=========================================

Eight documents summarized by the frequencies of four terms. Half the
corpus talks about sports, half about politics, and two or three pieces
mix both, which is exactly the situation where soft memberships beat a
hard assignment.
"""

from dataclasses import replace

import numpy as np

from fuzzydocs import FcmParams, FeatureMatrix, harden, run_fcm

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
x = FeatureMatrix(docs, wf)

# Start from a deliberately wrong crisp guess: odd documents in cluster
# one, even in cluster two. The loop has to untangle it.
init = np.array([
    [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
])

params = FcmParams(c=2, fuzzifier=2.0, epsilon=0.001, init=init)
result = run_fcm(x, params)

print(f"converged after {result.iterations} iterations")
for i, j in enumerate(result.objective_history, start=1):
    print(f"  iteration {i}: objective {j:12.2f}")
print()

print("final memberships (rows are clusters):")
for j in range(2):
    row = "  ".join(f"{u:.3f}" for u in result.partition[j])
    print(f"  cluster {j}: {row}")
print()

print("cluster centers:")
for j, center in enumerate(result.centers):
    pairs = ", ".join(f"{t}={v:.1f}" for t, v in zip(features, center))
    print(f"  cluster {j}: {pairs}")
print()

# Hardening snaps each document to its strongest cluster when a crisp
# answer is needed downstream.
assignment = harden(result.partition)
for j in range(2):
    members = [d for d, g in zip(docs, assignment) if g == j]
    print(f"cluster {j} members: {members}")

# The engine is deterministic, so a run stopped after k iterations holds
# exactly the memberships of iteration k: a way to watch them firm up.
u11 = [float(run_fcm(x, replace(params, max_iters=k)).partition[0, 0])
       for k in range(1, result.iterations + 1)]
print("doc1 membership in cluster 0 by iteration:",
      [round(v, 3) for v in u11])
