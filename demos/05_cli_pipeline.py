"""
The batch pipeline end to end
=============================

The three subcommands chained on a throwaway corpus: measure labeled
samples and pick features, cluster an unlabeled corpus, then name the
clusters and print the report. Each step echoes the equivalent shell
command before running it in-process.
"""

import tempfile
from pathlib import Path

from fuzzydocs.cli import main

SPORTS = {
    "opener.txt": "The team won at the stadium. A fine ball game, a deserved win.",
    "final.txt": "Fans packed the stadium as the team chased the ball all night.",
}
POLITICS = {
    "speech.txt": "The candidate praised democracy and promised electoral reform.",
    "rally.txt": "Democracy was the theme as the candidate rallied the voters.",
}
UNLABELED = {
    "a.txt": "The stadium roared when the team finally took the ball forward.",
    "b.txt": "A quiet rally: the candidate spoke of democracy and little else.",
    "c.txt": "Ball control won the team the match in a tense stadium.",
    "d.txt": "Voters asked the candidate hard questions about democracy.",
}


def write_corpus(root: Path, name: str, files: dict[str, str]) -> Path:
    d = root / name
    d.mkdir()
    for fname, text in files.items():
        (d / fname).write_text(text, encoding="utf-8")
    return d


def run(argv: list[str]) -> None:
    # flush so the echoed command stays ahead of the subcommand's own
    # output when stdout is piped
    print("$ fuzzydocs " + " ".join(argv), flush=True)
    code = main(argv)
    print(f"(exit {code})\n", flush=True)
    assert code == 0


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    sports_dir = write_corpus(root, "sports", SPORTS)
    politics_dir = write_corpus(root, "politics", POLITICS)
    corpus_dir = write_corpus(root, "incoming", UNLABELED)

    features = root / "features.json"
    result = root / "result.json"
    report = root / "report.json"

    # step 1: learn discriminative features from the labeled samples.
    # Thresholds are loose because the corpora are four sentences long.
    run(["features",
         "--samples", f"sports={sports_dir}",
         "--samples", f"politics={politics_dir}",
         "--top-k", "4", "--min-ratio", "2.0", "--min-wf", "5.0",
         "--out", str(features)])

    # step 2: cluster the unlabeled corpus on those features. The seed
    # fixes which documents the start draws as centers, so reruns are
    # identical.
    run(["cluster",
         "--corpus", str(corpus_dir),
         "--features", str(features),
         "--clusters", "2", "--seed", "7",
         "--out", str(result)])

    # step 3: name the clusters with the measured profiles, which hold
    # each label's WF of the selected features, and grade each
    # document's membership.
    run(["report",
         "--result", str(result),
         "--profiles", str(features.with_name("sports.profile.json")),
         "--profiles", str(features.with_name("politics.profile.json")),
         "--out", str(report)])

    print("report written to", report.name)
