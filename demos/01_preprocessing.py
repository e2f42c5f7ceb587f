"""
From raw HTML to a clean term list
==================================

Every stage of the text cleaner, run one at a time on the same snippet
so you can watch the document shrink.
"""

from fuzzydocs import (
    PreprocessConfig,
    default_stopwords,
    preprocess_document,
    strip_markup,
    tokenize,
)

snippet = (
    "<h2>Match report</h2>"
    "<p>The <b>batsman</b> smashed the ball &amp; it went for a sixer. "
    "He was driving beautifully all evening.</p>"
)

# stage 1: markup removal. Tags become spaces, entities become text.
flat = strip_markup(snippet)
print("stripped :", flat.strip())

# stage 2: tokenization. Lowercase; any character but ASCII a-z and 0-9 splits terms.
tokens = tokenize(flat)
print("tokens   :", tokens)

# stage 3: stopword removal. The built-in English list covers the usual
# function words; pass your own set to override it.
stop = default_stopwords()
kept = [t for t in tokens if t not in stop]
print("kept     :", kept)

# stage 4: stemming. Inflected forms collapse onto a shared stem, so
# "driving" and "drove" count toward the same feature... almost: stems
# are not always dictionary words, and that is fine.
# preprocess_document runs all four stages and returns the terms as a
# tuple.
print("stemmed  :", preprocess_document(snippet))

# The whole pipeline is configurable. Bigrams append adjacent-pair
# terms, which helps phrases like "gold medal" survive as one feature.
cfg = PreprocessConfig(bigrams=True)
print("bigrams  :", preprocess_document(snippet, cfg))
