"""From raw post text to numeric features: cleaning, phrases, TF-IDF, embeddings.

Cleaning strips URLs, mentions, and retweet prefixes, lowercases, and keeps
hashtag words.  Two stacked bigram passes merge collocations ("stock market"
-> "stock_market", then optionally a third token).  Stopwords stay in for
phrase statistics and leave before TF-IDF.  When no external sentence-encoder
file is supplied, a seeded truncated SVD of the TF-IDF matrix stands in as
the embedding, so the whole pipeline remains deterministic.
"""

import numpy as np

from egoflux.features import FallbackProjector, fit_tfidf, tfidf_matrix
from egoflux.textpipe import (
    TokenDoc,
    clean,
    fit_phrase_pipeline,
    remove_stopwords,
    tokenize,
)

RAW = "RT @alice: The stock market closed UP again!! https://t.co/x #bullish"

CORPUS_TEXTS = [
    "the stock market rallied as the stock market index rose",
    "traders watched the stock market index before earnings",
    "a quiet day on the stock market as traders wait for earnings",
    "the stock market fell after the jobs report hit traders",
    "analysts expect the stock market index flat into earnings",
    "weather today: heavy rain and wind across the coast",
    "rain again, flooding near the river by the coast",
    "the forecast says more rain and flooding this week",
    "storm warnings and wind gusts posted for the coast",
    "the forecast calls for rain, wind, and a storm this weekend",
]


def main() -> None:
    print("== Cleaning and tokenizing ==")
    print(f"raw:     {RAW!r}")
    cleaned = clean(RAW)
    print(f"cleaned: {cleaned!r}")
    tokens = tokenize(cleaned)
    print(f"tokens:  {tokens}")
    print(f"without stopwords: {remove_stopwords(tokens)}")

    print("\n== Phrase detection ==")
    docs = [TokenDoc(post_id=f"d{i}", tokens=tokenize(clean(t)))
            for i, t in enumerate(CORPUS_TEXTS)]
    pipeline = fit_phrase_pipeline(docs, min_count=3, threshold=5.0)
    sample = tokenize(clean(CORPUS_TEXTS[0]))
    print(f"merge pairs per stage: {[sorted(stage) for stage in pipeline.stages]}")
    print(f"before: {sample}")
    print(f"after:  {pipeline.apply(sample)}")

    print("\n== TF-IDF ==")
    merged_docs = [
        TokenDoc(post_id=d.post_id,
                 tokens=remove_stopwords(pipeline.apply(d.tokens)))
        for d in docs
    ]
    model = fit_tfidf(merged_docs, min_df=2)
    print(f"vocabulary size: {model.dim}")
    A = tfidf_matrix(model, merged_docs)
    row = A[0]
    inverse = {i: t for t, i in model.vocabulary.items()}
    weights = sorted(zip(row.indices, row.data), key=lambda p: -p[1])[:5]
    print("top weights in doc 0:")
    for idx, val in weights:
        print(f"  {inverse[idx]:<16}{val:.4f}")

    print("\n== Fallback embeddings ==")
    emb = FallbackProjector.fit(A, dim=4, seed=42).transform(
        A, [d.post_id for d in merged_docs])
    a, b = emb.vectors["d0"], emb.vectors["d1"]   # two market docs
    c = emb.vectors["d6"]                          # a weather doc
    print(f"dim={emb.dim}")
    print(f"cos(market, market)  = {float(a @ b):.3f}")
    print(f"cos(market, weather) = {float(a @ c):.3f}")
    print("same-theme posts sit close; cross-theme posts do not.")


if __name__ == "__main__":
    main()
