"""Cleaning, tokenization, stopwords, and collocation merging."""

import csv
import json
import math
import unicodedata
from types import SimpleNamespace

import numpy as np
import pytest

from egoflux.textpipe import (
    _ALNUM_RUN,
    PhrasePipeline,
    apply_phrases,
    build_token_docs,
    clean,
    english_stopwords,
    fit_phrase_pipeline,
    fit_phrases,
    remove_stopwords,
    tokenize,
)
from tests.conftest import FIXTURE_CORPUS_CSV, make_post


def _reference_clean(text):
    """The per-character `clean` the regex replaces, kept as a reference."""
    pieces = []
    for token in unicodedata.normalize("NFC", text).split():
        if token.lower().startswith(("http://", "https://", "www.")) or token.startswith("@"):
            continue
        if token.startswith("#"):
            token = token[1:]
        token = token.replace("'", "").replace("\u2019", "")
        chars = [ch if ch.isalnum() else " " for ch in token]
        for piece in "".join(chars).lower().split():
            if piece != "rt":
                pieces.append(piece)
    return " ".join(pieces)


def _fixture_rows():
    with open(FIXTURE_CORPUS_CSV, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def fixture_ego_docs():
    return [tokenize(clean(r["text"])) for r in _fixture_rows() if r["author"] == "ego"]


class TestClean:
    def test_lowercases(self):
        assert clean("Great Day") == "great day"

    def test_urls_dropped(self):
        assert clean("look https://t.co/abc now") == "look now"
        assert clean("see www.example.com please") == "see please"

    def test_mentions_dropped(self):
        assert clean("thanks @someone for this") == "thanks for this"

    def test_rt_marker_dropped(self):
        assert clean("RT @someone: the message") == "the message"

    def test_hashtag_keeps_word(self):
        assert clean("big #economy news") == "big economy news"

    def test_apostrophes_join_word(self):
        assert clean("don't can't") == "dont cant"

    def test_punctuation_splits_tokens(self):
        assert clean("win,lose;draw") == "win lose draw"
        assert clean("over-the-top!") == "over the top"

    def test_idempotent(self):
        raw = "RT @x: Don't miss #This, great-stuff https://t.co/q!"
        once = clean(raw)
        assert clean(once) == once

    def test_empty_and_whitespace(self):
        assert clean("") == ""
        assert clean("   ") == ""

    def test_matches_reference_on_fixture_texts(self):
        texts = [r["text"] for r in _fixture_rows()]
        assert [clean(t) for t in texts] == [_reference_clean(t) for t in texts]

    @pytest.mark.parametrize("text", [
        "İstanbul", "snake_case", "x²", "½", "١٢٣", "ﬁne", "ΣΑΣ-Χ", "x\u0301y",
        "ǅemal", "RT rt #RT",
    ])
    def test_matches_reference_on_unicode_edges(self, text):
        assert clean(text) == _reference_clean(text)

    def test_alnum_runs_are_exactly_isalnum(self):
        every = "".join(map(chr, range(0x110000)))
        assert "".join(_ALNUM_RUN.findall(every)) == "".join(c for c in every if c.isalnum())


class TestTokenize:
    def test_splits_on_whitespace(self):
        assert tokenize("alpha beta gamma") == ["alpha", "beta", "gamma"]

    def test_single_chars_dropped(self):
        assert tokenize("a big x day") == ["big", "day"]

    def test_pure_digits_dropped_mixed_kept(self):
        assert tokenize("2020 was b4 now") == ["was", "b4", "now"]


class TestStopwords:
    def test_common_words_present(self):
        stop = english_stopwords()
        for w in ("the", "and", "of", "to", "is"):
            assert w in stop

    def test_removal_keeps_order(self):
        assert remove_stopwords(["the", "market", "is", "rising"]) == ["market", "rising"]

    def test_merged_ngrams_survive(self):
        assert remove_stopwords(["of_course"]) == ["of_course"]


def _reference_merge_stages(docs, min_count, threshold):
    """The count-and-score rule the merge sets replace, kept as a reference.

    Each stage keeps every unigram and pair count and scores a pair when it
    is applied; an unseen pair never qualifies.
    """
    current = [list(d) for d in docs]
    stages = []
    for _ in range(2):
        token_counts, pair_counts, total = {}, {}, 0
        for doc in current:
            for t in doc:
                token_counts[t] = token_counts.get(t, 0) + 1
                total += 1
            for a, b in zip(doc, doc[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1

        def qualifies(a, b):
            pair = pair_counts.get((a, b), 0)
            ca, cb = token_counts.get(a, 0), token_counts.get(b, 0)
            if pair == 0 or ca == 0 or cb == 0:
                return False
            return (pair - min_count) * total / (ca * cb) > threshold

        def merge(tokens):
            out, i = [], 0
            while i < len(tokens):
                if i + 1 < len(tokens) and qualifies(tokens[i], tokens[i + 1]):
                    out.append(tokens[i] + "_" + tokens[i + 1])
                    i += 2
                else:
                    out.append(tokens[i])
                    i += 1
            return out

        stages.append({pair for pair in pair_counts if qualifies(*pair)})
        current = [merge(doc) for doc in current]
    return stages, current


# (stock, market) scores (10 - 2) * 50 / (10 * 10) = 4.0 exactly.
STOCK_MARKET_DOCS = [["stock", "market"]] * 10 + [[f"filler{i}"] for i in range(30)]


class TestPhraseScoring:
    def test_score_formula(self):
        below = fit_phrases(STOCK_MARKET_DOCS, min_count=2, threshold=math.nextafter(4.0, 0))
        at = fit_phrases(STOCK_MARKET_DOCS, min_count=2, threshold=4.0)
        assert below == {("stock", "market")}
        assert at == frozenset()

    def test_pair_at_min_count_scores_zero(self):
        # score (2 - 2) * 4 / (2 * 2) = 0, below any positive threshold
        assert fit_phrases([["a", "b"]] * 2, min_count=2, threshold=1e-300) == frozenset()

    def test_unseen_pair_never_qualifies(self):
        merges = fit_phrases(STOCK_MARKET_DOCS, min_count=2, threshold=1.0)
        assert ("market", "stock") not in merges
        assert apply_phrases(merges, ["market", "stock"]) == ["market", "stock"]

    def test_fit_validates_params(self):
        with pytest.raises(ValueError):
            fit_phrases([["a"]], min_count=0)
        with pytest.raises(ValueError):
            fit_phrases([["a"]], threshold=0.0)
        with pytest.raises(ValueError):
            fit_phrases([[], []])

    @pytest.mark.parametrize("min_count,threshold", [(5, 10.0), (2, 1.0)])
    def test_matches_reference_rule_on_fixture_ego(self, fixture_ego_docs, min_count,
                                                   threshold):
        expected_stages, expected_docs = _reference_merge_stages(
            fixture_ego_docs, min_count, threshold)
        pipeline = fit_phrase_pipeline(fixture_ego_docs, min_count=min_count,
                                       threshold=threshold)
        assert pipeline.stages == expected_stages
        assert expected_stages[0]
        assert [pipeline.apply(d) for d in fixture_ego_docs] == expected_docs


class TestApplyPhrases:
    def test_greedy_left_to_right(self):
        # Both (a,b) and (b,c) merge; the left pair wins and consumes b.
        merges = frozenset({("a", "b"), ("b", "c")})
        assert apply_phrases(merges, ["a", "b", "c"]) == ["a_b", "c"]

    def test_merged_output_tokens(self):
        merges = fit_phrases(STOCK_MARKET_DOCS, min_count=2, threshold=1.0)
        assert apply_phrases(merges, ["stock", "market", "news"]) == ["stock_market", "news"]

    def test_non_qualifying_untouched(self):
        merges = fit_phrases(STOCK_MARKET_DOCS, min_count=2, threshold=10.0)
        assert apply_phrases(merges, ["stock", "market"]) == ["stock", "market"]

    def test_empty_merge_set_returns_a_copy(self):
        tokens = ["a", "b", "a"]
        out = apply_phrases(frozenset(), tokens)
        assert out == tokens and out is not tokens


class TestPhrasePipeline:
    def test_two_passes_merge_trigram(self):
        # pass 1: (new,york) and (york,city) score (20-2)*120/400 = 5.4 and
        # greedy merging keeps new_york; pass 2: (new_york,city) scores
        # (20-2)*100/400 = 4.5; all > 1
        docs = [["new", "york", "city"]] * 20 + [[f"filler{i}"] for i in range(60)]
        pipeline = fit_phrase_pipeline(docs, min_count=2, threshold=1.0)
        assert pipeline.stages == [{("new", "york"), ("york", "city")},
                                   {("new_york", "city")}]
        out = pipeline.apply(["new", "york", "city", "fun"])
        assert out == ["new_york_city", "fun"]

    def test_single_dominant_bigram(self):
        docs = [["heat", "wave"]] * 20 + [[f"filler{i}"] for i in range(60)]
        pipeline = fit_phrase_pipeline(docs, min_count=2, threshold=1.0)
        assert pipeline.apply(["heat", "wave", "now"]) == ["heat_wave", "now"]

    def test_accepts_token_docs(self):
        posts = [make_post(str(i), "x", "2020-03-01T10:00:00", "stock market")
                 for i in range(10)] + [
            make_post(f"f{i}", "x", "2020-03-01T10:00:00", f"unrelated{i} text{i}")
            for i in range(20)
        ]
        docs = build_token_docs(posts)
        pipeline = fit_phrase_pipeline(docs, min_count=2, threshold=1.0)
        merged = build_token_docs(posts, pipeline=pipeline)
        assert merged[0].tokens == ["stock_market"]

    def test_roundtrip_dict(self):
        docs = [["new", "york", "city"]] * 20 + [[f"filler{i}"] for i in range(60)]
        pipeline = fit_phrase_pipeline(docs, min_count=2, threshold=1.0)
        payload = json.dumps(pipeline.to_dict(), sort_keys=True)
        again = PhrasePipeline.from_dict(json.loads(payload))
        assert again.stages == pipeline.stages
        assert json.dumps(again.to_dict(), sort_keys=True) == payload
        assert again.apply(["new", "york", "city"]) == ["new_york_city"]


class TestBuildTokenDocs:
    def test_full_path_with_stop_removal(self):
        posts = [
            make_post("p1", "x", "2020-03-01T10:00:00",
                      "RT @y: The Stock Market hit a record! https://t.co/z #markets"),
        ]
        docs = build_token_docs(posts, PhrasePipeline())
        assert docs[0].post_id == "p1"
        assert docs[0].tokens == ["stock", "market", "hit", "record", "markets"]

    def test_stopwords_kept_by_default(self):
        posts = [make_post("p1", "x", "2020-03-01T10:00:00", "the market")]
        assert build_token_docs(posts)[0].tokens == ["the", "market"]

    def test_stopword_only_post_yields_empty_doc(self):
        posts = [make_post("p1", "x", "2020-03-01T10:00:00", "that is the it")]
        docs = build_token_docs(posts, PhrasePipeline())
        assert docs[0].tokens == []


# Texts whose whitespace tokens exercise every branch of `clean`.
EDGE_TEXTS = [
    "a \u0301b caf\u00e9 cafe\u0301 e\u0301",
    "\u0301\u0301 x\u0301y",
    "\u0130stanbul \u0130STANBUL istanbul",
    "don't don\u2019t it's 'quoted' \u2019tis",
    "#tag #Tag #tag_two #### @user: @user RT rt Rt RT: #RT",
    "HTTPS://Example.COM/x Www.Site.org http://t.co/A https:/nota url.com",
    "route66 2021 42nd a_b snake_case __init__ 3 x",
    "left\u00a0right wide\u2003space tab\there new\nline \r\n end\u2028sep",
    "",
    " \t\n\u00a0",
    "new york city new york city hall",
    "garden soil garden #garden soil, garden.",
    "garden soil garden #garden soil, garden.",
]


def _reference_docs(posts, pipeline=None):
    """build_token_docs as the per-post composition it stands for."""
    docs = []
    for post in posts:
        tokens = tokenize(clean(post.text))
        if pipeline is not None:
            tokens = remove_stopwords(pipeline.apply(tokens))
        docs.append((post.id, tokens))
    return docs


def _posts(texts):
    return [SimpleNamespace(id=f"p{i}", text=t) for i, t in enumerate(texts)]


class TestBuildTokenDocsEquivalence:
    """Cleaning each distinct whitespace token once equals cleaning each post."""

    PIPELINE = PhrasePipeline(stages=[frozenset({("new", "york"), ("garden", "soil")}),
                                      frozenset({("new_york", "city")})])

    @pytest.mark.parametrize("pipeline", [None, PIPELINE])
    def test_edge_texts(self, pipeline):
        posts = _posts(EDGE_TEXTS)
        docs = build_token_docs(posts, pipeline)
        assert [(d.post_id, d.tokens) for d in docs] == _reference_docs(posts, pipeline)

    def test_repeated_tokens_get_fresh_lists(self):
        docs = build_token_docs(_posts(["garden soil", "garden soil"]))
        assert docs[0].tokens == docs[1].tokens == ["garden", "soil"]
        docs[0].tokens.append("x")
        assert docs[1].tokens == ["garden", "soil"]

    def test_seeded_random_texts(self):
        alphabet = list("aAbZ09_'#@:.,-/ \t\n") + [
            "\u0301", "\u0307", "\u0130", "\u00e9", "\u2019", "\u00a0", "\u2003",
            "\u00df", "\u1e9e", "\uac00", "\u1100", "\u1161", "http://", "www.", "RT", "rt",
        ]
        rng = np.random.default_rng(11)
        texts = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 30))).tolist())
                 for _ in range(500)]
        posts = _posts(texts)
        docs = build_token_docs(posts)
        assert [(d.post_id, d.tokens) for d in docs] == _reference_docs(posts)

    def test_fixture_corpus_with_fitted_phrases(self):
        posts = [SimpleNamespace(id=r["id"], text=r["text"]) for r in _fixture_rows()]
        phrases = fit_phrase_pipeline(build_token_docs(posts))
        assert phrases.stages[0]
        docs = build_token_docs(posts, phrases)
        assert [(d.post_id, d.tokens) for d in docs] == _reference_docs(posts, phrases)
