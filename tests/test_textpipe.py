"""Cleaning, tokenization, stopwords, and collocation merging."""

import csv
import json
import math
import unicodedata
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from egoflux.features import fit_tfidf, tfidf_matrix
from egoflux.textpipe import (
    _ALNUM_RUN,
    PhrasePipeline,
    TokenDoc,
    TokenDocs,
    apply_phrases,
    as_token_docs,
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


def _reference_apply(merges, tokens):
    """The per-list greedy merging pass the array merge replaces, kept as a reference."""
    out, i = [], 0
    while i < len(tokens):
        if i + 1 < len(tokens) and (tokens[i], tokens[i + 1]) in merges:
            out.append(tokens[i] + "_" + tokens[i + 1])
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


def _reference_remove_stopwords(tokens):
    stop = english_stopwords()
    return [t for t in tokens if t not in stop]


def _reference_pipeline(stages, tokens):
    for stage in stages:
        tokens = _reference_apply(stage, tokens)
    return tokens


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
            tokens = _reference_remove_stopwords(_reference_pipeline(pipeline.stages, tokens))
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


class TestArrayMergeMatchesPerList:
    """TokenDocs.merge and without_stopwords against the per-list forms."""

    @staticmethod
    def _check(token_lists, stages):
        merged = PhrasePipeline(stages=stages).merge(as_token_docs(token_lists))
        expected = [_reference_pipeline(stages, tokens) for tokens in token_lists]
        assert [d.tokens for d in merged] == expected
        assert ([d.tokens for d in merged.without_stopwords()]
                == [_reference_remove_stopwords(tokens) for tokens in expected])
        assert [apply_phrases(stages[0], t) for t in token_lists] == [
            _reference_apply(stages[0], t) for t in token_lists]

    def test_runs_of_one_repeated_token(self):
        # a a a -> a_a a: the walk merges the 1st and 3rd position of a run.
        docs = [["a"] * n for n in range(8)] + [["b", "a", "a", "a", "b", "a", "a"]]
        self._check(docs, [frozenset({("a", "a")})])
        assert apply_phrases(frozenset({("a", "a")}), ["a"] * 5) == ["a_a", "a_a", "a"]

    def test_pairs_across_doc_boundaries_never_merge(self):
        docs = [["x", "a"], ["b", "y"], ["a"], ["b"], [], ["a"], [], ["b", "a"], ["b"]]
        self._check(docs, [frozenset({("a", "b")})])
        merged = as_token_docs([["a"], ["b"]]).merge(frozenset({("a", "b")}))
        assert [d.tokens for d in merged] == [["a"], ["b"]]

    def test_second_stage_trigrams_over_first_stage_merges(self):
        stages = [frozenset({("new", "york"), ("york", "city"), ("city", "hall")}),
                  frozenset({("new_york", "city"), ("new_york", "city_hall"),
                             ("city_hall", "new_york")})]
        docs = [["new", "york", "city", "hall"], ["city", "hall", "new", "york", "city"],
                ["new", "york", "city", "new", "york"], ["new_york", "city"], ["york", "city"]]
        self._check(docs, stages)
        merged = PhrasePipeline(stages=stages).merge(as_token_docs(docs))
        assert merged[0].tokens == ["new_york_city_hall"]
        # A raw token spelled like a merged one is the same token.
        assert merged[3].tokens == ["new_york_city"]

    def test_empty_docs_and_empty_stages(self):
        self._check([[], ["a", "b"], [], [], ["b"], []],
                    [frozenset(), frozenset({("a", "b")}), frozenset()])
        self._check([[], []], [frozenset({("a", "b")})])
        self._check([["a", "b"]], [frozenset()])
        assert len(PhrasePipeline(stages=[frozenset({("a", "b")})]).merge(as_token_docs([]))) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d", "the", "of", "a_b"]
        docs = [rng.choice(vocab, size=int(rng.integers(0, 14))).tolist() for _ in range(300)]
        pairs = [(x, y) for x in vocab for y in vocab]
        first = frozenset(pairs[i] for i in rng.choice(len(pairs), size=10, replace=False))
        names = vocab + sorted({a + "_" + b for a, b in first})
        pairs = [(x, y) for x in names for y in names]
        second = frozenset(pairs[i] for i in rng.choice(len(pairs), size=30, replace=False))
        self._check(docs, [first, second])
        self._check(docs, [second, first])

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_fit(self, seed):
        rng = np.random.default_rng(100 + seed)
        vocab = ["a", "b", "c", "d", "e", "the"]
        docs = [rng.choice(vocab, size=int(rng.integers(0, 10)), p=[.3, .3, .1, .1, .1, .1]
                           ).tolist() for _ in range(400)]
        expected_stages, expected_docs = _reference_merge_stages(docs, 3, 0.5)
        pipeline = fit_phrase_pipeline(docs, min_count=3, threshold=0.5)
        assert pipeline.stages == expected_stages
        assert expected_stages[0] and expected_stages[1]
        assert [d.tokens for d in pipeline.merge(as_token_docs(docs))] == expected_docs


class TestTokenDocs:
    def test_reads_like_a_list_of_token_docs(self):
        docs = build_token_docs(_posts(["Garden soil", "", "soil garden soil"]))
        assert isinstance(docs, TokenDocs)
        assert len(docs) == 3
        assert docs[-1] == docs[2] == TokenDoc("p2", ["soil", "garden", "soil"])
        assert list(docs) == [docs[0], docs[1], docs[2]]
        assert docs == [TokenDoc("p0", ["garden", "soil"]), TokenDoc("p1", []), docs[2]]
        assert docs.names == ["garden", "soil"] and docs.ids.dtype == np.int32
        assert docs.offsets.tolist() == [0, 2, 2, 5]
        with pytest.raises(IndexError):
            docs[3]


def _reference_tfidf(model, docs):
    """TF-IDF rows built by looking up each doc's token strings, kept as a reference."""
    term_ids, indptr = [], [0]
    for doc in docs:
        term_ids.extend(j for j in map(model.vocabulary.get, doc.tokens) if j is not None)
        indptr.append(len(term_ids))
    A = sparse.csr_matrix(
        (np.ones(len(term_ids)), np.asarray(term_ids, dtype=int), np.asarray(indptr, dtype=int)),
        shape=(len(docs), model.dim))
    A.sum_duplicates()
    A.data *= model.idf[A.indices]
    for start, stop in zip(A.indptr[:-1].tolist(), A.indptr[1:].tolist()):
        if stop > start:
            row = A.data[start:stop]
            row /= math.sqrt(row.dot(row))
    return A


def _reference_fit_tfidf(docs, min_df):
    df = {}
    for doc in docs:
        for token in set(doc.tokens):
            df[token] = df.get(token, 0) + 1
    vocab = sorted(t for t, c in df.items() if c >= min_df)
    return vocab, [math.log((1 + len(docs)) / (1 + df[t])) + 1.0 for t in vocab]


class TestTfidfFromIdArrays:
    """TF-IDF models and rows read off the id array equal the string-built ones."""

    @staticmethod
    def _assert_bit_equal(A, B):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert A.shape == B.shape

    def test_fixture_corpus(self):
        posts = [SimpleNamespace(id=r["id"], text=r["text"], author=r["author"])
                 for r in _fixture_rows()]
        ego = [p for p in posts if p.author == "ego"]
        phrases = fit_phrase_pipeline(build_token_docs(ego))
        ego_docs = build_token_docs(ego, phrases)
        model = fit_tfidf(ego_docs)
        vocab, idf = _reference_fit_tfidf(list(ego_docs), min_df=2)
        assert list(model.vocabulary) == vocab and model.idf.tolist() == idf
        alter_docs = build_token_docs([p for p in posts if p.author != "ego"], phrases)
        for docs in (ego_docs, alter_docs):
            expected = _reference_tfidf(model, list(docs))
            self._assert_bit_equal(tfidf_matrix(model, docs), expected)
            self._assert_bit_equal(tfidf_matrix(model, list(docs)), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_random_docs(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(60)]
        docs = [TokenDoc(f"d{i}", rng.choice(words, size=int(rng.integers(0, 40))).tolist())
                for i in range(300)]
        model = fit_tfidf(docs[:150], min_df=3)
        vocab, idf = _reference_fit_tfidf(docs[:150], min_df=3)
        assert list(model.vocabulary) == vocab and model.idf.tolist() == idf
        self._assert_bit_equal(tfidf_matrix(model, as_token_docs(docs)),
                               _reference_tfidf(model, docs))
