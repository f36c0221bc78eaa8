"""TF-IDF vectors, embedding file IO, and the SVD fallback projector."""

import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

from egoflux.errors import EmbeddingFormatError
from egoflux.features import (
    EmbeddingSet,
    FallbackProjector,
    NORM_BLOCK,
    TfidfModel,
    fit_tfidf,
    load_embeddings,
    save_embeddings,
    tfidf_matrix,
)
from egoflux.textpipe import TokenDoc, build_token_docs, fit_phrase_pipeline

from conftest import FIXTURE_CORPUS_CSV, embedding_set


def docs_of(*token_lists):
    return [TokenDoc(post_id=f"d{i}", tokens=list(t)) for i, t in enumerate(token_lists)]


def _reference_transform(model, doc):
    """The former per-document TF-IDF transform, kept as the reference for rows."""
    counts = {}
    for token in doc.tokens:
        j = model.vocabulary.get(token)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    if not counts:
        return np.empty(0, dtype=int), np.empty(0)
    indices = np.array(sorted(counts), dtype=int)
    values = np.array([counts[j] for j in indices], dtype=float) * model.idf[indices]
    values /= np.linalg.norm(values)
    return indices, values


def _row(model, doc):
    return tfidf_matrix(model, [doc]).toarray()[0]


class TestFitTfidf:
    def test_two_doc_fixture_idf(self):
        # idf(t) = ln((1+n)/(1+df)) + 1 with n=2 docs
        model = fit_tfidf(docs_of(["a", "b"], ["a", "c"]), min_df=1)
        assert model.vocabulary == {"a": 0, "b": 1, "c": 2}
        assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[model.vocabulary["b"]] == pytest.approx(
            math.log(3 / 2) + 1, abs=1e-12
        )
        assert model.idf[model.vocabulary["b"]] == pytest.approx(1.405465, abs=1e-6)

    def test_vocabulary_sorted_alphabetically(self):
        model = fit_tfidf(docs_of(["zeta", "alpha", "mid"]), min_df=1)
        assert list(model.vocabulary) == ["alpha", "mid", "zeta"]
        assert list(model.vocabulary.values()) == [0, 1, 2]

    def test_min_df_filters_rare_tokens(self):
        model = fit_tfidf(docs_of(["a", "b"], ["a", "c"], ["a"]), min_df=2)
        assert set(model.vocabulary) == {"a"}

    def test_min_df_counts_docs_not_occurrences(self):
        # "b" appears 3 times but only in one doc
        model = fit_tfidf(docs_of(["b", "b", "b"], ["a"], ["a"]), min_df=2)
        assert set(model.vocabulary) == {"a"}

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_tfidf(docs_of(["a"]), min_df=0)
        with pytest.raises(ValueError):
            fit_tfidf(docs_of([], []))
        with pytest.raises(ValueError):
            fit_tfidf(docs_of(["a"], ["b"]), min_df=2)

    def test_roundtrip_dict(self):
        model = fit_tfidf(docs_of(["a", "b"], ["a", "c"]), min_df=1)
        again = TfidfModel.from_dict(model.to_dict())
        assert again.vocabulary == model.vocabulary
        np.testing.assert_allclose(again.idf, model.idf)
        assert again.to_dict() == model.to_dict()


class TestTransformTfidf:
    """TF-IDF rows as tfidf_matrix builds them."""

    def setup_method(self):
        self.model = fit_tfidf(docs_of(["a", "b"], ["a", "c"]), min_df=1)

    def test_fixture_values(self):
        vec = _row(self.model, TokenDoc("q", ["a", "a", "b"]))
        assert vec[self.model.vocabulary["a"]] == pytest.approx(0.818180, abs=1e-6)
        assert vec[self.model.vocabulary["b"]] == pytest.approx(0.574961, abs=1e-6)
        assert vec[self.model.vocabulary["c"]] == 0.0

    def test_unit_norm(self):
        vec = _row(self.model, TokenDoc("q", ["a", "b", "c", "c"]))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_oov_ignored(self):
        with_oov = _row(self.model, TokenDoc("q", ["a", "zzz"]))
        without = _row(self.model, TokenDoc("q", ["a"]))
        np.testing.assert_allclose(with_oov, without)

    def test_empty_doc_zero_vector(self):
        vec = _row(self.model, TokenDoc("q", []))
        assert vec.sum() == 0.0

    def test_matrix_rows_match_transforms(self):
        docs = docs_of(["a", "b"], ["c"], [])
        mat = tfidf_matrix(self.model, docs)
        assert mat.shape == (3, self.model.dim)
        for i, doc in enumerate(docs):
            indices, values = _reference_transform(self.model, doc)
            row = mat[i]
            np.testing.assert_array_equal(row.indices, indices)
            np.testing.assert_array_equal(row.data, values)

    def test_rows_bit_equal_reference_on_fixture_corpus(self):
        with open(FIXTURE_CORPUS_CSV, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        posts = [SimpleNamespace(id=r["id"], author=r["author"], text=r["text"])
                 for r in rows]
        raw_ego = build_token_docs([p for p in posts if p.author == "ego"])
        phrases = fit_phrase_pipeline(raw_ego)
        ego_docs = build_token_docs([p for p in posts if p.author == "ego"], pipeline=phrases)
        alter_docs = build_token_docs([p for p in posts if p.author != "ego"], pipeline=phrases)
        model = fit_tfidf(ego_docs)
        edge_docs = [TokenDoc("empty", []), TokenDoc("oov", ["zzz_oov", "qqq_oov"])]
        for docs in (ego_docs, alter_docs + edge_docs):
            mat = tfidf_matrix(model, docs)
            assert mat.shape == (len(docs), model.dim)
            for i, doc in enumerate(docs):
                indices, values = _reference_transform(model, doc)
                start, stop = mat.indptr[i], mat.indptr[i + 1]
                assert mat.indices[start:stop].tolist() == indices.tolist()
                assert mat.data[start:stop].tobytes() == values.tobytes()

    def test_data_bit_equal_per_row_norm_on_seeded_docs(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(300)]

        def draw(pool, low, high):
            return rng.choice(pool, size=int(rng.integers(low, high))).tolist()

        ego = [TokenDoc(f"e{i}", draw(words[:200], 1, 80)) for i in range(300)]
        model = fit_tfidf(ego, min_df=2)
        # Rows of every length 1..128 too, each length's own group of the
        # batched norm; tokens repeat, so the counts differ within a row.
        vocab = sorted(model.vocabulary)
        sized = []
        for n in range(1, 129):
            distinct = rng.choice(vocab, size=n, replace=False).tolist()
            sized.append(TokenDoc(f"n{n}", distinct + draw(distinct, 0, n + 1)))
        docs = (ego + [TokenDoc(f"a{i}", draw(words, 0, 120)) for i in range(300)] + sized
                + [TokenDoc(f"o{i}", draw(words[200:], 1, 10)) for i in range(20)]
                + [TokenDoc(f"z{i}", []) for i in range(20)])
        A = tfidf_matrix(model, docs)
        assert set(np.diff(A.indptr).tolist()) >= set(range(1, 129))
        rows = [_reference_transform(model, doc) for doc in docs]
        assert np.array_equal(A.indptr, np.cumsum([0] + [len(ix) for ix, _ in rows]))
        assert np.array_equal(A.indices, np.concatenate([ix for ix, _ in rows]))
        assert np.array_equal(A.data, np.concatenate([v for _, v in rows]))
        # Seeded docs repeat tokens; the OOV-only and empty docs are zero rows.
        assert any(len(set(d.tokens)) < len(d.tokens) for d in ego)
        assert A[-40:].nnz == 0


class TestEmbeddingIO:
    def _emb(self):
        return embedding_set({"p1": [1.0, 0.0], "p2": [0.5, 0.5]})

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_embeddings(self._emb(), path)
        loaded = load_embeddings(path)
        assert set(loaded.vectors) == {"p1", "p2"}
        np.testing.assert_allclose(loaded.vectors["p2"], [0.5, 0.5])
        assert loaded.dim == 2

    def test_jsonl_rows_sorted_by_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_embeddings(self._emb(), path)
        ids = [json.loads(line)["id"] for line in path.read_text().splitlines()]
        assert ids == sorted(ids)

    def test_csv_load(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,v0,v1\np1,1.0,0.0\np2,0.5,0.5\n", encoding="utf-8")
        loaded = load_embeddings(path)
        assert loaded.dim == 2
        np.testing.assert_allclose(loaded.vectors["p1"], [1.0, 0.0])

    @pytest.mark.parametrize("name, text", [
        ("emb.csv", "id,v0\ncaf\u00e9,1.0\n"),
        ("emb.jsonl", '{"id": "caf\u00e9", "v": [1.0]}\n'),
    ], ids=["csv", "jsonl"])
    def test_not_utf8_named(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(EmbeddingFormatError) as raised:
            load_embeddings(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xe9")

    def test_dim_mismatch_names_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "ok", "v": [1.0, 2.0]}\n{"id": "bad", "v": [1.0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(EmbeddingFormatError, match="bad"):
            load_embeddings(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "p1", "v": [1.0, NaN]}\n', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="p1"):
            load_embeddings(path)

    def test_jsonl_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "p1", "v": [1.0, 0.0]}\n{"id": "p2", "v": "xy"}\n',
                        encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r"emb\.jsonl:2: .*'xy'"):
            load_embeddings(path)

    def test_csv_non_numeric_component_names_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,v0,v1\np1,1.0,0.0\np2,0.5,zz\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=r"emb\.csv:3: .*'zz'"):
            load_embeddings(path)

    def test_strict_missing_doc_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "p1", "v": [1.0, 0.0]}\n', encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="p2"):
            load_embeddings(path, ids=["p1", "p2"])

    @pytest.mark.parametrize("text", ["\nid,v0\np1,1.0\n", ""],
                             ids=["blank_first_line", "empty_file"])
    def test_csv_without_header_names_file(self, tmp_path, text):
        path = tmp_path / "emb.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError,
                           match=r"emb\.csv: CSV header must start with 'id'"):
            load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("lines, message", [
        (['{"id": null, "v": [1.0]}'], r"emb\.jsonl:1: id None is not a string or an integer"),
        (['{"id": true, "v": [1.0]}'], r"emb\.jsonl:1: id True is not a string or an integer"),
        (['{"id": 1.0, "v": [1.0]}'], r"emb\.jsonl:1: id 1\.0 is not a string or an integer"),
        (['{"id": "p1", "v": [1.0]}', '{"id": " ", "v": [1.0]}'], r"emb\.jsonl:2: empty id"),
        (['{"id": "p1", "v": [true, false]}'],
         r"emb\.jsonl:1: v is not a list of numbers: \[True, False\]"),
        (['{"id": "p1", "v": [1.0, "2"]}'], r"emb\.jsonl:1: v is not a list of numbers: \[1\.0, '2'\]"),
        (['{"id": "p1", "v": [[1.0]]}'], r"emb\.jsonl:1: v is not a list of numbers: \[\[1\.0\]\]"),
        (['{"id": "p1", "v": 1.0}'], r"emb\.jsonl:1: v is not a list of numbers: 1\.0"),
        ([json.dumps({"id": "p1", "v": [0.5] * 99 + [None]})],
         r"emb\.jsonl:1: v is not a list of numbers: \[(0\.5, ){15}0\.5,"),  # cut at 80
        (['{"id": "p1", "v": []}'], r"emb\.jsonl:1: id 'p1' has no vector"),
        (['{"id": "p1", "v": [1.0]}', '', '{"id": "p1", "v": [2.0]}'],
         r"emb\.jsonl:3: duplicate id 'p1'"),
        (['{"id": 7, "v": [1.0]}', '{"id": "7", "v": [2.0]}'],
         r"emb\.jsonl:2: duplicate id '7'"),
        (['{"id": "p1", "v": [1.0]}', '{"id": "p2", "v": [1.0, 2.0]}'],
         r"emb\.jsonl:2: id 'p2' has dim 2, expected 1"),
        ([""], r"emb\.jsonl: file contains no vectors"),
    ], ids=["null_id", "bool_id", "float_id", "blank_id", "bool_components",
            "string_component", "nested_component", "v_not_list", "long_v_cut", "empty_v",
            "repeated_id",
            "repeated_integer_id", "dim_mismatch", "no_vectors"])
    def test_jsonl_refusal_names_line(self, tmp_path, lines, message):
        path = tmp_path / "emb.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=message + "$"):
            load_embeddings(path)

    @pytest.mark.parametrize("text, message", [
        ("id,v0\n,1.0\n", r"emb\.csv:2: empty id"),
        ("id,v0\np1,1.0\np2,2.0\np1,3.0\n", r"emb\.csv:4: duplicate id 'p1'"),
        ("id,v0\np1,1.0\np2,inf\n", r"emb\.csv:3: id 'p2' has NaN/Inf components"),
    ], ids=["empty_id", "repeated_id", "inf_component"])
    def test_csv_refusal_names_line(self, tmp_path, text, message):
        path = tmp_path / "emb.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=message + "$"):
            load_embeddings(path)

    def test_ids_follow_the_corpus_rule(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": 7, "v": [1, 2.5]}\n{"id": " p8 ", "v": [0.0, 1.0]}\n',
                        encoding="utf-8")
        loaded = load_embeddings(path)
        assert sorted(loaded.vectors) == ["7", "p8"]
        np.testing.assert_array_equal(loaded.vectors["7"], [1.0, 2.5])


def project(model, docs, dim, seed=42):
    """Fit the projector on the docs' TF-IDF rows and embed those rows."""
    A = tfidf_matrix(model, docs)
    return FallbackProjector.fit(A, dim, seed=seed).transform(A, [d.post_id for d in docs])


class TestFallbackProjector:
    def _fit_corpus(self, rng, n_docs=40, vocab=12, doc_len=8):
        words = [f"w{i:02d}" for i in range(vocab)]
        return [
            TokenDoc(f"d{i}", list(rng.choice(words, size=doc_len)))
            for i in range(n_docs)
        ]

    def test_full_rank_preserves_cosines(self):
        rng = np.random.default_rng(0)
        docs = self._fit_corpus(rng)
        model = fit_tfidf(docs, min_df=1)
        emb = project(model, docs, dim=model.dim)
        dense = tfidf_matrix(model, docs).toarray()
        low = emb.rows  # row i is doc i
        for i in range(0, 40, 7):
            for j in range(1, 40, 11):
                expected = float(dense[i] @ dense[j])
                got = float(low[i] @ low[j])
                assert got == pytest.approx(expected, abs=1e-6)

    def test_reduced_rank_correlates(self):
        rng = np.random.default_rng(1)
        docs = self._fit_corpus(rng, n_docs=60, vocab=20)
        model = fit_tfidf(docs, min_df=1)
        emb = project(model, docs, dim=10)
        dense = tfidf_matrix(model, docs).toarray()
        low = emb.rows
        full_cos, low_cos = [], []
        for i in range(60):
            for j in range(i + 1, 60):
                full_cos.append(float(dense[i] @ dense[j]))
                low_cos.append(float(low[i] @ low[j]))
        rho = spearmanr(full_cos, low_cos).statistic
        assert rho > 0.8

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(2)
        docs = self._fit_corpus(rng)
        model = fit_tfidf(docs, min_df=1)
        emb = project(model, docs, dim=6)
        for vec in emb.vectors.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_empty_doc_stays_zero(self):
        docs = docs_of(["a", "b"], ["a", "c"], [])
        model = fit_tfidf(docs, min_df=1)
        emb = project(model, docs, dim=2)
        assert np.linalg.norm(emb.vectors["d2"]) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        docs = self._fit_corpus(rng)
        model = fit_tfidf(docs, min_df=1)
        a = project(model, docs, dim=5, seed=42)
        b = project(model, docs, dim=5, seed=42)
        for pid in a.vectors:
            np.testing.assert_array_equal(a.vectors[pid], b.vectors[pid])

    def test_alter_side_reuses_components(self):
        rng = np.random.default_rng(4)
        fit_docs = self._fit_corpus(rng)
        model = fit_tfidf(fit_docs, min_df=1)
        projector = FallbackProjector.fit(tfidf_matrix(model, fit_docs), dim=5)
        again = FallbackProjector.from_dict(projector.to_dict())
        new_rows = tfidf_matrix(model, docs_of(["w00", "w01", "w02"]))
        out1 = projector.transform(new_rows, ["d0"])
        out2 = again.transform(new_rows, ["d0"])
        np.testing.assert_allclose(out1.vectors["d0"], out2.vectors["d0"], atol=1e-12)

    def test_rows_bit_equal_one_pass_norm_across_blocks(self):
        rng = np.random.default_rng(6)
        fit_docs = self._fit_corpus(rng)
        model = fit_tfidf(fit_docs, min_df=1)
        projector = FallbackProjector.fit(tfidf_matrix(model, fit_docs), dim=5)
        docs = self._fit_corpus(rng, n_docs=2 * NORM_BLOCK + 7) + [TokenDoc("empty", [])]
        A = tfidf_matrix(model, docs)
        emb = projector.transform(A, [d.post_id for d in docs])
        rows = np.asarray(A @ projector.components)
        norms = np.linalg.norm(rows, axis=1)
        rows[norms > 0] /= norms[norms > 0, None]
        assert emb.rows.tobytes() == rows.tobytes()
        assert list(emb.ids) == [d.post_id for d in docs]
        assert all(emb.vectors[d.post_id].tobytes() == rows[i].tobytes()
                   for i, d in enumerate(docs))
        assert not emb.vectors["empty"].any()

    def test_dim_larger_than_vocab_rejected(self):
        docs = docs_of(["a", "b"], ["a", "b"])
        model = fit_tfidf(docs, min_df=1)
        with pytest.raises(ValueError, match="dim 10 exceeds vocabulary size 2"):
            FallbackProjector.fit(tfidf_matrix(model, docs), dim=10)

    def test_ids_must_match_rows(self):
        docs = docs_of(["a", "b"], ["a", "c"], ["b", "c"])
        A = tfidf_matrix(fit_tfidf(docs, min_df=1), docs)
        projector = FallbackProjector.fit(A, dim=2)
        with pytest.raises(ValueError, match="2 ids for 3 TF-IDF rows"):
            projector.transform(A, ["d0", "d1"])

    def test_disjoint_vocab_near_orthogonal(self):
        rng = np.random.default_rng(5)
        docs_a = [TokenDoc(f"a{i}", list(rng.choice(["x1", "x2", "x3"], 6))) for i in range(20)]
        docs_b = [TokenDoc(f"b{i}", list(rng.choice(["y1", "y2", "y3"], 6))) for i in range(20)]
        docs = docs_a + docs_b
        model = fit_tfidf(docs, min_df=1)
        emb = project(model, docs, dim=4)
        for i in range(0, 20, 5):
            for j in range(0, 20, 5):
                cos = float(emb.vectors[f"a{i}"] @ emb.vectors[f"b{j}"])
                assert abs(cos) < 0.05


class TestEmbeddingSet:
    def test_matrix_orders_rows_by_ids(self):
        emb = embedding_set({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        mat = emb.rows[[emb.index[i] for i in ["b", "a"]]]
        np.testing.assert_allclose(mat, [[3.0, 4.0], [1.0, 2.0]])

    def test_dim_is_the_row_width(self):
        emb = EmbeddingSet(ids=["a", "b"], rows=np.zeros((2, 5)))
        assert emb.dim == 5
        assert EmbeddingSet(ids=[], rows=np.zeros((0, 3))).dim == 3

    @pytest.mark.parametrize("rows", [np.zeros((3, 2)), np.zeros(2)])
    def test_ids_and_rows_must_line_up(self, rows):
        with pytest.raises(ValueError, match=r"2 ids for rows of shape"):
            EmbeddingSet(ids=["a", "b"], rows=rows)

    def test_lookups_by_id_are_built_on_first_use(self):
        emb = EmbeddingSet(ids=["b", "a"], rows=np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert "index" not in vars(emb) and "vectors" not in vars(emb)
        assert emb.index == {"b": 0, "a": 1}
        assert emb.vectors["a"].tolist() == [0.0, 2.0]
        assert np.shares_memory(emb.vectors["a"], emb.rows)
        with pytest.raises(TypeError):
            emb.vectors["c"] = np.zeros(2)

    def test_repeated_id_refused_on_lookup(self):
        emb = EmbeddingSet(ids=["a", "a"], rows=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not distinct"):
            emb.index
