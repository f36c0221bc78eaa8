"""Shared fixtures: a deterministic two-topic corpus and one fitted pipeline run."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from egoflux.corpus import Corpus, Post
from egoflux.features import EmbeddingSet
from egoflux.pipeline import PipelineConfig, run_pipeline
from egoflux.stats import CORRECTION_BH

POOL_A = ["garden", "soil", "tomato", "harvest", "compost", "seeds", "watering"]
POOL_B = ["cinema", "film", "director", "screenplay", "festival", "premiere", "actors"]

FIXTURE_CORPUS_CSV = Path(__file__).parent / "data" / "synthetic_corpus.csv"
FIXTURE_WINDOW = (datetime(2021, 1, 4, tzinfo=timezone.utc),
                  datetime(2021, 10, 11, tzinfo=timezone.utc))
FIXTURE_CONFIG = PipelineConfig(ego="ego", k_min=2, k_max=4, embed_dim=16,
                                seed=42, max_lag=4, alpha=0.01,
                                correction=CORRECTION_BH)


def embedding_set(vectors) -> EmbeddingSet:
    """The EmbeddingSet of a {post id: vector} mapping, rows in its order."""
    return EmbeddingSet(ids=list(vectors),
                        rows=np.stack([np.asarray(v, dtype=float) for v in vectors.values()]))


def written_keys(node, maps=("silhouette_by_k",)):
    """Key paths of a written JSON value: every dict key, recursing into dicts
    and into the first element of lists, but not into the maps named (their
    keys are data, not fields)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (key,)
            if key not in maps:
                yield from ((key, *rest) for rest in written_keys(value, maps))
    elif isinstance(node, list) and node:
        yield from ((0, *rest) for rest in written_keys(node[0], maps))


def without_key(data, path):
    """A deep copy of JSON `data` with the key at `path` deleted."""
    data = json.loads(json.dumps(data))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return data


def make_post(pid: str, author: str, ts: str, text: str, retweeted: str | None = None) -> Post:
    return Post(
        id=pid,
        author=author,
        created_at=datetime.fromisoformat(ts).replace(tzinfo=timezone.utc),
        text=text,
        retweeted_author=retweeted,
    )


def build_two_topic_corpus() -> Corpus:
    """Three accounts, 30 weeks, texts drawn from two disjoint word pools.

    The ego retweets alt_a more often than alt_b, so the alter ranking is
    [alt_a, alt_b].  Everything is driven by one seeded generator.
    """
    rng = np.random.default_rng(3)
    start = datetime(2020, 1, 6, tzinfo=timezone.utc)  # a Monday
    posts: list[Post] = []
    pid = 0
    for week in range(30):
        for account in ("ego", "alt_a", "alt_b"):
            for _ in range(6):
                pool = POOL_A if rng.random() < 0.5 else POOL_B
                text = " ".join(rng.choice(pool, size=int(rng.integers(4, 8))))
                retweeted = None
                if account == "ego" and rng.random() < 0.3:
                    retweeted = "alt_a" if rng.random() < 0.7 else "alt_b"
                    text = f"RT @{retweeted}: {text}"
                ts = start + timedelta(
                    days=7 * week + int(rng.integers(0, 7)),
                    seconds=int(rng.integers(0, 86400)),
                )
                posts.append(
                    Post(id=f"p{pid:04d}", author=account, created_at=ts,
                         text=text, retweeted_author=retweeted)
                )
                pid += 1
    posts.sort(key=lambda p: (p.created_at, p.id))
    return Corpus(
        posts=tuple(posts),
        window_start=start,
        window_end=start + timedelta(days=7 * 30 - 1),
    )


@pytest.fixture(scope="session")
def two_topic_corpus() -> Corpus:
    return build_two_topic_corpus()


@pytest.fixture(scope="session")
def pipeline_config() -> PipelineConfig:
    return PipelineConfig(ego="ego", k_min=2, k_max=4, embed_dim=16, seed=42, max_lag=4)


@pytest.fixture(scope="session")
def pipeline_result(two_topic_corpus, pipeline_config):
    return run_pipeline(two_topic_corpus, pipeline_config)
