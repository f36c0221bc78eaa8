"""Versioned on-disk topic-model bundle shared by the topics/classify stages.

The bundle is a directory of JSON files so that Alter posts are guaranteed to
pass through the exact models fitted on the Ego corpus.  Its files:

- ``phrases.json``: the sorted merge pairs of each phrase stage;
- ``tfidf.json``: the vocabulary and IDF weights;
- ``projector.json``: the fallback SVD projection (absent with external
  embeddings);
- ``topics.json``: k, medoid post ids, topic labels and summaries, and the
  silhouette of each k tried;
- ``classifier.json``: per-class weights and biases;
- ``manifest.json``: the schema version, the parts written, the embedding
  source and dimension, and the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .classifier import LinearClassifier
from .features import FallbackProjector, TfidfModel
from .textpipe import PhrasePipeline
from .topics import TopicSummary

SCHEMA_VERSION = 2

MANIFEST_JSON = "manifest.json"
PHRASES_JSON = "phrases.json"
TFIDF_JSON = "tfidf.json"
PROJECTOR_JSON = "projector.json"
TOPICS_JSON = "topics.json"
CLASSIFIER_JSON = "classifier.json"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class ModelBundle:
    """Fitted models plus clustering artifacts, serializable to a directory."""

    phrases: PhrasePipeline
    tfidf: TfidfModel
    k: int
    medoid_ids: list[str]
    topic_labels: dict[int, str]
    summaries: list[TopicSummary]
    projector: FallbackProjector | None = None
    classifier: LinearClassifier | None = None
    embedding_source: str = "external_file"
    embedding_dim: int = 0
    seed: int = 42
    silhouette_by_k: dict[int, float] = field(default_factory=dict)

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        parts = [PHRASES_JSON, TFIDF_JSON, TOPICS_JSON]
        _write_json(out / PHRASES_JSON, self.phrases.to_dict())
        _write_json(out / TFIDF_JSON, self.tfidf.to_dict())
        _write_json(
            out / TOPICS_JSON,
            {
                "schema_version": SCHEMA_VERSION,
                "k": self.k,
                "medoid_ids": list(self.medoid_ids),
                "labels": {str(t): lbl for t, lbl in self.topic_labels.items()},
                "summaries": [s.to_dict() for s in self.summaries],
                "silhouette_by_k": {str(k): float(v) for k, v in self.silhouette_by_k.items()},
                "seed": self.seed,
            },
        )
        if self.projector is not None:
            _write_json(out / PROJECTOR_JSON, self.projector.to_dict())
            parts.append(PROJECTOR_JSON)
        if self.classifier is not None:
            _write_json(out / CLASSIFIER_JSON, self.classifier.to_dict())
            parts.append(CLASSIFIER_JSON)
        _write_json(
            out / MANIFEST_JSON,
            {
                "schema_version": SCHEMA_VERSION,
                "parts": sorted(parts),
                "embedding_source": self.embedding_source,
                "embedding_dim": self.embedding_dim,
                "seed": self.seed,
            },
        )
        return out

    @classmethod
    def load(cls, in_dir) -> "ModelBundle":
        src = Path(in_dir)
        manifest = _read_json(src / MANIFEST_JSON)
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{src}: bundle schema {manifest.get('schema_version')} != {SCHEMA_VERSION}"
            )
        topics = _read_json(src / TOPICS_JSON)
        projector = None
        if (src / PROJECTOR_JSON).exists():
            projector = FallbackProjector.from_dict(_read_json(src / PROJECTOR_JSON))
        classifier = None
        if (src / CLASSIFIER_JSON).exists():
            classifier = LinearClassifier.from_dict(_read_json(src / CLASSIFIER_JSON))
        return cls(
            phrases=PhrasePipeline.from_dict(_read_json(src / PHRASES_JSON)),
            tfidf=TfidfModel.from_dict(_read_json(src / TFIDF_JSON)),
            k=int(topics["k"]),
            medoid_ids=list(topics["medoid_ids"]),
            topic_labels={int(t): lbl for t, lbl in topics["labels"].items()},
            summaries=[TopicSummary.from_dict(s) for s in topics["summaries"]],
            projector=projector,
            classifier=classifier,
            embedding_source=manifest["embedding_source"],
            embedding_dim=int(manifest["embedding_dim"]),
            seed=int(manifest.get("seed", 42)),
            silhouette_by_k={int(k): float(v)
                             for k, v in topics.get("silhouette_by_k", {}).items()},
        )
