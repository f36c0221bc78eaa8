"""Versioned on-disk topic-model bundle shared by the topics/classify stages.

The bundle is a directory of JSON files so that Alter posts are guaranteed to
pass through the exact models fitted on the Ego corpus.  Its files:

- ``phrases.json``: the sorted merge pairs of each phrase stage;
- ``tfidf.json``: the vocabulary and IDF weights;
- ``projector.json``: the fallback SVD projection and its dimension (absent
  with external embeddings);
- ``topics.json``: the schema version, the medoid post ids, one summary per
  topic (index, label, size, top words) and the silhouette of each k tried;
- ``classifier.json``: the classes, input dimension, weights and biases;
- ``manifest.json``: the schema version, the parts written and the seed.

Each value is written once: k is the number of summaries, and the embedding
source and dimension follow from the projector (or, without one, the
classifier).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .classifier import LinearClassifier
from .features import FallbackProjector, TfidfModel
from .textpipe import PhrasePipeline
from .topics import TopicSummary

SCHEMA_VERSION = 3

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
    """Fitted models plus clustering artifacts, serializable to a directory.

    `summaries[t]` describes topic t (its label included), so k is derived
    from them.  A bundle without a projector was fitted on external
    embeddings.
    """

    phrases: PhrasePipeline
    tfidf: TfidfModel
    medoid_ids: list[str]
    summaries: list[TopicSummary]
    projector: FallbackProjector | None = None
    classifier: LinearClassifier | None = None
    seed: int = 42
    silhouette_by_k: dict[int, float] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.summaries)

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
                "medoid_ids": list(self.medoid_ids),
                "summaries": [s.to_dict() for s in self.summaries],
                "silhouette_by_k": {str(k): float(v) for k, v in self.silhouette_by_k.items()},
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
            medoid_ids=list(topics["medoid_ids"]),
            summaries=[TopicSummary.from_dict(s) for s in topics["summaries"]],
            projector=projector,
            classifier=classifier,
            seed=int(manifest["seed"]),
            silhouette_by_k={int(k): float(v) for k, v in topics["silhouette_by_k"].items()},
        )
