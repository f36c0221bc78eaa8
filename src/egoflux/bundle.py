"""Versioned on-disk topic-model bundle shared by the topics/classify stages.

The bundle is a directory of JSON files so that Alter posts are guaranteed to
pass through the exact models fitted on the Ego corpus.  It owns the topic
model, which the run report names by index.  Its files:

- ``phrases.json``: the sorted merge pairs of each phrase stage;
- ``tfidf.json``: the vocabulary and IDF weights;
- ``projector.json``: the fallback SVD components (absent with external
  embeddings);
- ``topics.json``: the medoid post ids, one summary per topic (index, label,
  size, top words) and the silhouette of each k tried;
- ``classifier.json``: the classes, weights and biases;
- ``manifest.json``: the schema version, the parts written and the seed.

A value is written once, and only if loading reads it: k is the number of
summaries, a dimension is the width of its matrix, and only the manifest
holds a schema version.  Loading reads the projector only if the manifest
lists it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .classifier import LinearClassifier
from .features import FallbackProjector, TfidfModel
from .textpipe import PhrasePipeline
from .topics import TopicSummary

SCHEMA_VERSION = 4

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
    classifier: LinearClassifier
    projector: FallbackProjector | None = None
    seed: int = 42
    silhouette_by_k: dict[int, float] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.summaries)

    def save(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        parts = {
            PHRASES_JSON: self.phrases.to_dict(),
            TFIDF_JSON: self.tfidf.to_dict(),
            TOPICS_JSON: {
                "medoid_ids": list(self.medoid_ids),
                "summaries": [s.to_dict() for s in self.summaries],
                "silhouette_by_k": {str(k): float(v) for k, v in self.silhouette_by_k.items()},
            },
            CLASSIFIER_JSON: self.classifier.to_dict(),
        }
        if self.projector is not None:
            parts[PROJECTOR_JSON] = self.projector.to_dict()
        for name, payload in parts.items():
            _write_json(out / name, payload)
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
        """Read a bundle; its projector is read only when the manifest lists it."""
        src = Path(in_dir)
        manifest = _read_json(src / MANIFEST_JSON)
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{src}: bundle schema {manifest.get('schema_version')} != {SCHEMA_VERSION}"
            )
        try:
            topics = _read_json(src / TOPICS_JSON)
            return cls(
                phrases=PhrasePipeline.from_dict(_read_json(src / PHRASES_JSON)),
                tfidf=TfidfModel.from_dict(_read_json(src / TFIDF_JSON)),
                medoid_ids=list(topics["medoid_ids"]),
                summaries=[TopicSummary.from_dict(s) for s in topics["summaries"]],
                classifier=LinearClassifier.from_dict(_read_json(src / CLASSIFIER_JSON)),
                projector=(FallbackProjector.from_dict(_read_json(src / PROJECTOR_JSON))
                           if PROJECTOR_JSON in manifest["parts"] else None),
                seed=int(manifest["seed"]),
                silhouette_by_k={int(k): float(v) for k, v in topics["silhouette_by_k"].items()},
            )
        except KeyError as exc:
            raise ValueError(f"{src}: missing field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"{src}: malformed entry: {exc}") from None
