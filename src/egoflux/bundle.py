"""Versioned on-disk topic-model bundle shared by the topics/classify stages.

The bundle is a directory of JSON files so that Alter posts are guaranteed to
pass through the exact models fitted on the Ego corpus.  It owns the topic
model, which the run report names by index.  Its files:

- ``phrases.json``: the sorted merge pairs of each phrase stage;
- ``tfidf.json``: the vocabulary and IDF weights;
- ``projector.json``: the fallback SVD components (absent with external
  embeddings);
- ``topics.json``: the medoid post ids, one summary per topic (index, label,
  size, top words) and the silhouette that ranked each k tried;
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
from .errors import read_json
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
        """Read a bundle; a fault names its file, and the projector is read only if listed.

        The projector needs a row per vocabulary term, the classifier its width."""
        src = Path(in_dir)

        def manifest_of(d: dict) -> tuple[bool, int]:
            if d.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"bundle schema {d.get('schema_version')} != {SCHEMA_VERSION}")
            return PROJECTOR_JSON in d["parts"], int(d["seed"])

        def topics_of(d: dict) -> dict:
            return {"medoid_ids": list(d["medoid_ids"]),
                    "summaries": [TopicSummary.from_dict(s) for s in d["summaries"]],
                    "silhouette_by_k": {int(k): float(v) for k, v in d["silhouette_by_k"].items()}}

        def projector_of(d: dict) -> FallbackProjector:
            fitted = FallbackProjector.from_dict(d)
            if fitted.components.ndim != 2 or len(fitted.components) != tfidf.dim:
                raise ValueError(f"projector components have shape {fitted.components.shape}, "
                                 f"need one row per vocabulary term ({tfidf.dim})")
            return fitted

        def classifier_of(d: dict) -> LinearClassifier:
            classifier = LinearClassifier.from_dict(d)
            if projector is not None and classifier.dim != projector.dim:
                raise ValueError(f"classifier weights have shape {classifier.weights.shape}, "
                                 f"need the projector's width ({projector.dim})")
            return classifier

        has_projector, seed = read_json(src / MANIFEST_JSON, manifest_of)
        tfidf = read_json(src / TFIDF_JSON, TfidfModel.from_dict)
        projector = read_json(src / PROJECTOR_JSON, projector_of) if has_projector else None
        return cls(phrases=read_json(src / PHRASES_JSON, PhrasePipeline.from_dict), tfidf=tfidf,
                   classifier=read_json(src / CLASSIFIER_JSON, classifier_of),
                   projector=projector, seed=seed, **read_json(src / TOPICS_JSON, topics_of))
