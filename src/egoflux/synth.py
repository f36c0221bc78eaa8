"""Synthetic Ego-Alter count ecosystems with planted lagged couplings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

import numpy as np

from .corpus import canonical_handle
from .series import TopicSeries, WeekIndex
from .stats import CausalityMatrix

DEFAULT_RHO = 0.3
DEFAULT_NOISE_SD = 1.0
DEFAULT_OFFSET = 10.0
DEFAULT_EGO = "ego"
# Monday, so the synthetic calendar is already week-aligned.
DEFAULT_START = date(2017, 1, 2)
BURN_IN = 50


@dataclass(frozen=True)
class Coupling:
    """Planted alter -> ego influence on one topic at a fixed weekly lag."""

    topic: int
    lag: int
    strength: float


@dataclass
class AlterSpec:
    handle: str
    couplings: list[Coupling] = field(default_factory=list)


@dataclass
class SynthSpec:
    """Everything needed to regenerate one ecosystem byte-for-byte."""

    n_weeks: int
    n_topics: int
    alters: list[AlterSpec]
    seed: int
    rho: float = DEFAULT_RHO
    noise_sd: float = DEFAULT_NOISE_SD
    offset: float = DEFAULT_OFFSET
    ego: str = DEFAULT_EGO
    start: date = DEFAULT_START

    def validate(self) -> None:
        if self.n_weeks < 8:
            raise ValueError("n_weeks must be >= 8")
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        handles = [a.handle for a in self.alters]
        for handle in [self.ego, *handles]:
            # The series CSV is read back canonicalised, so truth.json and the
            # scan's matrix name the same accounts only if these already are.
            if canonical_handle(handle) != handle:
                raise ValueError(f"handle {handle!r} is not canonical "
                                 f"(canonical_handle gives {canonical_handle(handle)!r})")
        if len(set(handles)) != len(handles):
            raise ValueError("duplicate alter handles")
        if self.ego in handles:
            raise ValueError("ego handle collides with an alter")
        for alter in self.alters:
            for c in alter.couplings:
                if not 0 <= c.topic < self.n_topics:
                    raise ValueError(f"{alter.handle}: topic {c.topic} out of range")
                if not 1 <= c.lag <= self.n_weeks // 4:
                    raise ValueError(
                        f"{alter.handle}: lag {c.lag} outside [1, {self.n_weeks // 4}]"
                    )
                if not np.isfinite(c.strength):
                    raise ValueError(f"{alter.handle}: non-finite strength")

    def to_dict(self) -> dict:
        return {
            "n_weeks": self.n_weeks,
            "n_topics": self.n_topics,
            "seed": self.seed,
            "rho": self.rho,
            "noise_sd": self.noise_sd,
            "offset": self.offset,
            "ego": self.ego,
            "start": self.start.isoformat(),
            "alters": [
                {
                    "handle": a.handle,
                    "couplings": [
                        {"topic": c.topic, "lag": c.lag, "strength": c.strength}
                        for c in a.couplings
                    ],
                }
                for a in self.alters
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        spec = cls(
            n_weeks=int(d["n_weeks"]),
            n_topics=int(d["n_topics"]),
            seed=int(d["seed"]),
            rho=float(d.get("rho", DEFAULT_RHO)),
            noise_sd=float(d.get("noise_sd", DEFAULT_NOISE_SD)),
            offset=float(d.get("offset", DEFAULT_OFFSET)),
            ego=d.get("ego", DEFAULT_EGO),
            start=date.fromisoformat(d["start"]) if "start" in d else DEFAULT_START,
            alters=[
                AlterSpec(
                    handle=a["handle"],
                    couplings=[
                        Coupling(topic=int(c["topic"]), lag=int(c["lag"]),
                                 strength=float(c["strength"]))
                        for c in a.get("couplings", [])
                    ],
                )
                for a in d.get("alters", [])
            ],
        )
        spec.validate()
        return spec

    def save_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load_json(cls, path) -> "SynthSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class SynthResult:
    series: list[TopicSeries]
    week_index: WeekIndex
    truth: list[tuple[str, int, int, float]]


def _counts(level: np.ndarray, offset: float) -> np.ndarray:
    return np.maximum(0, np.rint(level + offset)).astype(int)


def generate_series(spec: SynthSpec) -> SynthResult:
    """AR(1) alter latents, ego latents adding the planted lagged terms.

    Latents run BURN_IN extra weeks before the reported window; counts are
    max(0, round(level + offset)).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    total = BURN_IN + spec.n_weeks
    week_index = WeekIndex(epoch_week_start=spec.start, n_weeks=spec.n_weeks)

    latents: dict[tuple[str, int], np.ndarray] = {}

    def ar1(drive: np.ndarray | None) -> np.ndarray:
        eps = rng.normal(0.0, spec.noise_sd, size=total)
        out = np.zeros(total)
        for t in range(total):
            prev = out[t - 1] if t > 0 else 0.0
            out[t] = spec.rho * prev + eps[t]
            if drive is not None:
                out[t] += drive[t]
        return out

    for alter in spec.alters:
        for topic in range(spec.n_topics):
            latents[(alter.handle, topic)] = ar1(None)

    for topic in range(spec.n_topics):
        drive = np.zeros(total)
        for alter in spec.alters:
            for c in alter.couplings:
                if c.topic != topic:
                    continue
                src = latents[(alter.handle, c.topic)]
                drive[c.lag:] += c.strength * src[: total - c.lag]
        latents[(spec.ego, topic)] = ar1(drive)

    series = [
        TopicSeries(account=handle, topic=topic,
                    counts=_counts(latents[(handle, topic)][BURN_IN:], spec.offset),
                    week_index=week_index)
        for handle, topic in sorted(latents)
    ]
    truth = [
        (alter.handle, c.topic, c.lag, c.strength)
        for alter in spec.alters
        for c in alter.couplings
    ]
    return SynthResult(series=series, week_index=week_index, truth=truth)


@dataclass
class DetectionScore:
    precision: float
    recall: float
    lag_accuracy: float
    n_detections: int
    n_truth: int
    precision_by_convention: bool

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "lag_accuracy": self.lag_accuracy,
            "n_detections": self.n_detections,
            "n_truth": self.n_truth,
            "precision_by_convention": self.precision_by_convention,
        }


def score_detection(matrix: CausalityMatrix,
                    truth: list[tuple[str, int, int, float]],
                    alpha: float) -> DetectionScore:
    """Precision/recall over (alter, topic) detections plus best-lag accuracy.

    A detection is a pair that `CausalityMatrix.significant` accepts at
    `alpha` under the matrix's own correction, so scoring and the report
    mark the same pairs when `alpha` is the matrix's.  With zero detections,
    precision is undefined and reported as 1.0 with the convention flag set;
    same for lag accuracy with zero true positives.
    """
    planted = {(a, t): lag for a, t, lag, _ in truth}
    significant = replace(matrix, alpha=alpha).significant
    detections = {(pair.alter, pair.topic): pair.best.lag
                  for pair in matrix.pairs if significant(pair)}

    tp = [key for key in detections if key in planted]
    precision_by_convention = len(detections) == 0
    precision = 1.0 if precision_by_convention else len(tp) / len(detections)
    recall = 1.0 if not planted else len(tp) / len(planted)
    lag_hits = sum(1 for key in tp if detections[key] == planted[key])
    lag_accuracy = 1.0 if not tp else lag_hits / len(tp)
    return DetectionScore(
        precision=precision,
        recall=recall,
        lag_accuracy=lag_accuracy,
        n_detections=len(detections),
        n_truth=len(planted),
        precision_by_convention=precision_by_convention,
    )
