"""Seeded workload generator for the benchmark.

Weekly counts come from ``egoflux.synth.generate_series`` (AR(1) latents with
planted lagged couplings).  For the two text workloads every count becomes
that many posts whose words are drawn from the planted topic's word pool, so
the planted topic of each post is known and recovery can be scored through
the whole text path.  The ``scan`` workload writes the counts as a series CSV.

Everything is a pure function of the workload and the seed.  The program
under test receives only the written input file; the truth (each post's
planted topic and the planted couplings) stays in the harness's memory.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from egoflux.series import write_series_csv
from egoflux.synth import AlterSpec, Coupling, SynthSpec, generate_series

EGO = "ego"
START = date(2019, 1, 7)  # a Monday, so the window is week-aligned

# One pool per planted topic; two-word entries feed the phrase detector.
POOLS = [
    ["economy", "jobs", "growth", "trade", "prices", "wages", "earnings", "inflation",
     "exports", "budget", "stock market", "interest rates", "central bank", "tariffs",
     "investors", "recession", "factory", "supply chain"],
    ["season", "playoffs", "coach", "roster", "defense", "victory", "standings",
     "training camp", "tournament", "referee", "striker", "goalkeeper", "transfer window",
     "championship", "stadium", "penalty", "league table", "injury"],
    ["storm", "rainfall", "forecast", "flooding", "humidity", "temperatures", "heat wave",
     "drought", "lightning", "snowfall", "cold front", "hurricane", "wildfire", "tornado",
     "sea level", "monsoon", "frost", "weather service"],
    ["vaccine", "hospital", "nurses", "clinic", "patients", "diagnosis", "surgery",
     "public health", "antibiotics", "symptoms", "outbreak", "pharmacy", "mental health",
     "cardiology", "therapy", "immunity", "clinical trial", "insurance"],
    ["album", "concert", "guitar", "lyrics", "festival", "drummer", "vinyl", "playlist",
     "record label", "live show", "chorus", "soundtrack", "band", "tour dates", "studio",
     "melody", "opening act", "encore"],
    ["election", "senate", "ballot", "campaign", "voters", "parliament", "debate",
     "polling station", "governor", "candidate", "coalition", "referendum",
     "city council", "mayor", "policy", "legislation", "primary race", "turnout"],
]
GENERIC = ["today", "really", "news", "people", "thread", "week", "update", "great",
           "thoughts", "story"]
STOPS = ["the", "a", "on", "of", "and", "to", "in", "for", "with", "is", "this", "at"]
EMPTY_SHARE = 0.01  # posts that clean to nothing (URL and mention only)


@dataclass(frozen=True)
class TextWorkload:
    """A corpus run through ``run_pipeline``: ego posts, alter posts, planted truth."""

    n_weeks: int
    n_topics: int
    n_alters: int
    couplings: tuple[tuple[int, int, int, float], ...]  # (alter index, topic, lag, strength)
    ego_offset: float  # mean weekly ego posts per topic
    alter_scale: float  # an alter's weekly count c becomes round(c * alter_scale) posts
    topics: dict[str, int]  # {"k": n} fixes k; {"k_max": n} searches k in 2..n
    null_fpr_max: float  # a run fails if a larger share of un-planted pairs is significant
    noise_sd: float = 1.0

    def pipeline_config(self, seed: int) -> dict:
        """Keyword arguments of ``PipelineConfig``; ``run_pipeline`` defaults otherwise."""
        return {"ego": EGO, "n_alters": self.n_alters, "max_lag": 8, "alpha": 0.05,
                "correction": "none", "seed": seed, **self.topics}


@dataclass(frozen=True)
class ScanWorkload:
    """A series CSV for ``causality_scan``: every ``coupled_every``-th alter is coupled."""

    n_weeks: int
    n_topics: int
    n_alters: int
    coupled_every: int
    strength: float
    max_lag_planted: int
    null_fpr_max: float


WORKLOADS: dict[str, TextWorkload | ScanWorkload] = {
    # Fitting dominates: ~1.2k ego posts (of ~3.6k) are clustered for every k in 2..6.
    "ego_fit": TextWorkload(
        n_weeks=52, n_topics=4, n_alters=4,
        couplings=((0, 0, 2, 1.5), (1, 1, 1, 1.5), (2, 2, 3, 1.5), (3, 3, 1, 1.5)),
        ego_offset=5.75, alter_scale=0.5, topics={"k_max": 6}, null_fpr_max=0.45,
    ),
    # Applying dominates: ~0.7k ego posts fit the models, ~42k alter posts pass through.
    "alter_apply": TextWorkload(
        n_weeks=156, n_topics=3, n_alters=12,
        couplings=((0, 0, 2, 1.0), (2, 1, 1, 1.0), (4, 2, 3, 1.0),
                   (6, 0, 1, 1.0), (8, 1, 2, 1.0), (10, 2, 1, 1.0)),
        ego_offset=1.5, alter_scale=5, topics={"k": 3}, null_fpr_max=0.35, noise_sd=0.5,
    ),
    # Statistics only: the default-config scan of 100 alters x 6 topics x 260 weeks.
    "scan": ScanWorkload(n_weeks=260, n_topics=6, n_alters=100, coupled_every=5,
                         strength=0.8, max_lag_planted=4, null_fpr_max=0.25),
}


@dataclass
class Generated:
    """The job the program runs, plus the truth only the harness sees."""

    job: dict  # what the job process needs to run
    truth: list[tuple[str, int, int, float]]  # (alter, planted topic, lag, strength)
    post_topics: dict[str, int]  # post id -> planted topic (text workloads)
    alters: list[str]
    n_topics: int


def alter_handle(i: int) -> str:
    return f"alter_{i:03d}"


def _make_text(rng: random.Random, topic: int) -> str:
    words = []
    for _ in range(rng.randint(5, 9)):
        if rng.random() < 0.15:
            words.append(rng.choice(GENERIC))
        else:
            w = rng.choice(POOLS[topic])
            words.append("#" + w if rng.random() < 0.08 and " " not in w else w)
        if rng.random() < 0.25:
            words.append(rng.choice(STOPS))
    if rng.random() < 0.10:
        words.append("https://t.co/" + "".join(rng.choice("abcdefgh12345") for _ in range(8)))
    if rng.random() < 0.08:
        words.append("@" + alter_handle(rng.randrange(3)))
    return " ".join(words)


def _generate_text(w: TextWorkload, seed: int, out_dir: Path) -> Generated:
    alters = [alter_handle(i) for i in range(w.n_alters)]
    spec = SynthSpec(
        n_weeks=w.n_weeks, n_topics=w.n_topics, seed=seed, rho=0.3,
        noise_sd=w.noise_sd, offset=w.ego_offset, ego=EGO, start=START,
        alters=[AlterSpec(h, [Coupling(t, lag, s) for a, t, lag, s in w.couplings if a == i])
                for i, h in enumerate(alters)],
    )
    synth = generate_series(spec)
    counts = {(s.account, s.topic): s.counts for s in synth.series}
    rng = random.Random(seed)
    start = datetime(START.year, START.month, START.day, tzinfo=timezone.utc)

    rows: list[list[str]] = []
    post_topics: dict[str, int] = {}
    # Ego retweets go to the alters in turn, so every alter is ranked.
    n_retweets = 0
    for account in [EGO, *alters]:
        scale = 1 if account == EGO else w.alter_scale
        for week in range(w.n_weeks):
            for topic in range(w.n_topics):
                for _ in range(int(counts[(account, topic)][week] * scale + 0.5)):
                    pid = f"p{len(rows):06d}"
                    ts = start + timedelta(days=7 * week + rng.randrange(7),
                                           seconds=rng.randrange(86400))
                    if rng.random() < EMPTY_SHARE:
                        text = "https://t.co/x" + str(rng.randrange(10**6)) + " @" + EGO
                    else:
                        text = _make_text(rng, topic)
                    retweeted = ""
                    if account == EGO and rng.random() < 0.3:
                        retweeted = alters[n_retweets % w.n_alters]
                        n_retweets += 1
                        text = f"RT @{retweeted}: {text}"
                    rows.append([pid, account, ts.isoformat(), text, retweeted])
                    post_topics[pid] = topic
    rows.sort(key=lambda r: (r[2], r[0]))

    path = out_dir / "corpus.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "author", "created_at", "text", "retweeted_author"])
        writer.writerows(rows)
    end = start + timedelta(days=7 * w.n_weeks) - timedelta(seconds=1)
    job = {"kind": "corpus", "input": str(path), "window": [start.isoformat(), end.isoformat()],
           "config": w.pipeline_config(seed)}
    return Generated(job=job, truth=synth.truth, post_topics=post_topics,
                     alters=alters, n_topics=w.n_topics)


def _generate_scan(w: ScanWorkload, seed: int, out_dir: Path) -> Generated:
    alters = [alter_handle(i) for i in range(w.n_alters)]
    specs = []
    for i, handle in enumerate(alters):
        couplings = []
        if i % w.coupled_every == 0:
            n = i // w.coupled_every
            couplings.append(Coupling(topic=n % w.n_topics,
                                      lag=1 + n % w.max_lag_planted, strength=w.strength))
        specs.append(AlterSpec(handle, couplings))
    synth = generate_series(SynthSpec(n_weeks=w.n_weeks, n_topics=w.n_topics, seed=seed,
                                      alters=specs, ego=EGO, start=START))
    path = out_dir / "series.csv"
    write_series_csv(synth.series, path)
    job = {"kind": "series", "input": str(path), "ego": EGO, "max_lag": 8, "alpha": 0.05,
           "correction": "none"}
    return Generated(job=job, truth=synth.truth, post_topics={}, alters=alters,
                     n_topics=w.n_topics)


def generate(workload: TextWorkload | ScanWorkload, seed: int, out_dir: Path) -> Generated:
    """Write the workload's input file under ``out_dir``; return it with the truth."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(workload, ScanWorkload):
        return _generate_scan(workload, seed, out_dir)
    return _generate_text(workload, seed, out_dir)
