"""Regenerate tests/data/synthetic_corpus.csv, the bundled demo corpus.

Weekly post counts come from the synth module's AR(1)-with-couplings process
(alt_a topic 0 drives the ego at lag 2; alt_b topic 2 at lag 1), and each
count is materialized as a post whose text is drawn from that topic's word
pool.  Texts carry URL / mention / hashtag / "RT" noise so the cleaning
pipeline has real work to do.  Output is fully determined by the seeds below.

Usage: python tools/make_corpus_fixture.py [OUT_CSV]
       (default tests/data/synthetic_corpus.csv)
"""

from __future__ import annotations

import csv
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from egoflux.synth import AlterSpec, Coupling, SynthSpec, generate_series

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic_corpus.csv"

POOLS = [
    ["economy", "jobs", "growth", "trade", "prices", "wages", "earnings",
     "stock market", "inflation", "exports"],
    ["season", "playoffs", "coach", "roster", "defense", "victory", "standings",
     "training camp", "tournament", "referee"],
    ["storm", "rainfall", "forecast", "flooding", "humidity", "temperatures",
     "heat wave", "drought", "lightning", "snowfall"],
]
STOPS = ["the", "a", "on", "of", "and", "to", "in", "for", "with", "is"]
ACCOUNTS = ["ego", "alt_a", "alt_b", "alt_c"]
START = datetime(2021, 1, 4, tzinfo=timezone.utc)  # a Monday

spec = SynthSpec(
    n_weeks=40,
    n_topics=3,
    seed=2023,
    rho=0.35,
    noise_sd=1.2,
    offset=5.0,
    alters=[
        AlterSpec("alt_a", [Coupling(topic=0, lag=2, strength=1.0)]),
        AlterSpec("alt_b", [Coupling(topic=2, lag=1, strength=0.9)]),
        AlterSpec("alt_c", []),
    ],
)


def make_text(rng: np.random.Generator, topic: int) -> str:
    n_words = int(rng.integers(5, 10))
    words = list(rng.choice(POOLS[topic], size=n_words))
    out = []
    for w in words:
        r = rng.random()
        if r < 0.08 and " " not in w:
            out.append("#" + w)
        else:
            out.append(w)
        if rng.random() < 0.25:
            out.append(str(rng.choice(STOPS)))
    if rng.random() < 0.10:
        out.append("https://t.co/" + "".join(rng.choice(list("abcdefgh12345"), size=8)))
    if rng.random() < 0.08:
        out.append("@" + str(rng.choice(ACCOUNTS)))
    return " ".join(out)


def main(out: Path) -> None:
    result = generate_series(spec)
    counts = {(s.account, s.topic): s.counts for s in result.series}
    rng = np.random.default_rng(424242)

    rows = []
    pid = 0
    for account in ACCOUNTS:
        for week in range(spec.n_weeks):
            for topic in range(spec.n_topics):
                for _ in range(int(counts[(account, topic)][week])):
                    ts = START + timedelta(
                        days=7 * week + int(rng.integers(0, 7)),
                        seconds=int(rng.integers(0, 86400)),
                    )
                    text = make_text(rng, topic)
                    retweeted = ""
                    if account == "ego" and rng.random() < 0.25:
                        retweeted = str(
                            rng.choice(["alt_a", "alt_b", "alt_c"], p=[0.5, 0.3, 0.2])
                        )
                        text = f"RT @{retweeted}: {text}"
                    rows.append([f"s{pid:05d}", account, ts.isoformat(), text, retweeted])
                    pid += 1

    # A handful of posts by an account the ego never retweets; the alter
    # ranking must leave it out.
    for i in range(20):
        ts = START + timedelta(days=int(rng.integers(0, 7 * spec.n_weeks)),
                               seconds=int(rng.integers(0, 86400)))
        rows.append([f"n{i:05d}", "bystander", ts.isoformat(),
                     make_text(rng, int(rng.integers(0, 3))), ""])

    rows.sort(key=lambda r: (r[2], r[0]))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "author", "created_at", "text", "retweeted_author"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} posts to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
