"""Command-line surface: ingest, topics, classify, series, causality, simulate, report."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields
from datetime import datetime, timezone
from pathlib import Path

from .bundle import ModelBundle
from .corpus import Corpus, Post, canonical_handle, load_corpus, parse_timestamp, record_id
from .errors import EgofluxError, open_text, read_json
from .pipeline import PipelineConfig, classify_corpus, fit_topics
from .report import ReportBundle, emit_report_bundle
from .series import bin_posts, build_week_index, int_cell, read_series_csv, write_series_rows
from .stats import (
    CORRECTION_BH,
    CORRECTION_NONE,
    DEFAULT_ALPHA,
    DEFAULT_MAX_DIFF,
    DEFAULT_MAX_LAG,
    CausalityMatrix,
    causality_scan,
)
from .synth import SynthSpec, generate_series
from .features import load_embeddings

logger = logging.getLogger(__name__)

WIDE_START = datetime(1970, 1, 1, tzinfo=timezone.utc)
WIDE_END = datetime(9999, 12, 28, tzinfo=timezone.utc)
# A labels CSV: `classify` writes these columns and `series` requires them.
LABELS_COLUMNS = ("post_id", "author", "created_at", "topic")


def _open_out(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _window(args, earliest: datetime, latest: datetime) -> tuple[datetime, datetime]:
    """--start/--end, with a bound that is absent taken as `earliest`/`latest`."""
    return (parse_timestamp(args.start) if args.start else earliest,
            parse_timestamp(args.end) if args.end else latest)


def _load_windowed(args) -> Corpus:
    """Load a corpus; absent window bounds shrink to the observed timestamps."""
    result = load_corpus(args.corpus, args.format, _window(args, WIDE_START, WIDE_END),
                         strict=getattr(args, "strict", False))
    if result.dropped:
        logger.info("dropped %d rows (%d window, %d malformed, %d duplicate)",
                    result.dropped, result.dropped_out_of_window,
                    result.dropped_malformed, result.dropped_duplicate)
    corpus = result.corpus
    if corpus.posts:  # sorted by created_at
        corpus = Corpus(corpus.posts, *_window(args, corpus.posts[0].created_at,
                                               corpus.posts[-1].created_at))
    return corpus


def _cmd_ingest(args) -> int:
    start = parse_timestamp(args.start)
    end = parse_timestamp(args.end)
    result = load_corpus(args.corpus, args.format, (start, end), strict=args.strict)
    logger.info("kept %d posts; dropped %d (%d window, %d malformed, %d duplicate)",
                len(result.corpus), result.dropped, result.dropped_out_of_window,
                result.dropped_malformed, result.dropped_duplicate)
    with _open_out(args.out) as fh:
        fh.write(result.corpus.to_jsonl())
    return 0


def _cmd_topics(args) -> int:
    given = vars(args)
    # Built first: its settings are refused before the corpus is read.
    config = PipelineConfig(**{f.name: given[f.name] for f in fields(PipelineConfig)
                               if f.name in given})
    corpus = _load_windowed(args)
    fit = fit_topics(corpus, config)
    fit.bundle.save(args.out)

    print("ranked alters: "
          + ", ".join(f"{h} ({c} retweets)" for h, c in fit.ranking.entries))
    print("k\tsilhouette")
    for k, score in sorted(fit.bundle.silhouette_by_k.items()):
        chosen = " <- selected" if k == fit.bundle.k else ""
        print(f"{k}\t{score:.4f}{chosen}")
    print(f"validation weighted F1: {fit.eval_report.weighted_f1:.4f}")
    for summary in fit.bundle.summaries:
        head = ", ".join(t for t, _ in summary.top_words[:8])
        print(f"{summary.label} (n={summary.size}): {head}")
    logger.info("bundle written to %s", args.out)
    return 0


def _cmd_classify(args) -> int:
    bundle = ModelBundle.load(args.model)
    corpus = _load_windowed(args)
    emb = None
    if args.embeddings:
        emb = load_embeddings(args.embeddings)
    labels = classify_corpus(bundle, corpus.posts, emb)
    skipped = sum(1 for p in corpus.posts if p.id not in labels)
    if skipped:
        logger.info("%d posts had no usable features and were not labeled", skipped)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABELS_COLUMNS)
        for post in corpus.posts:
            if post.id in labels:
                writer.writerow([post.id, post.author,
                                 post.created_at.isoformat(), labels[post.id]])
    return 0


def _cmd_series(args) -> int:
    if args.n_topics is not None and args.n_topics < 1:
        raise EgofluxError(f"--n-topics must be >= 1, got {args.n_topics}")
    posts: list[Post] = []
    labels: dict[str, int] = {}
    seen_at: dict[str, str] = {}  # post_id -> "<path>:<line>" of its first row
    for path in args.labeled:
        with open_text(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(LABELS_COLUMNS).issubset(reader.fieldnames):
                raise EgofluxError(f"{path}: need columns {sorted(LABELS_COLUMNS)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in row.values():
                    raise ValueError(f"{where}: row has too few cells")
                try:
                    post_id = record_id(row["post_id"])
                    created_at = parse_timestamp(row["created_at"])
                    topic = int_cell(row["topic"])
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                author = canonical_handle(row["author"])
                if author is None:
                    raise ValueError(f"{where}: empty author")
                if post_id in seen_at:
                    raise ValueError(f"{where}: post_id {post_id!r} repeats {seen_at[post_id]}")
                labels[post_id] = topic
                seen_at[post_id] = where
                posts.append(Post(id=post_id, author=author, created_at=created_at, text=""))
    if not posts:
        raise EgofluxError("no labeled posts given")
    week_index = build_week_index(_window(args, min(p.created_at for p in posts),
                                          max(p.created_at for p in posts)))
    n_topics = args.n_topics if args.n_topics is not None else max(labels.values()) + 1
    # Without --n-topics the labels must fill 0..max, so a stray large topic
    # cannot size the output.
    used = set(labels.values())
    first_gap = min(set(range(len(used) + 1)) - used)
    for post in posts:
        where = seen_at[post.id]
        if not 0 <= labels[post.id] < n_topics:
            raise ValueError(f"{where}: topic {labels[post.id]} outside 0..{n_topics - 1}")
        if args.n_topics is None and labels[post.id] > first_gap:
            raise ValueError(f"{where}: topic {labels[post.id]} leaves topic {first_gap} "
                             "with no labeled post; give --n-topics to allow empty topics")
        try:
            week_index.bin_of(post.created_at)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    accounts = None
    if args.accounts:
        accounts = [canonical_handle(name) for name in args.accounts.split(",")]
        if None in accounts:
            raise EgofluxError(f"--accounts {args.accounts!r} has an empty name")
    series = bin_posts(posts, labels, week_index, n_topics, accounts=accounts)
    with _open_out(args.out) as fh:
        write_series_rows(series, fh)
    return 0


def _cmd_causality(args) -> int:
    # The name checks need no file, so they come before the read.
    ego = canonical_handle(args.ego)
    if ego is None:
        raise EgofluxError(f"--ego {args.ego!r} has an empty name")
    alters = None
    if args.alters:
        alters = [canonical_handle(name) for name in args.alters.split(",")]
        if None in alters:
            raise EgofluxError(f"--alters {args.alters!r} has an empty name")
    series = read_series_csv(args.series)
    # causality_scan refuses an ego or alter with no series, naming it.
    if alters is None:
        alters = sorted({s.account for s in series} - {ego})
    correction = CORRECTION_BH if args.bh else CORRECTION_NONE
    matrix = causality_scan(series, ego, alters, max_lag=args.max_lag,
                            alpha=args.alpha, correction=correction,
                            max_diff=args.max_diff)
    with _open_out(args.out) as fh:
        fh.write(matrix.to_json())
        fh.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    spec = SynthSpec.load_json(args.spec)
    result = generate_series(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _open_out(out / "series.csv") as fh:
        write_series_rows(result.series, fh)
    truth = {
        "ego": spec.ego,
        "seed": spec.seed,
        "couplings": [
            {"alter": a, "topic": t, "lag": lag, "strength": s}
            for a, t, lag, s in result.truth
        ],
    }
    (out / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    spec.save_json(out / "spec.json")
    logger.info("wrote %s", out)
    return 0


def _read_groups(path: str | None) -> dict[str, str] | None:
    if not path:
        return None
    grouping: dict[str, str] = {}
    with open_text(path, EgofluxError, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        handle_col = "handle" if "handle" in fields else "alter"
        if handle_col not in fields or "group" not in fields:
            raise EgofluxError(f"{path}: need columns handle (or alter) and group")
        for row in reader:
            handle = canonical_handle(row[handle_col])
            if handle is None:
                raise EgofluxError(f"{path}:{reader.line_num}: empty handle")
            if not row["group"]:  # None when the row has no group cell
                raise EgofluxError(f"{path}:{reader.line_num}: no group for {handle!r}")
            grouping[handle] = row["group"]
    return grouping


def _report_of(data: dict) -> ReportBundle:
    """The run report, or the bare causality matrix, that `data` holds."""
    if "config" in data and "matrix" in data:
        return ReportBundle.from_dict(data)
    if "pairs" in data:
        return ReportBundle(matrix=CausalityMatrix.from_dict(data))
    raise ValueError("neither a causality matrix nor a run report")


def _cmd_report(args) -> int:
    bundle = read_json(args.matrix, _report_of)
    grouping = _read_groups(args.groups)
    if grouping is not None:
        bundle.grouping = grouping
    paths = emit_report_bundle(bundle, args.out)
    for name, path in sorted(paths.items()):
        logger.info("wrote %s: %s", name, path)
    return 0


def _add_corpus_args(sub: argparse.ArgumentParser, window_required: bool) -> None:
    sub.add_argument("corpus", help="input corpus file")
    sub.add_argument("--format", choices=["csv", "jsonl"], default="jsonl",
                     help="corpus file format (default jsonl)")
    sub.add_argument("--start", required=window_required,
                     help="window start, ISO-8601")
    sub.add_argument("--end", required=window_required,
                     help="window end, ISO-8601")
    sub.add_argument("--strict", action="store_true",
                     help="fail on the first malformed row instead of skipping")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoflux",
        description="Topic-level influence analysis of an ego account's post stream.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="normalize a raw corpus into canonical JSONL")
    _add_corpus_args(p, window_required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_ingest)

    p = commands.add_parser("topics", help="fit the topic model bundle on the ego corpus")
    _add_corpus_args(p, window_required=False)
    # Each dest is a PipelineConfig field; the defaults are the config's own.
    p.add_argument("--ego", required=True, help="ego account handle")
    p.add_argument("--k", type=int, help="fix k instead of searching")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--top-words", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--embeddings", dest="embeddings_path", metavar="EMBEDDINGS",
                   help="external embedding file (JSONL or CSV)")
    p.add_argument("--dim", dest="embed_dim", type=int, metavar="DIM",
                   help="fallback embedding dimension")
    p.add_argument("--min-df", type=int)
    p.add_argument("--min-count", dest="phrase_min_count", type=int, metavar="MIN_COUNT",
                   help="phrase detector minimum pair count")
    p.add_argument("--threshold", dest="phrase_threshold", type=float, metavar="THRESHOLD",
                   help="phrase detector score threshold")
    p.add_argument("--n-alters", type=int)
    p.add_argument("--exclude", type=lambda s: tuple(s.split(",")),
                   help="comma-separated handles to exclude from ranking")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.set_defaults(func=_cmd_topics, **{f.name: f.default for f in fields(PipelineConfig)
                                        if f.default is not MISSING})

    p = commands.add_parser("classify", help="label a corpus with a saved bundle")
    _add_corpus_args(p, window_required=False)
    p.add_argument("--model", required=True, help="topic model bundle directory")
    p.add_argument("--embeddings", help="external embedding file for these posts")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_classify)

    p = commands.add_parser("series", help="bin labeled posts into weekly topic series")
    p.add_argument("labeled", nargs="+", help="labeled-post CSVs from classify")
    p.add_argument("--start", help="window start, ISO-8601 (default observed)")
    p.add_argument("--end", help="window end, ISO-8601 (default observed)")
    p.add_argument("--n-topics", type=int, default=None)
    p.add_argument("--accounts", help="comma-separated accounts to force into output")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_series)

    p = commands.add_parser("causality", help="Granger-scan weekly series")
    p.add_argument("series", help="series CSV from the series/simulate commands")
    p.add_argument("--ego", required=True, help="ego account handle")
    p.add_argument("--alters", help="comma-separated alters (default: all non-ego)")
    p.add_argument("--max-lag", type=int, default=DEFAULT_MAX_LAG)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--bh", action="store_true",
                   help="Benjamini-Hochberg correction across pairs")
    p.add_argument("--max-diff", type=int, default=DEFAULT_MAX_DIFF)
    p.add_argument("--out", help="matrix JSON path (default stdout)")
    p.set_defaults(func=_cmd_causality)

    p = commands.add_parser("simulate", help="generate a synthetic ecosystem")
    p.add_argument("--spec", required=True, help="SynthSpec JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser("report", help="render a causality matrix to CSV/JSON")
    p.add_argument("--matrix", required=True,
                   help="matrix JSON (bare matrix or full run report)")
    p.add_argument("--groups", help="CSV mapping handle -> group")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (EgofluxError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
