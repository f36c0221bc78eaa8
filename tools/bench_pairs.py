"""Compare a change's end-to-end benchmark metrics with a git revision's, in alternated pairs.

Usage (from the repository root):

    python3 tools/bench_pairs.py --base REV --workload alter_apply --pairs 10 --seed 1

REV is unpacked with ``git archive`` into a temporary directory.  Each pair
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
from REV's files and once from this working tree, each in a fresh
interpreter; REV runs first in odd pairs and the change first in even ones,
so a drift in machine speed falls on both sides.  T is ``run_seconds`` of
``BENCHMARK.json``.

The script prints each pair's ``run_s`` (with ``setup_s``, ``peak_rss_mb``
and ``recall``).  Then, for every ``end_to_end`` metric of ``BENCHMARK.json``,
it prints each side's median and quartiles and one verdict (see `verdict`):
worse beyond its bound, unresolved, or within bound.  Last come the change's
``run_s`` wins, ties and losses, and whether the claim rule holds: over at
least 10 pairs, the change is faster in at least 9 of every 10, and its
median is below REV's by more than the spread between REV's quartiles.
Quartiles interpolate linearly between the sorted runs, as
``numpy.percentile`` does.  It exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from compare_artifacts import ROOT, unpack


# The claim rule needs at least this many pairs.
MIN_PAIRS = 10
WORSE, UNRESOLVED, WITHIN = "worse beyond its bound", "unresolved", "within bound"


@dataclass(frozen=True)
class Summary:
    """Each side's median and quartiles of ``run_s``, the change's wins, ties
    and losses over the pairs, and whether the claim rule holds."""

    base: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    wins: int
    ties: int
    losses: int
    holds: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of `values`, linearly interpolated."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[float, float]]) -> Summary:
    """The summary of (base, change) ``run_s`` pairs; lower is better."""
    if not pairs:
        raise ValueError("no pairs to summarize")
    wins = sum(change < base for base, change in pairs)
    ties = sum(change == base for base, change in pairs)
    base = quartiles([b for b, _ in pairs])
    change = quartiles([c for _, c in pairs])
    # At least 10 pairs and 9 wins in every 10, ties counting for neither side.
    holds = (len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs)
             and base[1] - change[1] > base[2] - base[0])
    return Summary(base=base, change=change, wins=wins, ties=ties,
                   losses=len(pairs) - wins - ties, holds=holds)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's verdict from each side's runs.

    WORSE when the change's median is worse than REV's by more than `bound`
    times REV's median; otherwise UNRESOLVED when REV's quartile spread is
    wider than that and not every change run beats every REV run; otherwise
    WITHIN.  `better` is "lower" or "higher".
    """
    sign = {"lower": 1, "higher": -1}[better]  # sign * value: lower is better
    q1, median, q3 = quartiles(base)
    allowed = bound * median
    if sign * (quartiles(change)[1] - median) > allowed:
        return WORSE
    if q3 - q1 > allowed and max(sign * c for c in change) >= min(sign * b for b in base):
        return UNRESOLVED
    return WITHIN


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from `tree`; its end-to-end metric values."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"perfbench run from {tree} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", type=int, required=True, help="alternated pairs to run")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": unpack(args.base, Path(tmp)), "change": ROOT}
        print(f"{args.workload} seed {args.seed}, {seconds} s per run, base {args.base}")
        for n in range(args.pairs):
            order = ["base", "change"] if n % 2 == 0 else ["change", "base"]
            found = {side: run_bench(trees[side], args.workload, args.seed, seconds)
                     for side in order}
            for side in order:
                runs[side].append(found[side])
            shown = "  ".join(f"{metric} {found['base'][metric]:{form}} / "
                              f"{found['change'][metric]:{form}}" for metric, form in
                              (("run_s", ".3f"), ("setup_s", ".3f"), ("peak_rss_mb", ".1f"),
                               ("recall", ".3f")))
            print(f"  pair {n + 1:2d} ({order[0]} first)  {shown}", flush=True)
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [run[name] for run in runs[side]] for side in runs}
        shown = "  ".join(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]" for side, (q1, median, q3)
                          in zip(values, map(quartiles, values.values())))
        outcome = verdict(values["base"], values["change"], metric["better"], metric["bound"])
        print(f"{name:<12} median [quartiles]  {shown}  "
              f"({metric['better']} is better, bound {metric['bound']:.1%}): {outcome}")
    pairs = [(b["run_s"], c["run_s"]) for b, c in zip(runs["base"], runs["change"])]
    summary = summarize(pairs)
    print(f"change lower in {summary.wins} of {len(pairs)} pairs "
          f"({summary.ties} tied, {summary.losses} higher); "
          f"claim rule {'holds' if summary.holds else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
