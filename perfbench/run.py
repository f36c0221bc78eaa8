"""egoflux batch-job benchmark: one workload, one seed, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload ego_fit --seed 1 --seconds 20 --trace 0

The harness generates INSTANCES inputs from the seed (untimed), then runs
jobs one at a time, each in a fresh interpreter, cycling through the inputs
until ``--seconds`` have passed and every input has run at least twice.  The
first job on an input is its reference: every later job on it must write
byte-identical artifacts, and every job's artifacts are checked for internal
consistency.  Planted-coupling recovery is scored on the references, pooled
over the inputs.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` traced and untraced jobs alternate and
it holds the per-layer metrics.  Lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170  # a run must end within 180 s; a job still running then is killed
RUN_BUDGET_S = 150  # start no further job once the run has lasted this long
INSTANCES = 3  # inputs generated per run; data-dependent work varies between them
# One BLAS/OpenMP thread in the jobs and in the harness's calibration.  The
# job is mostly single-threaded Python; with two BLAS threads on a shared
# 2-vCPU machine the features layer of one job now and then took 2.2 s
# instead of 0.9 s, with the same median.
ONE_BLAS_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {
    "run_s": "s",
    "posts_per_s": "posts/s",
    "pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recall": "ratio",
}


def calibrate() -> float:
    """Wall time of a fixed mix of pure-Python and BLAS work.

    Run in the harness before every job, it tracks how fast the machine is
    at the time, so that runs taken apart can be compared against it.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(500_000):
        word = f"w{i * 7919 % 1009}"
        counts[word] = counts.get(word, 0) + 1
    a = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(80):
        a = np.tanh(a @ a.T / 256)
    return time.perf_counter() - t0


class JobFailed(Exception):
    """A job raised, timed out, or wrote no statistics."""


def _child_env() -> dict[str, str]:
    return {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(SRC)}


def run_job(job: dict, work: Path, name: str, trace: bool = False,
            timeout: float = RUN_LIMIT_S) -> tuple[Path, dict]:
    """Run one job in a fresh interpreter; return its output dir and statistics."""
    out = work / name
    job = {**job, "out": str(out)}
    job_file = work / f"{name}.job.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "job.py"), str(job_file)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"{name}: timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise JobFailed(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    stats_path = work / f"{name}.stats.json"
    if not stats_path.is_file():
        raise JobFailed(f"{name}: no statistics written")
    return out, json.loads(stats_path.read_text(encoding="utf-8"))


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact under ``out``, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def check_artifacts(out: Path, gen, reference: dict[str, str] | None) -> list[str]:
    """Failed correctness checks of one job's artifacts (empty when all pass)."""
    problems = []
    if reference is not None:
        got = digests(out)
        if got != reference:
            changed = sorted(k for k in set(got) | set(reference)
                             if got.get(k) != reference.get(k))
            problems.append(f"artifacts differ from the reference pass: {changed}")

    matrix = json.loads((out / "matrix.json").read_text(encoding="utf-8"))
    if sorted(matrix["alters"]) != gen.alters:
        problems.append(f"matrix alters {matrix['alters']} != generated {gen.alters}")
    want = {(a, t) for a in gen.alters for t in range(matrix["n_topics"])}
    have = [(p["alter"], p["topic"]) for p in matrix["pairs"]]
    if len(have) != len(want) or set(have) != want:
        problems.append("matrix does not cover every (alter, topic) pair exactly once")
    if gen.post_topics and matrix["n_topics"] < 2:
        problems.append(f"only {matrix['n_topics']} topic found")
    if not gen.post_topics and matrix["n_topics"] != gen.n_topics:
        problems.append(f"matrix has {matrix['n_topics']} topics, series {gen.n_topics}")

    if gen.post_topics:
        with open(out / "series.csv", newline="", encoding="utf-8") as fh:
            binned = sum(int(row["count"]) for row in csv.DictReader(fh))
        with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
            labeled = sum(1 for _ in csv.DictReader(fh))
        run_report = json.loads((out / "report" / "run_report.json").read_text("utf-8"))
        reported = run_report["metrics"]["n_labeled_posts"]
        if not binned == labeled == reported:
            problems.append(f"counts not conserved: series sum {binned}, "
                            f"labels {labeled}, run report {reported}")
    return problems


def _read_labels(out: Path) -> dict[str, int]:
    with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
        return {row["post_id"]: int(row["topic"]) for row in csv.DictReader(fh)}


def recovery(out: Path, gen) -> dict[str, int]:
    """Planted-coupling recovery counts, against what the matrix declares significant.

    On text workloads the discovered topics are first matched to the planted
    ones by ``linear_sum_assignment`` on their confusion matrix; a planted
    topic left without a match keeps its couplings, which then count as missed.
    Counts, not ratios, so that several instances can be pooled.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    from egoflux.stats import CausalityMatrix
    from egoflux.synth import score_detection

    matrix = CausalityMatrix.from_dict(
        json.loads((out / "matrix.json").read_text(encoding="utf-8")))
    truth = gen.truth
    if gen.post_topics:
        labels = _read_labels(out)
        confusion = np.zeros((gen.n_topics, matrix.n_topics), dtype=int)
        for pid, found in labels.items():
            confusion[gen.post_topics[pid], found] += 1
        rows, cols = linear_sum_assignment(-confusion)
        to_found = dict(zip(rows.tolist(), cols.tolist()))
        truth = [(a, to_found.get(t, -1 - t), lag, s) for a, t, lag, s in truth]
    score = score_detection(matrix, truth, matrix.alpha)
    true_pos = round(score.recall * score.n_truth)
    planted = {(a, t) for a, t, _, _ in truth}
    null = [p for p in matrix.pairs if (p.alter, p.topic) not in planted]
    return {"planted": score.n_truth, "detected": score.n_detections, "true_pos": true_pos,
            "lag_hits": round(score.lag_accuracy * true_pos),
            "null": len(null), "false_pos": sum(1 for p in null if matrix.significant(p))}


def pooled_recovery(counts: list[dict[str, int]]) -> dict[str, float]:
    """Recall, precision, lag accuracy and null FPR over all instances of a run.

    The conventions of ``score_detection`` hold: no detections gives
    precision 1, no true positives gives lag accuracy 1.
    """
    total = {k: sum(c[k] for c in counts) for k in counts[0]}
    tp = total["true_pos"]
    return {
        "recall": tp / total["planted"] if total["planted"] else 1.0,
        "precision": tp / total["detected"] if total["detected"] else 1.0,
        "lag_accuracy": total["lag_hits"] / tp if tp else 1.0,
        "null_fpr": total["false_pos"] / total["null"] if total["null"] else 0.0,
    }


class Run:
    """One benchmark run: jobs on the run's generated inputs, their checks and failures."""

    def __init__(self, work: Path, gens: list, started: float) -> None:
        self.work = work
        self.gens = gens
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        self.references: list[dict[str, str] | None] = [None] * len(gens)
        self.recovery: list[dict[str, int]] = []
        self.calibrations: list[float] = []

    def job(self, instance: int, name: str, trace: bool = False) -> dict | None:
        """One job on one instance, plus its checks; None when it failed.

        An instance's first job that passes becomes its reference: later jobs
        on it must write byte-identical artifacts, and recovery is scored on
        the reference's output.
        """
        self.attempted += 1
        gen = self.gens[instance]
        self.calibrations.append(calibrate())
        try:
            out, stats = run_job(gen.job, self.work, name, trace, self._time_left())
            problems = check_artifacts(out, gen, self.references[instance])
            if not problems:
                stats["report_bytes"] = (_dir_bytes(out / "report")
                                         + (out / "matrix.json").stat().st_size)
                stats["bundle_bytes"] = _dir_bytes(out / "bundle")
                if self.references[instance] is None:
                    self.references[instance] = digests(out)
                    self.recovery.append(recovery(out, gen))
                shutil.rmtree(out)
        except (JobFailed, OSError, ValueError, KeyError) as exc:
            problems = [str(exc)]
        if problems:
            self.failures.extend(f"{name}: {p}" for p in problems)
            return None
        return stats

    def _time_left(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def jobs(self, seconds: float, kinds: list[bool]) -> list[tuple[bool, dict]]:
        """Jobs one after another for ``seconds``, cycling through instances and kinds.

        ``kinds`` lists the trace flag of each job an instance gets in turn.
        Every instance runs at least twice, so every reference is checked by
        a rerun; no job starts once the run is near its time limit.  Stops at
        the first failed job.
        """
        schedule = [(i, trace) for i in range(len(self.gens)) for trace in kinds]
        min_jobs = 2 * len(self.gens)
        done: list[tuple[bool, dict]] = []
        deadline = time.monotonic() + seconds
        last = 0.0
        while True:
            now = time.monotonic()
            if len(done) >= min_jobs and now >= deadline:
                break
            if done and now - self.started + last > RUN_BUDGET_S:
                break
            instance, trace = schedule[len(done) % len(schedule)]
            stats = self.job(instance, f"job{len(done):03d}", trace)
            last = time.monotonic() - now
            if stats is None:
                break
            done.append((trace, stats))
        return done


def end_to_end(jobs: list[dict], recall: float) -> dict[str, float]:
    """Medians over the run's jobs; throughputs are per job, then the median."""
    return {
        "run_s": statistics.median([s["run_s"] for s in jobs]),
        "posts_per_s": statistics.median([s["n_posts"] / s["run_s"] for s in jobs]),
        "pairs_per_s": statistics.median([s["n_pairs"] / s["run_s"] for s in jobs]),
        "peak_rss_mb": statistics.median([s["peak_rss_kb"] / 1024 for s in jobs]),
        "setup_s": statistics.median([s["setup_s"] for s in jobs]),
        "recall": recall,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list]:
    """Layer metrics of the traced job with the median run_s, and its spans.

    Taking one job, not a median per metric, keeps its layer self times
    adding up to its run_s.
    """
    import tracing

    job = sorted(traced, key=lambda s: s["run_s"])[(len(traced) - 1) // 2]
    out = tracing.layer_metrics(job["spans"])
    out.update({
        "report.bytes": job["report_bytes"],
        "bundle.bytes": job["bundle_bytes"],
        "total.cpu_s": statistics.median([s["cpu_s"] for s in untraced]),
        "trace.run_s": job["run_s"],
        "trace.overhead_s": statistics.median([s["run_s"] for s in traced])
        - statistics.median([s["run_s"] for s in untraced]),
    })
    return out, job["spans"]


RATIOS = {"recall", "precision", "lag_accuracy", "null_fpr", "error_rate", "weighted_f1",
          "zero_vectors"}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.split(".")[-1] in RATIOS:
        return "ratio"
    if name == "stats.adf_per_pair":
        return "calls/pair"
    return "count"


def benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Generate, run and check one workload; return the result object."""
    import workloads

    started = time.monotonic()
    gens = [workloads.generate(workloads.WORKLOADS[name], INSTANCES * seed + i,
                               work / f"input{i}") for i in range(INSTANCES)]
    run = Run(work, gens, started)
    # Traced jobs follow an untraced one on the same input, so both see the
    # same machine state and the untraced one is the reference.
    done = run.jobs(seconds, [False, True] if trace else [False])
    untraced = [s for t, s in done if not t]
    traced = [s for t, s in done if t]
    quality = pooled_recovery(run.recovery) if run.recovery else {}
    ceiling = workloads.WORKLOADS[name].null_fpr_max
    if quality and quality["null_fpr"] > ceiling:
        run.failures.append(f"recovery: pooled null FPR {quality['null_fpr']:.4f} "
                            f"above the workload's ceiling {ceiling}")
    machine = {"machine.calib_s": statistics.median(run.calibrations)}
    metrics: dict[str, float] = {}
    if trace and traced:
        metrics, spans = per_layer(traced, untraced)
        metrics.update({f"quality.{k}": v for k, v in quality.items() if k != "recall"})
        metrics.update(machine)
        spans_path = ROOT / ".bench_work" / f"{name}-seed{seed}-spans.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        total += metrics["trace.counts_s"] + metrics["trace.unattributed_s"]
        print(f"layer self times sum to {total:.4f} s of traced run_s "
              f"{metrics['trace.run_s']:.4f} s; spans written to {spans_path}")
        print("run_s untraced: " + ", ".join(f"{s['run_s']:.3f}" for s in untraced)
              + "; traced: " + ", ".join(f"{s['run_s']:.3f}" for s in traced))
    elif untraced and not trace:
        metrics = end_to_end(untraced, quality["recall"])
        print(f"{len(untraced)} jobs timed, run_s: "
              + ", ".join(f"{s['run_s']:.3f}" for s in untraced))

    failed = len({f.split(":")[0] for f in run.failures})
    print(f"workload {name}, seed {seed}, {'traced' if trace else 'end to end'}:")
    table = {**metrics, **({} if trace else {**quality, **machine}),
             "error_rate": failed / run.attempted}
    for metric, value in table.items():
        print(f"  {metric:32s} {value:14.6g} {_unit(metric)}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    return {
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "egoflux" / "__init__.py").is_file():
        print(f"error: no egoflux sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM unwind like on an exception, so the running job is killed
    # and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
