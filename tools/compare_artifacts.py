"""Check that a change writes the same benchmark artifacts as a git revision.

Usage (from the repository root):

    python3 tools/compare_artifacts.py --base REV --workload alter_apply --seeds 3,4,5

REV is unpacked with ``git archive`` into a temporary directory.  Each seed's
input is generated once, by this tree's ``perfbench/workloads.generate``, and
``perfbench/job.py`` of each tree (REV's, then this working tree's; the order
alternates from seed to seed) runs it in a fresh interpreter with one BLAS
thread.  The script prints every artifact as identical or differing, and each
job's ``run_s`` and ``ru_maxrss``; it exits 1 if any artifact differs.  Under
a differing ``.json`` artifact it prints each pattern of the key paths whose
values differ once, dot-joined with list items as ``*``, followed by how many
differing values it covers (for example ``weights.*.*  192`` or
``silhouette_by_k.5  1``), and under a differing ``.csv`` artifact how many
rows after the header differ (for example ``labels.csv: 2 of 42,433 rows
differ``).

Nothing here imports numpy, and every job is a child of this small process:
on Linux a child's ``ru_maxrss`` starts at the RSS of the process that forked
it, so a large parent would hide the job's own peak.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_BLAS_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
GENERATE = """
import json, sys
from pathlib import Path
import workloads
gen = workloads.generate(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
print(json.dumps(gen.job))
"""


def _env(tree: Path, *extra: Path) -> dict[str, str]:
    path = os.pathsep.join(str(p) for p in (*extra, tree / "src"))
    return {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path}


def unpack(rev: str, dest: Path) -> Path:
    """The files of `rev`, as ``git archive`` writes them, under dest/base."""
    tar, tree = dest / "base.tar", dest / "base"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar), rev],
                   check=True)
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(tree)], check=True)
    tar.unlink()
    return tree


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """The job dict of one generated input, written under out_dir."""
    proc = subprocess.run([sys.executable, "-c", GENERATE, workload, str(seed), str(out_dir)],
                          env=_env(ROOT, ROOT / "perfbench"), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"generating {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_job(tree: Path, job: dict, out: Path) -> dict:
    """Run `tree`'s job.py on `job` in a fresh interpreter; return its statistics."""
    job_file = out.parent / (out.name + ".job.json")
    job_file.write_text(json.dumps({**job, "out": str(out)}), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "job.py"), str(job_file)],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"job {out} failed:\n{proc.stderr[-2000:]}")
    return json.loads((out.parent / (out.name + ".stats.json")).read_text(encoding="utf-8"))


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact under `out`, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


_ABSENT = object()  # the side of a key or list item that one document lacks


def differing_keys(base, change, path: str = "", item=str) -> list[str]:
    """Dot-joined paths of the values that differ between two parsed JSON
    documents, list items named `item(index)`; a key or item present on one
    side only counts as differing."""
    name = str
    if isinstance(base, list) and isinstance(change, list):
        base, change, name = dict(enumerate(base)), dict(enumerate(change)), item
    if not (isinstance(base, dict) and isinstance(change, dict)):
        return [] if base == change else [path or "(root)"]
    found = []
    for key in sorted(set(base) | set(change)):
        found += differing_keys(base.get(key, _ABSENT), change.get(key, _ABSENT),
                                f"{path}.{name(key)}" if path else name(key), item)
    return found


def differing_patterns(base, change) -> Counter:
    """How many values differ under each differing key path with list items as `*`."""
    return Counter(differing_keys(base, change, item=lambda _: "*"))


def differing_rows(base: str, change: str) -> tuple[int, int]:
    """(rows that differ, rows) after the header of two CSV texts, compared by
    position; a row present on one side only counts as differing."""
    base_rows, change_rows = (list(csv.reader(text.splitlines()))[1:] for text in (base, change))
    n = max(len(base_rows), len(change_rows))
    same = sum(a == b for a, b in zip(base_rows, change_rows))
    return n - same, n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--seeds", default="3,4,5",
                        help="comma-separated instance seeds (default 3,4,5)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        work = Path(tmp)
        trees = {"base": unpack(args.base, work), "change": ROOT}
        for n, seed in enumerate(seeds):
            job = generate(args.workload, seed, work / f"input{seed}")
            order = ["base", "change"] if n % 2 == 0 else ["change", "base"]
            found = {}
            print(f"{args.workload} seed {seed}")
            for side in order:
                out = work / f"{side}{seed}"
                stats = run_job(trees[side], job, out)
                found[side] = digests(out)
                print(f"  {side:<6} run_s {stats['run_s']:.3f}  "
                      f"ru_maxrss {stats['peak_rss_kb'] / 1024:.1f} MB")
            for name in sorted(set(found["base"]) | set(found["change"])):
                same = found["base"].get(name) == found["change"].get(name)
                differing += not same
                print(f"  {'identical' if same else 'DIFFERENT':<9}  {name}")
                if same or name not in found["base"] or name not in found["change"] \
                        or not name.endswith((".json", ".csv")):
                    continue
                texts = [(work / f"{side}{seed}" / name).read_text(encoding="utf-8")
                         for side in ("base", "change")]
                if name.endswith(".json"):
                    for pattern, count in differing_patterns(*map(json.loads, texts)).items():
                        print(f"      {pattern}  {count:,}")
                else:
                    n_diff, n_rows = differing_rows(*texts)
                    print(f"      {name}: {n_diff:,} of {n_rows:,} rows differ")
    print(f"{differing} artifact(s) differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
