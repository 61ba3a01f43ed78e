"""Record or check the outputs this checkout computes: the golden file.

    python3 tools/golden.py --write
    python3 tools/golden.py --seed 2 --seed 7

``tests/golden/outputs.txt`` holds one line per fact, ``<key> <value>``:

- ``numpy <version>``: the numpy the file was made with, since numpy does
  not promise the same ``Generator`` streams across versions;
- ``run/<name> exit=<code> report=<sha256> events=<sha256>``: each run of
  ``tests/run_dirs.py`` with the SHA-256 of its ``report.txt`` and
  ``events.log`` (its ``config.ini`` snapshot is left out);
- ``seed<s>/<workload> calls=... runs=... reports=... round=...``: the lines
  ``tools/run_hashes.py --seed s`` prints, at seeds 1, 2 and 7.

``--write`` regenerates the file.  Without it, the script runs the same
tools and compares: the numpy version, every run, and the ``run_hashes``
lines at each ``--seed`` (default 1, 2 and 7).  It prints each
key that moved and exits 1 on a mismatch.  A change that alters outputs on
purpose regenerates the file, so its diff lists what moved.
"""
import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.txt"
SEEDS = (1, 2, 7)
HEADER = "# Outputs of this checkout; regenerate with: python3 tools/golden.py --write\n"


def _output(*argv) -> list[str]:
    done = subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_lines() -> list[str]:
    """One line per ``tests/run_dirs.py`` run, with its digests."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="golden-") as out:
        for line in _output(ROOT / "tests" / "run_dirs.py", out):
            name, code = line.split(" ")
            run = Path(out) / name
            lines.append(f"run/{name} {code} report={_sha256(run / 'report.txt')} "
                         f"events={_sha256(run / 'events.log')}")
    return lines


def hash_lines(seed: int) -> list[str]:
    """The per-workload lines of ``tools/run_hashes.py --seed seed``; its
    closing JSON line repeats them."""
    lines = _output(ROOT / "tools" / "run_hashes.py", "--seed", seed)[:-1]
    return [f"seed{seed}/{line}" for line in lines]


def read() -> dict[str, str]:
    """The golden file as ``{key: value}``."""
    entries = {}
    for line in GOLDEN.read_text("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition(" ")
            entries[key] = value
    return entries


def moved(expected: dict[str, str], lines: list[str], prefix: str) -> list[str]:
    """The keys starting with ``prefix`` whose value in ``lines`` differs
    from ``expected``, or that only one side has."""
    got = dict(line.partition(" ")[::2] for line in lines)
    keys = {k for k in expected if k.startswith(prefix)} | set(got)
    return sorted(k for k in keys if expected.get(k) != got.get(k))


def check(seeds) -> list[str]:
    """Every problem found against the golden file, or none."""
    expected = read()
    if expected.get("numpy") != np.__version__:
        return [f"numpy {np.__version__} here, but the golden file was made with numpy "
                f"{expected.get('numpy')}"]
    problems = [f"{key} moved" for key in moved(expected, run_lines(), "run/")]
    for seed in seeds:
        problems += [f"{key} moved" for key in moved(expected, hash_lines(seed), f"seed{seed}/")]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    parser.add_argument("--seed", type=int, action="append",
                        help="check the run_hashes lines at this seed (repeatable)")
    args = parser.parse_args(argv)
    if args.write:
        lines = [f"numpy {np.__version__}", *run_lines()]
        for seed in SEEDS:
            lines += hash_lines(seed)
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(HEADER + "\n".join(lines) + "\n", "utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(lines)} lines")
        return 0
    seeds = args.seed or SEEDS
    problems = check(seeds)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"outputs match {GOLDEN.relative_to(ROOT)} (runs, seeds {list(seeds)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
