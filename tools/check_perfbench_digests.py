#!/usr/bin/env python
"""Pin what the end-to-end benchmark serves: check its smoke-run digests.

``perfbench/run.py`` fails when the phases of one run disagree, but a change
that alters every served round alike passes that check.  This script runs
the smoke configuration (seed 1, 6 s, traced) and fails when any phase's
``digest_first_N`` differs from the literals committed below.  A change
that means to change served rounds updates them here, visibly.

Exit codes: 0 = the run passed and every digest matches, 1 = otherwise.

Usage, from anywhere::

    python tools/check_perfbench_digests.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_COMMAND = [
    "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "6",
    "--trace", "1",
]

#: Per workload: (sessions every phase served, digest of their rounds).
PINNED_DIGESTS = {
    "hetero_open": (32, "6905335e33e74ca65ed0ded56b085d3e"),
    "shared_prefix": (512, "de8851c5231a83c744d67b97aec35a2b"),
    "noisy_churn": (32, "f044c468c16c49f13380cfbe31da22b1"),
}

_WORKLOAD = re.compile(r"^== workload (\S+)$")
_PHASE = re.compile(r"^phase (\S+):.* digest_first_(\d+)=([0-9a-f]+)$")


def digest_problems(output: str) -> list:
    """Every way ``output`` of the smoke run departs from the pinned digests."""
    problems, seen, workload = [], set(), None
    for line in output.splitlines():
        header = _WORKLOAD.match(line)
        if header:
            workload = header.group(1)
            continue
        phase = _PHASE.match(line)
        if not phase or workload not in PINNED_DIGESTS:
            continue
        seen.add(workload)
        found = (int(phase.group(2)), phase.group(3))
        if found != PINNED_DIGESTS[workload]:
            problems.append(
                f"{workload} phase {phase.group(1)}: digest_first_{found[0]}="
                f"{found[1]}, pinned digest_first_{PINNED_DIGESTS[workload][0]}="
                f"{PINNED_DIGESTS[workload][1]}"
            )
    problems.extend(
        f"{workload}: no phase digest in the output"
        for workload in PINNED_DIGESTS
        if workload not in seen
    )
    return problems


def main() -> int:
    completed = subprocess.run(
        [sys.executable, *SMOKE_COMMAND],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    print(completed.stdout, end="")
    if completed.returncode != 0:
        print(
            f"error: perfbench/run.py exited with {completed.returncode}",
            file=sys.stderr,
        )
    problems = digest_problems(completed.stdout)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if completed.returncode != 0 or problems else 0


if __name__ == "__main__":
    sys.exit(main())
