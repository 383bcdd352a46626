#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

Each fault below must be reported as a failure (correct: false, a
nonzero failed count and a nonzero exit status) whose failure notes
name the fault's own cause, never as a pass; a clean control run must
pass. Uses the short serve_mixed workload.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*extra):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", "serve_mixed", "--seed", "7",
                        "--seconds", "1", "--trace", "0", *extra],
                       cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    notes = json.loads(lines[-2])["failures"] if len(lines) > 1 else []
    return r.returncode, result, notes


def main():
    wrong = os.path.join(ROOT, ".bench_build", "selftest_expected.json")
    os.makedirs(os.path.dirname(wrong), exist_ok=True)
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        digests = json.load(f)
    digests["serve_mixed"] = "0123456789abcdef"
    with open(wrong, "w") as f:
        json.dump(digests, f)

    # (name, causes: None for the passing control, else words of which
    # one must appear in the failure notes, flags)
    cases = [
        ("clean control run", None, ()),
        ("wrong expected digest", ("digest",), ("--expected", wrong)),
        ("daemon killed mid-run", ("transport", "shut down"),
         ("--kill-daemon-after", "0.4")),
        # One worker stalled per job and a one-slot queue: concurrent
        # cold submits are refused with `overloaded`.
        ("refused submit", ("overloaded",),
         ("--daemon-arg=--workers=1", "--daemon-arg=--queue-depth=1",
          "--daemon-arg=--fault=scheduler.worker_stall_ms=300:1000")),
    ]
    status = 0
    for name, causes, extra in cases:
        code, result, notes = bench(*extra)
        if causes is None:
            ok = (code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0)
        else:
            ok = (code != 0 and result is not None
                  and not result["correct"] and result["failed"] > 0
                  and any(c in n for c in causes for n in notes))
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code}, "
              f"result {json.dumps(result and {k: result[k] for k in ('correct', 'attempted', 'failed')})}"
              f"{'; ' + ' | '.join(notes) if notes else ''}")
    os.remove(wrong)
    return status


if __name__ == "__main__":
    sys.exit(main())
