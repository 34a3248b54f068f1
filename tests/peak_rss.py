"""Run a command; fail unless it exits as expected within a peak-RSS bound.

Usage: python3 tests/peak_rss.py EXPECTED_EXIT BOUND_MB CMD...

The peak is RUSAGE_CHILDREN's maxrss: the largest resident set among the
waited-for descendants, so `timeout 60 CMD` reports CMD's own peak.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    expected, bound, cmd = int(argv[0]), float(argv[1]), argv[2:]
    code = subprocess.run(cmd).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit {code} (expected {expected}), peak RSS {peak:.1f} MB, bound {bound:g} MB")
    return int(code != expected or peak > bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
