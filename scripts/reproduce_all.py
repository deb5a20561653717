#!/usr/bin/env python3
"""Run every reproduction target and print the combined PASS/FAIL report."""

from acmcurves.cli import exit_with
from acmcurves.reproduce import TARGETS, run_target


def main() -> int:
    failures = 0
    total = 0
    for target in TARGETS:
        for row in run_target(target):
            total += 1
            failures += not row.ok
            print(row.line)
    print(f"\n{total - failures}/{total} rows pass")
    return 1 if failures else 0


if __name__ == "__main__":
    exit_with(main)
