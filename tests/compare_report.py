"""Compare a ``gexpect verify`` JSON report with a reference report.

    python tests/compare_report.py tests/data/verify_report.json REPORT

The reports must hold the same check ids in the same order with the same
``pass`` and ``expected_fail`` outcomes, and ``lhs``, ``rhs`` and every
numeric ``details`` value of the reference within 1e-12 absolute. Keys that
the reference lacks are allowed. Prints each difference and exits 1 if there
is any, 0 otherwise.
"""

from __future__ import annotations

import json
import sys

TOL = 1e-12


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= TOL
    return a == b


def compare(reference: list, report: list) -> list[str]:
    """Every difference between two parsed reports, one line each."""
    ids = [d["id"] for d in reference]
    got = [d["id"] for d in report]
    if ids != got:
        return [f"check ids differ: reference {ids}, report {got}"]
    diffs = []
    for ref, new in zip(reference, report):
        for key in ("pass", "expected_fail"):
            if ref[key] != new[key]:
                diffs.append(f"{ref['id']}: {key} {ref[key]} -> {new[key]}")
        pairs = [(k, ref[k], new[k]) for k in ("lhs", "rhs")]
        pairs += [(f"details.{k}", v, new["details"].get(k))
                  for k, v in ref["details"].items()]
        diffs += [f"{ref['id']}: {k} {a!r} -> {b!r}"
                  for k, a, b in pairs if not _close(a, b)]
    return diffs


def main(argv=None) -> int:
    ref_path, report_path = sys.argv[1:] if argv is None else argv
    with open(ref_path, encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    diffs = compare(reference, report)
    for line in diffs:
        print(line)
    print(f"{len(reference)} checks compared with {ref_path}: "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
