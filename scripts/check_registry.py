#!/usr/bin/env python3
"""Audit the registry of known codes.

Every entry that stores explicit generators is rebuilt and checked the hard
way: the parameters must come out as claimed, the brute-force minimum distance
must be at least the recorded d, and both transform identities must hold
coefficientwise.  Entries without generators (published parameters and
consequences of the extension rules) are checked for internal consistency
only: they must not exceed the upper bound of their cell in the bounds table
(the LP bound capped by the known nonexistence results).

Enumeration runs at the library's default budget, which covers the largest
group of any registry code with generators (rank 30, the combined group of
[[15,1,15;14]] and of [[15,14,2;1]]).  Exit status is nonzero if anything
fails, so this doubles as a CI gate.
"""

import sys

from eaqec import build_table, code_from_entry, eaqec_identities, min_distance, registry


def main() -> int:
    failures = 0
    checked_hard = 0
    checked_lp = 0
    entries = registry()
    table = build_table(max(entry.n for entry in entries))

    for entry in entries:
        if entry.generators is not None:
            code = code_from_entry(entry)
            problems = []
            if (code.n, code.k, code.c) != (entry.n, entry.k, entry.c):
                problems.append(
                    f"rebuilt as [[{code.n},{code.k};{code.c}]]"
                )
            d = min_distance(code)
            if d < entry.d:
                problems.append(f"distance {d} below recorded {entry.d}")
            normalizer_check, isotropic_check = eaqec_identities(code)
            if not (normalizer_check.holds and isotropic_check.holds):
                problems.append("transform identity mismatch")
            if problems:
                failures += 1
                print(f"FAIL {entry.params_str} ({entry.source}): " + "; ".join(problems))
            else:
                print(f"ok   {entry.params_str} ({entry.source}) distance={d}")
            checked_hard += 1
        elif entry.is_maximal_entanglement:
            cap = table.cell(entry.n, entry.k).upper
            if entry.d > cap:
                failures += 1
                print(f"FAIL {entry.params_str} ({entry.source}): exceeds LP bound {cap}")
            else:
                print(f"ok   {entry.params_str} ({entry.source}) <= LP bound {cap}")
            checked_lp += 1

    print(
        f"\n{checked_hard} entries rebuilt and verified, "
        f"{checked_lp} cross-checked against LP bounds, {failures} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
