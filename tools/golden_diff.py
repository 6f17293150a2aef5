#!/usr/bin/env python3
"""Name the report section of every line where a regenerated report
differs from its golden file.

    python3 tools/golden_diff.py GOLDEN REGENERATED

Section headers are the report's `FIG n —`, `TABLE n —` and `ABLATION —`
lines. Each removed (`-`) or added (`+`) line is printed under the header
it sits beneath, so a failure names the figure without rerunning
anything. Exits 0 when the two files are byte-identical, 1 otherwise.
"""

import difflib
import re
import sys

HEADER = re.compile(r"^(FIG \d+|TABLE \d+|ABLATION) —")


def sections(lines):
    """The section header each line sits under (a header sits under itself)."""
    current = "(before the first section)"
    out = []
    for line in lines:
        if HEADER.match(line):
            current = line
        out.append(current)
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1], "rb") as f:
        golden = f.read()
    with open(sys.argv[2], "rb") as f:
        regenerated = f.read()
    if golden == regenerated:
        return 0
    old = golden.decode("utf-8").splitlines()
    new = regenerated.decode("utf-8").splitlines()
    old_sec, new_sec = sections(old), sections(new)
    shown = None
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        lines = [(old_sec[i], "-", old[i]) for i in range(i1, i2)]
        lines += [(new_sec[j], "+", new[j]) for j in range(j1, j2)]
        for section, sign, line in lines:
            if section != shown:
                print(f"@@ {section}")
                shown = section
            print(f"{sign}{line}")
    if old == new:
        print("@@ the files differ only in line endings or the final newline")
    return 1


if __name__ == "__main__":
    sys.exit(main())
