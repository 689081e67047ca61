#!/usr/bin/env python3
"""Write structure-constant JSON files consumable by `freejordan tag`.

Usage: export_tag_input.py <kind> <out.json>

kinds: scalar, diag2, diag3, sym2, sym3, odd, free-g-N for g = 1, 2, 3
(e.g. free-2-4)
"""

import json
import sys

from freejordan import tkk


def build(kind: str):
    if kind == "scalar":
        return tkk.scalar_jordan()
    if kind.startswith("diag"):
        return tkk.diagonal_jordan(int(kind[4:]))
    if kind.startswith("sym"):
        return tkk.symmetric_matrix_jordan(int(kind[3:]))
    if kind == "odd":
        return tkk.truncated_free_jordan(1, 1, parities=(1,))
    if kind.startswith("free-"):
        _, g, n = kind.split("-")
        return tkk.truncated_free_jordan(int(g), int(n))
    raise SystemExit("unknown kind %r" % kind)


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.strip())
    J = build(sys.argv[1])
    with open(sys.argv[2], "w") as fh:
        json.dump(J.to_json(), fh, indent=1)
    print("wrote %s (dim %d)" % (sys.argv[2], J.dim))


if __name__ == "__main__":
    main()
