#!/usr/bin/env python3
"""Print the two bound-comparison tables (best value per column starred)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from srkit.ambient import profile_create  # noqa: E402
from srkit.bounds import TABLE_BOUNDS, bound_report  # noqa: E402
from srkit.field import field_create  # noqa: E402

F2 = field_create(2)


def table(title, labels, profiles_and_ds):
    print(title)
    reports = [bound_report(p, d) for p, d in profiles_and_ds]
    width = max(len(n) for n in TABLE_BOUNDS)
    print("  " + "bound".ljust(width) + "".join(f"{lab:>10}" for lab in labels))
    for name in TABLE_BOUNDS:
        cells = []
        for rep in reports:
            v = rep.entries[name]
            text = "-" if v is None else str(v)
            if name in rep.best and v is not None:
                text += "*"
            cells.append(text)
        print("  " + name.ljust(width) + "".join(f"{c:>10}" for c in cells))
    print()


if __name__ == "__main__":
    mixed = profile_create(F2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5)
    table("Pi_2(2x2 | 1x2 x7 | 1x1 x5):", ["d=8", "d=9", "d=11"],
          [(mixed, 8), (mixed, 9), (mixed, 11)])

    cols = [(4, 5), (6, 8), (7, 10), (9, 14), (17, 32)]
    table("Pi_2(2x2 | ... | 2x2), t blocks:", [f"{t}/{d}" for t, d in cols],
          [(profile_create(F2, [(2, 2)] * t), d) for t, d in cols])
