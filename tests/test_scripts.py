"""Smoke tests: the scripts run and print what the library computes."""

import pathlib
import runpy

from srkit.ambient import profile_create
from srkit.bounds import TABLE_BOUNDS, bound_report
from srkit.field import field_create

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_bound_tables_star_the_best_bounds(capsys):
    runpy.run_path(str(SCRIPTS / "bound_tables.py"), run_name="__main__")
    tables = capsys.readouterr().out.strip().split("\n\n")
    F2 = field_create(2)
    mixed = profile_create(F2, [(2, 2)] + [(1, 2)] * 7 + [(1, 1)] * 5)
    expected = [
        ("Pi_2(2x2 | 1x2 x7 | 1x1 x5):", [(mixed, d) for d in (8, 9, 11)]),
        ("Pi_2(2x2 | ... | 2x2), t blocks:",
         [(profile_create(F2, [(2, 2)] * t), d)
          for t, d in ((4, 5), (6, 8), (7, 10), (9, 14), (17, 32))]),
    ]
    assert len(tables) == len(expected)
    for text, (title, cases) in zip(tables, expected):
        lines = text.splitlines()
        assert lines[0] == title
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
        assert list(rows) == list(TABLE_BOUNDS)
        for col, (profile, d) in enumerate(cases):
            rep = bound_report(profile, d)
            starred = {name for name in TABLE_BOUNDS
                       if rows[name][col].endswith("*")}
            assert starred == rep.best
            for name in TABLE_BOUNDS:
                v = rep.entries[name]
                assert rows[name][col].rstrip("*") == ("-" if v is None else str(v))
