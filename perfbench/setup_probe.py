"""A workload process's set-up: import srkit.cli and create its fields.

    python3 perfbench/setup_probe.py --fields 2,3,256 --towers 2:4,256:2

The benchmark times this script from spawn to exit for ``setup_s``, and
calls ``setup`` in its own process before the first op.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import srkit.cli  # noqa: E402,F401  (the import is part of what is timed)
from srkit.field import field_from_order, tower_create  # noqa: E402


def setup(fields, towers):
    """Create each base field GF(q) and each tower GF(q) <= GF(q^m)."""
    for q in fields:
        field_from_order(q)
    for q, m in towers:
        tower_create(field_from_order(q), m)


def _pairs(text):
    return [tuple(int(x) for x in item.split(":")) for item in text.split(",") if item]


if __name__ == "__main__":
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    setup([int(q) for q in args.get("--fields", "").split(",") if q],
          _pairs(args.get("--towers", "")))
