"""The CLI exit-code contract on mutated fixture files and mutated argv.

Each file example takes one `tests/fixtures/*.src` text, drops, duplicates
or truncates one line or changes one digit or separator, and runs a command
on it.  Each argv example builds the arguments of one subcommand from valid
and mutated values: 0, negatives, 2^0, 1, 6, empty profiles, reversed grids
and unknown bound names.  Both run under a small enumeration guard.
Whatever the input, nothing may escape `main`, the exit code is 0, 1, 2 or
3, and exit 1 comes only with a verdict line on stdout.
"""

import contextlib
import io
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkit.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
TEXTS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.src"))}

COMMANDS = [
    ["check"],
    ["distributions"],
    ["distributions", "--dual", "--check-macwilliams"],
    ["macwilliams"],
]

# a negative verdict: a code that is not MSRD, or a failed identity check
VERDICT = re.compile(r"^(not MSRD|macwilliams: .*FAIL)", re.M)

SEPARATORS = " ;,x=\n"


@st.composite
def mutated(draw):
    text = draw(st.sampled_from(sorted(TEXTS)).map(TEXTS.get))
    lines = text.split("\n")
    kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "digit",
                                 "separator"]))
    if kind in ("drop", "duplicate", "truncate"):
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            lines[i:i + 1] = []
        elif kind == "duplicate":
            lines[i:i] = [lines[i]]
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        return "\n".join(lines)
    pool = "0123456789" if kind == "digit" else SEPARATORS
    spots = [j for j, ch in enumerate(text) if ch in pool]
    j = draw(st.sampled_from(spots))
    ch = draw(st.sampled_from(pool.replace(text[j], "")))
    return text[:j] + ch + text[j + 1:]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=mutated(), command=st.sampled_from(COMMANDS))
def test_mutated_fixture_keeps_the_exit_code_contract(text, command,
                                                      tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "mutated.src"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setenv("SRKIT_MAX_ENUM", "2000")
        rc = main(command + [str(path)], out=out)
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert VERDICT.search(out.getvalue())
    if rc in (2, 3):
        assert err.getvalue().startswith(
            "error: " if rc == 2 else "guard exceeded: ")


def values(valid, mutated):
    """A valid value three times in four, else a mutated one."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(mutated if i == 0 else valid))


INTS = values(["1", "2", "3"], ["0", "-1", "6"])
QS = values(["2", "3", "4", "2^2"], ["2^0", "1", "6", "0", "-2"])
QINTS = values(["2", "3", "4"], ["2^0", "1", "6", "0", "-2"])
PROFILES = values(["2x2", "1x2x3", "2x3,1x3", "2x2,1x1x2"],
                  ["", "0x2", "2x0", "x"])
SHAPES = values(["2,2", "3,2,1", "1"], ["", "0,1", "-1", "6,6"])
GRIDS = values(["0:1:0.25", "0:0.5:0.1"],
               ["1:0:0.25", "0:1:0", "0:1:-0.5", "0:1"])
BOUNDS = values(["singleton", "singleton,total-distance",
                 "projective-sphere-packing"], ["nope", ""])
SRCS = values(sorted(str(p) for p in FIXTURES.glob("*.src")),
              [str(FIXTURES / "missing.src")])
NAMES = values(["gabidulin", "mds-lift", "d2", "dn", "dn-minus", "msrd111",
                "combine", "msrd111-ext", "simplex-lift"], ["unknown"])

# Each subcommand's arguments as (flag, values): flag None is the
# positional argument, a tuple of flags offers one of them, and values None
# is a switch.  Every one of them is left out in some examples, so missing
# arguments are covered too.
OPTIONS = {
    "bounds": [("--q", QS), ("--profile", PROFILES), ("--d", INTS),
               ("--all-d", None),
               ("--format", st.sampled_from(["table", "csv", "json", "xml"]))],
    "check": [(None, SRCS)],
    "dual": [(None, SRCS)],
    "shorten": [(None, SRCS), (("--row", "--col"), INTS), ("--index", INTS)],
    "puncture": [(None, SRCS), ("--row", INTS)],
    "distributions": [(None, SRCS), ("--dual", None),
                      ("--check-macwilliams", None)],
    "macwilliams": [(None, SRCS)],
    "omega": [("--q", QINTS), ("--m", INTS), ("--shape", SHAPES),
              ("--d", INTS),
              (("--fast", "--full"), None), ("--dual", None)],
    "construct": [(None, NAMES), ("--q", QS), ("--profile", PROFILES),
                  ("--n", INTS), ("--m", INTS), ("--d", INTS), ("--t", INTS),
                  ("--t2", INTS), ("--s", INTS), ("--r", INTS),
                  ("--alpha", INTS), ("--m-hat", INTS), ("--certify", None)],
    "asymptotics": [("--q", QINTS), ("--m", INTS), ("--n", INTS),
                    ("--head", SHAPES), ("--n-head", SHAPES),
                    ("--bounds", BOUNDS), ("--grid", GRIDS)],
    "sphere-volume": [("--q", QS), ("--profile", PROFILES), ("--r", INTS)],
}

# the verdict line of each subcommand that has a negative verdict
VERDICTS = {
    "check": r"^not MSRD, d=",
    "shorten": r"^shortened to .*MSRD=False",
    "puncture": r"^punctured to .*MSRD=False",
    "distributions": r"^macwilliams: .*FAIL",
    "omega": r"^Excluded, witness",
    "construct": r"MSRD=False|meets=False",
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, pool in OPTIONS[command]:
        if draw(st.integers(0, 7)) == 0:
            continue
        if isinstance(flag, tuple):
            flag = draw(st.sampled_from(flag))
        argv += [] if flag is None else [flag]
        argv += [] if pool is None else [draw(pool)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=1200)
@given(argv=argvs())
def test_mutated_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setenv("SRKIT_MAX_ENUM", "2000")
        rc = main(argv, out=out)
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert re.search(VERDICTS[argv[0]], out.getvalue(), re.M)
    if rc == 2:
        assert "error: " in err.getvalue()
    if rc == 3:
        assert err.getvalue().startswith("guard exceeded: ")
