"""The CLI exit-code contract on mutated fixture files.

Each example takes one `tests/fixtures/*.src` text, drops, duplicates or
truncates one line or changes one digit or separator, and runs a command
on it under a small enumeration guard.  Whatever the input, nothing may
escape `main`, the exit code is 0, 1, 2 or 3, and exit 1 comes only with a
verdict line on stdout.
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
