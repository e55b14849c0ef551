import io
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORDERS, msrd_d6_code, small_codes
from srkit.ambient import MatrixTuple, _join, parse_profile, profile_create
from srkit.cli import main
from srkit.code import _from_rows, code_create, zero_code
from srkit.errors import BadBlock, ParseError
from srkit.field import field_create
from srkit.guard import _decimal
from srkit.matq import Mat, parse_mat
from srkit.srcfile import parse_src, parse_src_text, write_src_text

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
ROOT = HERE.parent

F2 = field_create(2)


class TestSrcFormat:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURES.glob("*.src")))
    def test_round_trip_is_byte_exact(self, name):
        text = (FIXTURES / name).read_text()
        code = parse_src_text(text)
        assert write_src_text(code) == text

    def test_writer_parser_identity(self):
        C = msrd_d6_code(F2)
        assert parse_src_text(write_src_text(C)) == C

    def test_known_fixture_dimensions(self):
        assert parse_src(FIXTURES / "msrd_d6_8blocks.src").k == 3
        assert parse_src(FIXTURES / "spherepack_d3.src").k == 7
        assert parse_src(FIXTURES / "msrd_d4_gf3.src").k == 4

    def test_truncated_file(self):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        with pytest.raises(ParseError):
            parse_src_text("\n".join(text.splitlines()[:8]) + "\n")

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            parse_src_text("nope\n")

    def test_shape_mismatch_reports_line(self):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        broken = text.replace("profile 1x2x5,1x1x3", "profile 1x2x4,1x1x4")
        with pytest.raises(ParseError):
            parse_src_text(broken)

    # msrd_d4_gf3.src: line 6 is gen 1's 2x2 block over GF(3), line 7 the
    # blank after it, line 8 its first 1x2 block
    @pytest.mark.parametrize("line, text, message", [
        (6, "3 0;0 0", "line 6: malformed matrix '3 0;0 0'"),
        (6, "-1 0;0 0", "line 6: malformed matrix '-1 0;0 0'"),
        (6, "1 0;0", "line 6: malformed matrix '1 0;0'"),
        (6, "1 a;0 0", "line 6: malformed matrix '1 a;0 0'"),
        (8, "1 0 1",
         "line 8: block 2 of gen 1 has shape 1x3, profile says 1x2"),
        (8, "", "line 8: block 2 of gen 1 has shape 1x0, profile says 1x2"),
        (7, None, "line 7: expected blank line between blocks"),
        # numbers are ASCII decimal only: no other script's digits, no sign
        (6, "\u0661 0;0 0", "line 6: malformed matrix '\u0661 0;0 0'"),
        (6, "\uff11 0;0 0", "line 6: malformed matrix '\uff11 0;0 0'"),
        (6, "1 0;0 +0", "line 6: malformed matrix '1 0;0 +0'"),
        (2, "field \uff13 1 mod=1,0", "line 2: malformed field line"),
        (2, "field 3 +1 mod=1,0", "line 2: malformed field line"),
        (2, "field 3 1 mod=1,\u0660", "line 2: malformed field line"),
        (2, "field 3 1 mod=1,0 junk", "line 2: malformed field line"),
        (2, "field 3  1 mod=1,0", "line 2: malformed field line"),
        (3, "profile \uff12x2,1x2x3",
         "line 3: cannot parse block '\uff12x2'"),
        (3, "profile 2x2,1x2x+3", "line 3: cannot parse block '1x2x+3'"),
        (3, "profile 3x2,1x2x3",
         "line 3: block 3x2 has more rows than columns"),
        (4, "dim 4 junk", "line 4: malformed dim line"),
        (4, "dim +4", "line 4: malformed dim line"),
        (4, "dim \u0664", "line 4: malformed dim line"),
        # the gen number is matched as written, and no header line may
        # start with a space
        (5, "gen 01", "line 5: expected 'gen 1', got 'gen 01'"),
        (3, " profile 2x2,1x2x3",
         "line 3: expected 'profile ', got ' profile 2x2,1x2x3'"),
    ])
    def test_each_rejection_names_its_line(self, line, text, message,
                                           tmp_path, capsys):
        lines = (FIXTURES / "msrd_d4_gf3.src").read_text().split("\n")
        lines[line - 1:line] = [] if text is None else [text]
        broken = "\n".join(lines)
        with pytest.raises(ParseError) as err:
            parse_src_text(broken)
        assert (str(err.value), err.value.line) == (message, line)
        path = tmp_path / "broken.src"
        path.write_text(broken)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # a block line separates entries by ASCII spaces and tabs and rows by
    # ';' only: other whitespace, which str.split() would take, is refused
    @pytest.mark.parametrize("sep", ["\u00a0", "\u2003", "\u0085", "\u001c",
                                     "\x0b", "\x0c"])
    @pytest.mark.parametrize("spelling", ["1{}0;0 0", "1 0;{}0 0", "1 0{};0 0",
                                          "1 0;0 0{}"])
    def test_block_line_takes_no_other_whitespace(self, sep, spelling):
        lines = (FIXTURES / "msrd_d4_gf3.src").read_text().split("\n")
        lines[5] = spelling.format(sep)
        with pytest.raises(ParseError) as err:
            parse_src_text("\n".join(lines))
        assert (str(err.value), err.value.line) == \
            (f"line 6: malformed matrix {lines[5]!r}", 6)

    # msrd_d4_gf3.src spelled as the writer never writes it: each row still
    # reads as the fixture's code, and the writer gives the fixture's bytes
    @pytest.mark.parametrize("line, text", [
        # leading zeros in entries and in the header numbers
        (6, "01 0;0 0"),
        (2, "field 3 01 mod=1,0"),
        (2, "field 03 1 mod=01,00"),
        (3, "profile 02x2,1x2x03"),
        (4, "dim 04"),
        # any run of spaces or tabs in a block line
        (6, "1  0;0 0"),
        (6, " 1 0;0 0"),
        (6, "1\t0;0 0"),
        (6, "1 0 ; 0 0 "),
        # an upper-case X, written-out repeats, spaces around the block list
        (3, "profile 2X2,1x2,1x2x2"),
        (3, "profile 2x2,1X2,1x2,1x2"),
        (3, "profile  2x2,1x2x3 "),
        # and spaces or tabs around each comma
        (3, "profile 2x2, 1x2x3"),
        (3, "profile 2x2 ,1x2x3"),
        (3, "profile 2x2,\t1x2x3"),
    ])
    def test_writer_normalizes_each_accepted_spelling(self, line, text):
        fixture = (FIXTURES / "msrd_d4_gf3.src").read_text()
        lines = fixture.split("\n")
        lines[line - 1] = text
        code = parse_src_text("\n".join(lines))
        assert code == parse_src_text(fixture)
        assert write_src_text(code) == fixture

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_codes(ORDERS))
    def test_random_codes_round_trip(self, C):
        # about one random profile in six is reordered, and GF(4), GF(8)
        # and GF(9) write a modulus line of degree > 1
        text = write_src_text(C)
        assert parse_src_text(text) == C
        assert write_src_text(parse_src_text(text)) == text

    def test_blocks_are_written_in_user_order(self):
        F4 = field_create(2, 2)
        P = profile_create(F4, [(1, 1), (2, 3), (1, 2)])
        assert P.blocks == ((2, 3), (1, 2), (1, 1))
        gen = MatrixTuple(P, P.from_user_order([
            Mat(F4, [[3]]), Mat(F4, [[1, 2, 0], [0, 0, 1]]),
            Mat(F4, [[0, 2]])]))
        C = code_create(P, [gen])
        text = ("srcv1\nfield 2 2 mod=1,1,1\nprofile 1x1,2x3,1x2\ndim 1\n"
                "gen 1\n3\n\n1 2 0;0 0 1\n\n0 2\n")
        assert write_src_text(C) == text
        assert parse_src_text(text) == C
        Z = zero_code(P)
        assert write_src_text(Z) == \
            "srcv1\nfield 2 2 mod=1,1,1\nprofile 1x1,2x3,1x2\ndim 0\n"
        assert parse_src_text(write_src_text(Z)) == Z


def reference_parse_src_text(text):
    """The slow reference reader: every block line through `parse_mat`
    (one `Mat`, each entry checked on its own), its shape read off the
    matrix, and the flat rows filled entry by entry by `ambient._join`."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0

    def take(expect_prefix=None):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of file", line=pos + 1)
        line = lines[pos]
        pos += 1
        if expect_prefix is not None and not line.startswith(expect_prefix):
            raise ParseError(f"expected {expect_prefix!r}, got {line!r}",
                             line=pos)
        return line

    if take() != "srcv1":
        raise ParseError("bad magic, expected 'srcv1'", line=1)
    try:
        _, p, k, mod = take("field ").split(" ")
        if not mod.startswith("mod="):
            raise ValueError
        p, k = _decimal(p), _decimal(k)
        mod = [_decimal(c) for c in reversed(mod[4:].split(","))]
    except ValueError:
        raise ParseError("malformed field line", line=2)
    field = field_create(p, k, mod)
    try:
        raw_blocks = parse_profile(take("profile ").removeprefix("profile "))
        profile = profile_create(field, raw_blocks)
    except BadBlock as err:
        raise ParseError(str(err), line=3) from None
    try:
        _, dim = take("dim ").split(" ")
        dim = _decimal(dim)
    except ValueError:
        raise ParseError("malformed dim line", line=4)
    gens = []
    for i in range(1, dim + 1):
        header = take("gen ")
        if header != f"gen {i}":
            raise ParseError(f"expected 'gen {i}', got {header!r}", line=pos)
        blocks = []
        for j, (n, m) in enumerate(raw_blocks):
            if j > 0 and take() != "":
                raise ParseError("expected blank line between blocks",
                                 line=pos)
            mat_line = take()
            try:
                mat = parse_mat(field, mat_line)
            except ValueError:
                raise ParseError(f"malformed matrix {mat_line!r}", line=pos)
            if (mat.nrows, mat.ncols) != (n, m):
                raise ParseError(
                    f"block {j + 1} of gen {i} has shape "
                    f"{mat.nrows}x{mat.ncols}, profile says {n}x{m}", line=pos)
            blocks.append(sum(mat.rows, ()))
        gens.append(profile.from_user_order(blocks))
    if pos != len(lines):
        raise ParseError("trailing content after last generator", line=pos + 1)
    code = _from_rows(profile, _join(profile, gens))
    if code.k != dim:
        raise ParseError(
            f"generators span dimension {code.k}, header says {dim}")
    return code


def _block_lines(lines):
    """The indices of the block lines of a written .src text's lines."""
    return [i for i, line in enumerate(lines)
            if i >= 4 and line and not line.startswith("gen ")]


def _respell(line, rng):
    """A block line as the writer never writes it: runs of spaces or tabs
    between entries, around ';' and at both ends, and leading zeros."""
    def gap():
        return "".join(rng.choice(" \t") for _ in range(rng.randrange(1, 4)))

    def pad():
        return gap() if rng.random() < 0.3 else ""

    rows = [gap().join("0" * rng.randrange(3) + x for x in row.split(" "))
            for row in line.split(";")]
    return pad() + ";".join(pad() + row + pad() for row in rows) + pad()


def _corrupt(lines, q, rng):
    """`lines` with one fault: a bad digit, an entry >= q, a ragged row, a
    wrong shape (also with the right entry count) or a missing blank
    line."""
    lines = list(lines)
    at = rng.choice(_block_lines(lines))
    rows = [row.split(" ") for row in lines[at].split(";")]
    row = rng.choice(rows)
    kind = rng.choice(["digit", "range", "ragged", "shape", "reshape",
                       "blank"])
    if kind == "digit":
        row[rng.randrange(len(row))] = rng.choice(
            ["a", "+1", "-1", "1.0", "0x1", "1_0", "\u0661", "\uff11"])
    elif kind == "range":
        row[rng.randrange(len(row))] = str(q + rng.randrange(3))
    elif kind == "ragged":
        if len(row) > 1 and rng.random() < 0.5:
            row.pop()
        else:
            row.append("0")
    elif kind == "shape":
        if rng.random() < 0.5:
            rows.append(["0"] * len(rows[0]))
        else:
            for r in rows:
                r.append("0")
    elif kind == "reshape":
        # the same entries in rows of another length
        flat = [x for r in rows for x in r]
        half = len(flat) // 2
        if len(rows) > 1:
            rows = [flat]
        elif len(flat) == 1:
            rows = [flat, flat]
        else:
            rows = [flat[:half], flat[half:]] if len(flat) % 2 == 0 \
                else [[x] for x in flat]
    else:
        # the last line is the empty one after the final newline
        blanks = [i for i, line in enumerate(lines[:-1])
                  if i > 4 and line == ""]
        if blanks:
            del lines[rng.choice(blanks)]
        else:  # one block per generator: drop a block line instead
            del lines[at]
        return lines
    lines[at] = ";".join(" ".join(r) for r in rows)
    return lines


class TestReaderOracle:
    """The reader against the slow reference reader above."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(small_codes(ORDERS), st.integers(0, 2 ** 32))
    def test_respelled_texts_read_as_the_reference(self, C, seed):
        rng = random.Random(seed)
        lines = write_src_text(C).split("\n")
        for i in _block_lines(lines):
            lines[i] = _respell(lines[i], rng)
        text = "\n".join(lines)
        assert parse_src_text(text) == reference_parse_src_text(text) == C

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(small_codes(ORDERS), st.integers(0, 2 ** 32))
    def test_corrupted_texts_fail_as_the_reference(self, C, seed):
        rng = random.Random(seed)
        text = "\n".join(_corrupt(write_src_text(C).split("\n"),
                                   C.field.q, rng))
        with pytest.raises(ParseError) as got:
            parse_src_text(text)
        with pytest.raises(ParseError) as want:
            reference_parse_src_text(text)
        assert (str(got.value), got.value.line) == \
            (str(want.value), want.value.line)


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in GOLDEN.glob("*.txt")))
    def test_command_output_matches(self, name, monkeypatch):
        monkeypatch.chdir(ROOT)
        from scripts_commands import COMMANDS
        argv = dict(COMMANDS)[name]
        rc, out = run_cli(argv)
        assert f"exit {rc}\n{out}" == (GOLDEN / name).read_text()


class TestExitCodes:
    def test_usage_error(self):
        assert main(["bounds", "--q", "2"]) == 2

    def test_negative_verdict(self):
        rc, out = run_cli(["check", str(FIXTURES / "spherepack_d3.src")])
        assert rc == 1 and out.startswith("not MSRD")

    def test_guard_exceeded(self, monkeypatch):
        monkeypatch.setenv("SRKIT_MAX_ENUM", "4")
        path = FIXTURES / "msrd_d6_8blocks.src"
        assert main(["check", str(path)]) == 3

    def test_transform_guard_counts_block_contractions(self, monkeypatch,
                                                       capsys):
        # 8 words and a lattice of 2^8 pass; |L| * sum |L_i| = 256 * 16 trips
        monkeypatch.setenv("SRKIT_MAX_ENUM", "1000")
        path = FIXTURES / "msrd_d6_8blocks.src"
        assert main(["macwilliams", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded: lattice transform of size 4096")
        assert "Traceback" not in err

    def test_lattice_guard_exceeded(self, monkeypatch, tmp_path, capsys):
        # 2^12 words against 15 lattice units: the lattice route runs, and
        # the guard counts its units, not the words
        from srkit.constructions import gabidulin_mrd
        path = tmp_path / "gab_4x4_d2.src"
        path.write_text(write_src_text(gabidulin_mrd(F2, 4, 4, 2)))
        monkeypatch.setenv("SRKIT_MAX_ENUM", "14")
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard exceeded: lattice search of size 15")
        assert "Traceback" not in err
        monkeypatch.setenv("SRKIT_MAX_ENUM", "15")
        assert run_cli(["check", str(path)]) == (0, "MSRD, d=2, dim 12\n")

    @pytest.mark.parametrize("value", ["abc", "1e3", " ", "-5", "+5", "٣"])
    def test_malformed_env_guard_is_a_usage_error(self, value, monkeypatch,
                                                  capsys):
        monkeypatch.setenv("SRKIT_MAX_ENUM", value)
        assert main(["check", str(FIXTURES / "dual_not_msrd.src")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: SRKIT_MAX_ENUM must be a non-negative decimal "
                       f"integer, not {value!r}\n")

    def test_env_guard_override(self, monkeypatch):
        monkeypatch.setenv("SRKIT_MAX_ENUM", str(1 << 26))
        path = FIXTURES / "msrd_d6_8blocks.src"
        assert main(["check", str(path)]) == 0


    @pytest.mark.parametrize("argv", [
        pytest.param(["bounds", "--q", "2^a", "--profile", "2x2", "--d", "1"],
                     id="q-exponent-not-int"),
        pytest.param(["bounds", "--q", "4^2", "--profile", "2x2", "--d", "1"],
                     id="q-base-not-prime"),
        pytest.param(["omega", "--q", "6", "--m", "3", "--shape", "3,3,2",
                      "--d", "7"], id="omega-q-not-prime-power"),
        pytest.param(["omega", "--q", "3", "--m", "3", "--shape", "3,3,2",
                      "--d", "0"], id="omega-d-zero"),
        pytest.param(["omega", "--q", "3", "--m", "3", "--shape", "3,3,2",
                      "--d", "9"], id="omega-d-above-n"),
        pytest.param(["omega", "--q", "3", "--m", "3", "--shape", "3,3,2",
                      "--d", "9", "--dual"], id="omega-dual-d-above-n"),
        pytest.param(["asymptotics", "--q", "6", "--m", "4", "--n", "2",
                      "--bounds", "singleton"],
                     id="asymptotics-q-not-prime-power"),
        pytest.param(["bounds", "--q", "2", "--profile", "2xa", "--d", "1"],
                     id="profile-token-not-int"),
        pytest.param(["bounds", "--q", "2", "--profile", "3x3,2x2x0",
                      "--d", "2"], id="profile-repeat-zero"),
        pytest.param(["bounds", "--q", "2", "--profile", "2x2x-1", "--d", "1"],
                     id="profile-repeat-negative"),
        pytest.param(["check", "{tmp}/bad_profile.src"],
                     id="src-profile-token-not-int"),
        pytest.param(["check", "{tmp}/missing.src"], id="missing-file"),
        pytest.param(["sphere-volume", "--q", "2", "--profile", "2x2",
                      "--r", "-1"], id="negative-radius"),
        pytest.param(["omega", "--q", "3317044064679887385961981", "--m", "3",
                      "--shape", "3,3,2", "--d", "7"],
                     id="omega-q-beyond-exact-primality"),
        pytest.param(["omega", "--q", "2", "--m", "3", "--shape", "3,,2",
                      "--d", "2"], id="omega-shape-empty-entry"),
        pytest.param(["omega", "--q", "2", "--m", "3", "--shape", "3,x",
                      "--d", "2"], id="omega-shape-not-int"),
        pytest.param(["omega", "--q", "2", "--m", "0", "--shape", "1",
                      "--d", "1"], id="omega-shape-above-m"),
        pytest.param(["omega", "--q", "2", "--m", "3", "--shape", "0,-3",
                      "--d", "1"], id="omega-shape-not-positive"),
        pytest.param(["omega", "--q", "2", "--m", "3", "--shape", "3,0",
                      "--d", "2"], id="omega-shape-zero-entry"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--head", "a", "--bounds", "singleton"],
                     id="asymptotics-head-not-int"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--n-head", "1,b", "--bounds", "singleton"],
                     id="asymptotics-n-head-not-int"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "0:1", "--bounds", "singleton"],
                     id="asymptotics-grid-two-fields"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "a:b:c", "--bounds", "singleton"],
                     id="asymptotics-grid-not-numbers"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "0:inf:1", "--bounds", "singleton"],
                     id="asymptotics-grid-infinite"),
        pytest.param(["asymptotics", "--q", "2", "--m", "4", "--n", "2",
                      "--grid", "1:0:0.5", "--bounds", "singleton"],
                     id="asymptotics-grid-reversed"),
        pytest.param(["construct", "combine", "--q", "2", "--profile", "1x4",
                      "--t2", "3", "--m-hat", "0"], id="combine-m-hat-zero"),
    ])
    def test_bad_input_is_a_usage_error(self, argv, tmp_path, capsys):
        text = (FIXTURES / "msrd_d6_8blocks.src").read_text()
        (tmp_path / "bad_profile.src").write_text(
            text.replace("profile 1x2x5,1x1x3", "profile 1x2x5,1xax3"))
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name,flags", [
        ("gabidulin", "--n, --m, --d"),
        ("mds-lift", "--m, --t, --d"),
        ("d2", "--profile"),
        ("dn", "--profile"),
        ("dn-minus", "--profile"),
        ("msrd111", "--profile, --t2"),
        ("combine", "--profile, --t2, --m-hat"),
        ("msrd111-ext", "--m, --s"),
        ("simplex-lift", "--m, --n, --r"),
    ])
    def test_construct_names_missing_flags(self, name, flags, capsys):
        assert main(["construct", name, "--q", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: construct {name} needs {flags}\n")

    def test_construct_names_only_the_missing_flag(self, capsys):
        argv = ["construct", "gabidulin", "--q", "2", "--n", "2", "--m", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: construct gabidulin needs --d\n"

    # every number on the command line is ASCII decimal, as in .src files
    @pytest.mark.parametrize("argv", [
        pytest.param(["bounds", "--q", q, "--profile", "2x2", "--d", "1"],
                     id=f"bounds-q-{name}")
        for q, name in (("1_6", "underscore"), ("\u0664", "arabic-indic"),
                        (" 4", "space"), ("4 ", "trailing-space"),
                        ("+4", "plus"), ("2^0_2", "exponent-underscore"),
                        ("\uff12^2", "fullwidth-base"))
    ] + [
        pytest.param(["sphere-volume", "--q", "2", "--profile", "2x2",
                      "--r", r], id=f"sphere-volume-r-{name}")
        for r, name in (("1_0", "underscore"), ("+3", "plus"),
                        ("\u0663", "arabic-indic"), (" 1", "space"))
    ] + [
        pytest.param(["bounds", "--q", "2", "--profile", "2x2", "--d", "0_1"],
                     id="bounds-d-underscore"),
        pytest.param(["construct", "simplex-lift", "--q", "2", "--m", "2",
                      "--n", "2", "--r", "+3"], id="construct-r-plus"),
        pytest.param(["omega", "--q", "\u0663", "--m", "3", "--shape",
                      "3,3,2", "--d", "7"], id="omega-q-arabic-indic"),
        pytest.param(["omega", "--q", "3", "--m", "3", "--shape", "3,0_3,2",
                      "--d", "7"], id="omega-shape-underscore"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--head", "+2", "--bounds", "singleton"],
                     id="asymptotics-head-plus"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "0:1_0:1", "--bounds", "singleton"],
                     id="asymptotics-grid-underscore"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "0: 1:0.5", "--bounds", "singleton"],
                     id="asymptotics-grid-space"),
        pytest.param(["asymptotics", "--q", "2", "--m", "2", "--n", "1",
                      "--grid", "0:\u0661:0.5", "--bounds", "singleton"],
                     id="asymptotics-grid-arabic-indic"),
    ])
    def test_numbers_are_ascii_decimal(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") or ": error: " in line
                   for line in err.splitlines()), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, want", [
        (["sphere-volume", "--q", "02", "--profile", "2x2", "--r", "01"], "10"),
        (["sphere-volume", "--q", "2^02", "--profile", "2x2", "--r", "1"],
         "76"),
    ])
    def test_leading_zeros_are_decimal(self, argv, want):
        assert run_cli(argv) == (0, want + "\n")

    def test_huge_prime_q_is_checked_quickly(self):
        rc, out = run_cli(["omega", "--q", "1000000000000000003", "--m", "3",
                           "--shape", "3,3,2", "--d", "7"])
        assert rc == 0 and out.startswith("Inconclusive")

    def test_dual_walked_once(self, monkeypatch):
        # each command imports what it calls when it runs, so the count is
        # taken on the home module
        import srkit.distributions
        calls = []
        walk = srkit.distributions.brute_distributions

        def counting(code, *args, **kwargs):
            calls.append(code.k)
            return walk(code, *args, **kwargs)

        monkeypatch.setattr(srkit.distributions, "brute_distributions",
                            counting)
        rc, out = run_cli(["distributions", str(FIXTURES / "dualpair_a.src"),
                           "--dual", "--check-macwilliams"])
        assert rc == 0 and "macwilliams: support ok, rank-list ok" in out
        assert len(calls) == 2

    def test_absent_distance_prints_a_dash(self, tmp_path):
        # a row shortening of the dimension-2 lift is the zero code, which
        # has no distance: every command prints it as `check` does
        lift, zero = tmp_path / "lift.src", tmp_path / "zero.src"
        assert run_cli(["construct", "mds-lift", "--q", "2", "--m", "2",
                        "--t", "2", "--d", "2", "--out", str(lift)])[0] == 0
        assert run_cli(["shorten", str(lift), "--row", "2", "--out",
                        str(zero)]) == (
            0, "shortened to 1x2: MSRD=True, d=-, dim 0\n")
        assert run_cli(["check", str(zero)]) == (0, "MSRD, d=-, dim 0\n")


class TestDeterminism:
    def test_repeat_runs_identical(self):
        argv = ["bounds", "--q", "2", "--profile", "2x2,1x2x7,1x1x5",
                "--all-d", "--format", "csv"]
        assert run_cli(argv) == run_cli(argv)

    def test_profile_spacing_around_commas(self):
        argv = ["bounds", "--q", "2", "--profile", "2x2,1x2x7,1x1x5",
                "--d", "8"]
        spaced = argv[:4] + [" 2x2 , 1x2x7,\t1x1x5"] + argv[5:]
        assert run_cli(spaced) == run_cli(argv)
        assert run_cli(spaced)[0] == 0

    def test_json_schema_tag(self):
        import json
        rc, out = run_cli(["bounds", "--q", "2", "--profile", "2x2",
                           "--d", "1", "--format", "json"])
        doc = json.loads(out)
        assert rc == 0 and doc["schema"] == "srkit.v1"
        assert doc["entries"][0]["value"] == 16
