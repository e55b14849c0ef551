"""The .src on-disk code format.

Canonical layout (all element codes decimal, blocks in the user's original
block order):

    srcv1
    field <p> <k> mod=<c_k,...,c_0>
    profile <n1xm1,...>
    dim <k>
    gen 1
    <block 1 matrix, rows ';'-separated>
    <blank>
    <block 2 matrix>
    gen 2
    ...

Blocks inside a stanza are separated by exactly one blank line; writing then
parsing a canonical file is the identity byte for byte.

Each block is written straight from the code's flat rows through
`ambient._cells`, in user block order.  Each block line is read straight
into ints with no per-entry call.  One test checks that the line holds only
ASCII digits, spaces, tabs and ';': any other character, other whitespace
such as U+00A0, U+0085 or U+000B included, makes it a malformed matrix.
The line is split on ';' into rows and on spaces and tabs into entries,
their largest value is checked against q, then the shape its row lengths
give.  The flat layout is block-major and row-major, so a generator's flat
row is its block lines' entries joined in the profile's block order.  Every
number is ASCII decimal (`guard._decimal` for the header lines), and the
field and dim lines hold exactly their tokens.
"""

from __future__ import annotations

from .ambient import _cells, format_profile, parse_profile, profile_create
from .code import LinearCode, _from_rows
from .errors import BadBlock, ParseError
from .field import field_create
from .guard import _decimal

MAGIC = "srcv1"
# what a block line may hold: ASCII digits, entries separated by spaces and
# tabs, rows by ';'
_BLOCK_CHARS = frozenset("0123456789 \t;")


def write_src_text(code: LinearCode) -> str:
    profile = code.profile
    field = code.field
    mod = ",".join(str(c) for c in reversed(field.modulus))
    lines = [MAGIC,
             f"field {field.p} {field.k} mod={mod}",
             f"profile {format_profile(profile.original_blocks)}",
             f"dim {code.k}"]
    cells = profile.to_user_order(_cells(profile))
    for i, vec in enumerate(code._flat, start=1):
        blocks = (";".join(" ".join(str(vec[c]) for c in r) for r in cell)
                  for cell in cells)
        lines += [f"gen {i}", "\n\n".join(blocks)]
    return "\n".join(lines) + "\n"


def write_src(code: LinearCode, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_src_text(code))


def _line(lines, pos, prefix=""):
    """Line pos + 1 of `lines`, which must start with `prefix`; the None
    past the last line is the end of the file."""
    line = lines[pos]
    if line is None:
        raise ParseError("unexpected end of file", line=pos + 1)
    if not line.startswith(prefix):
        raise ParseError(f"expected {prefix!r}, got {line!r}", line=pos + 1)
    return line


def parse_src_text(text: str) -> LinearCode:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    end = len(lines)
    lines.append(None)  # read past the last line, `_line` ends the file
    if _line(lines, 0) != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", line=1)
    try:
        # exactly four tokens, else the unpacking raises ValueError
        _, p, k, mod = _line(lines, 1, "field ").split(" ")
        if not mod.startswith("mod="):
            raise ValueError
        p, k = _decimal(p), _decimal(k)
        # the file stores c_k..c_0
        mod = [_decimal(c) for c in reversed(mod[4:].split(","))]
    except ValueError:
        raise ParseError("malformed field line", line=2)
    field = field_create(p, k, mod)
    try:
        raw_blocks = parse_profile(
            _line(lines, 2, "profile ").removeprefix("profile "))
        profile = profile_create(field, raw_blocks)
    except BadBlock as err:
        raise ParseError(str(err), line=3) from None
    try:
        _, dim = _line(lines, 3, "dim ").split(" ")
        dim = _decimal(dim)
    except ValueError:
        raise ParseError("malformed dim line", line=4)
    q, order = field.q, profile.permutation
    gens = []
    pos = 4  # 0-based: the line read next
    for i in range(1, dim + 1):
        header = _line(lines, pos, "gen ")
        if header != f"gen {i}":
            raise ParseError(f"expected 'gen {i}', got {header!r}",
                             line=pos + 1)
        blocks = []
        for j, (n, m) in enumerate(raw_blocks):
            pos += 1
            if j > 0:
                if lines[pos] != "":
                    _line(lines, pos)  # raises if the file ended
                    raise ParseError("expected blank line between blocks",
                                     line=pos + 1)
                pos += 1
            line = lines[pos]
            if line is None:
                _line(lines, pos)  # raises: the file ended
            # one test that the line holds only digits, spaces, tabs and
            # ';', so every entry split out of it is ASCII decimal; then one
            # check of the entries' largest value
            try:
                if not _BLOCK_CHARS.issuperset(line):
                    raise ValueError("a character is not a digit or separator")
                rows = line.split(";")
                flat = rows[0].split()
                cols = len(flat)
                for row in rows[1:]:
                    row = row.split()
                    if len(row) != cols:
                        raise ValueError("ragged rows")
                    flat += row
                if flat:
                    flat = list(map(int, flat))
                    if max(flat) >= q:
                        raise ValueError(f"an entry is outside GF({q})")
            except ValueError:
                raise ParseError(f"malformed matrix {line!r}",
                                 line=pos + 1) from None
            if (len(rows), cols) != (n, m):
                raise ParseError(
                    f"block {j + 1} of gen {i} has shape "
                    f"{len(rows)}x{cols}, profile says {n}x{m}", line=pos + 1)
            blocks.append(flat)
        # the flat layout is block-major and row-major, so a generator's
        # row is its blocks' entries in the profile's block order
        row = []
        for j in order:
            row += blocks[j]
        gens.append(row)
        pos += 1
    if pos != end:
        raise ParseError("trailing content after last generator", line=pos + 1)
    code = _from_rows(profile, gens)
    if code.k != dim:
        raise ParseError(f"generators span dimension {code.k}, header says {dim}")
    return code


def parse_src(path) -> LinearCode:
    with open(path) as fh:
        return parse_src_text(fh.read())
