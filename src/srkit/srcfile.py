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
`ambient._cells`, and read straight into them through `ambient._join`, in
user block order.  Every number is ASCII decimal (`guard._decimal`), and the
field and dim lines hold exactly their tokens.  Each block line's entries
are checked once, by `Mat` (through `parse_mat`), then its shape.
"""

from __future__ import annotations

from .ambient import (
    _cells,
    _join,
    format_profile,
    parse_profile,
    profile_create,
)
from .code import LinearCode, _from_rows
from .errors import BadBlock, ParseError
from .field import field_create
from .guard import _decimal
from .matq import parse_mat

MAGIC = "srcv1"


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


def parse_src_text(text: str) -> LinearCode:
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
            raise ParseError(f"expected {expect_prefix!r}, got {line!r}", line=pos)
        return line

    if take() != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", line=1)
    try:
        # exactly four tokens, else the unpacking raises ValueError
        _, p, k, mod = take("field ").split(" ")
        if not mod.startswith("mod="):
            raise ValueError
        p, k = _decimal(p), _decimal(k)
        # the file stores c_k..c_0
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
            if j > 0:
                blank = take()
                if blank != "":
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
        raise ParseError(f"generators span dimension {code.k}, header says {dim}")
    return code


def parse_src(path) -> LinearCode:
    with open(path) as fh:
        return parse_src_text(fh.read())
