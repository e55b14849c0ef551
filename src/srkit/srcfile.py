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

Each block is written straight from the code's flat rows, and read straight
into them, through `ambient._cells` in user block order.  Each block line's
entries are checked once, by `Mat` (through `parse_mat`), then its shape.
"""

from __future__ import annotations

from .ambient import _cells, format_profile, parse_profile, profile_create
from .code import LinearCode
from .errors import ParseError
from .field import field_create
from .matq import _rref_rows, parse_mat

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
    parts = take("field ").split()
    try:
        p, k = int(parts[1]), int(parts[2])
        mod_txt = parts[3]
        if not mod_txt.startswith("mod="):
            raise ValueError
        mod = [int(c) for c in mod_txt[4:].split(",")]
        mod.reverse()  # file stores c_k..c_0
    except (IndexError, ValueError):
        raise ParseError("malformed field line", line=2)
    field = field_create(p, k, mod)
    raw_blocks = parse_profile(take("profile ").removeprefix("profile "))
    profile = profile_create(field, raw_blocks)
    try:
        dim = int(take("dim ").split()[1])
    except (IndexError, ValueError):
        raise ParseError("malformed dim line", line=4)
    cells = profile.to_user_order(_cells(profile))
    rows = []
    for i in range(1, dim + 1):
        header = take("gen ")
        if header != f"gen {i}":
            raise ParseError(f"expected 'gen {i}', got {header!r}", line=pos)
        row = [0] * profile.dim
        for j, ((n, m), cell) in enumerate(zip(raw_blocks, cells)):
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
            for r, values in zip(cell, mat.rows):
                for c, x in zip(r, values):
                    row[c] = x
        rows.append(row)
    if pos != len(lines):
        raise ParseError("trailing content after last generator", line=pos + 1)
    code = LinearCode(profile, _rref_rows(rows, field)[0])
    if code.k != dim:
        raise ParseError(f"generators span dimension {code.k}, header says {dim}")
    return code


def parse_src(path) -> LinearCode:
    with open(path) as fh:
        return parse_src_text(fh.read())
