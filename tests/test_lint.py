"""Source checks: the library raises explicit errors instead of asserting,
because ``python -O`` strips assert statements, and imports only names it
uses."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srkit"


def test_library_has_no_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_library_has_no_unused_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree) if name not in used]
    assert found == []


def _names(node):
    """The names a node loads, reads as an attribute or imports."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_library_has_no_dead_private_helper():
    # every _private function, class or method is used somewhere in the
    # package outside its own definition
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = [(name, node) for tree in trees.values() for node in ast.walk(tree)
            for name in _names(node)]
    private = [(name, node) for name, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    found = []
    for name, node in private:
        inside = {id(n) for n in ast.walk(node)}
        if not any(used == node.name and id(n) not in inside for used, n in uses):
            found.append(f"{name}:{node.lineno} {node.name}")
    assert len(private) > 40 and found == []


def test_only_matq_eliminates():
    # pivot normalisation gives an elimination away: only the field itself
    # and matq's one row reducer invert field elements
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("matq.py", "field.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "inv"]
    assert found == []


def _field_order(node):
    """Whether a node reads a field's order or characteristic: `.q`, `.p`,
    or a local `q` or `p`."""
    return (isinstance(node, ast.Attribute) and node.attr in ("q", "p")
            or isinstance(node, ast.Name) and node.id in ("q", "p"))


def test_only_matq_and_field_special_case_gf2():
    # the row representation is chosen in one place, `matq._row_ops`: no
    # other module compares q or p with 2, so no second GF(2) path grows
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("matq.py", "field.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(map(_field_order, sides))
                        and any(isinstance(s, ast.Constant) and s.value == 2
                                for s in sides)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_matq_names_a_row_representation():
    # callers take rows from `matq._row_ops`; the representations and
    # their inserts and canonical forms are named inside matq only
    hidden = {"_field_rows", "_BITS", "_extend", "_extend_bits", "_reduced",
              "_reduced_bits"}
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "matq.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in _names(node) if name in hidden]
    assert found == []


def test_only_ambient_reads_the_flat_layout():
    # `ambient._cells` is the one map from blocks to flat positions: no
    # other module reads a profile's block offsets and spells it out again
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "ambient.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "slices"]
    assert found == []


def test_only_ambient_and_code_build_tuples():
    # constructions, the reader and every derived code build flat rows and
    # reduce them once: only ambient and code build matrix tuples or span
    # them into a code
    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("ambient.py", "code.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             for name in _names(node.func)
             if name in ("MatrixTuple", "code_create")]
    assert found == []


def test_reader_builds_no_matrix():
    # the .src reader reads each block line straight into flat rows: no
    # per-entry `Mat` and no `parse_mat` in it
    path = SRC / "srcfile.py"
    found = [f"{path.name}:{node.lineno} {name}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in _names(node) if name in ("Mat", "parse_mat")]
    assert found == []
