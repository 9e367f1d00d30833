"""Source layout guards."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liesphere"


def test_src_names_no_linalg():
    # the 2x2 matrices go through the closed-form kernels in jets, one routine
    # each, never a per-point LAPACK call
    offenders = [
        f"{p.name}:{n}"
        for p in sorted(SRC.glob("*.py"))
        for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
        if "linalg" in line
    ]
    assert offenders == []


def test_src_imports_no_warnings():
    # the engine reports through return values and typed errors, and the CLI
    # prints what a user should see; a warning carries its source line to stderr
    offenders = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "warnings"
    ]
    assert offenders == []


def test_every_src_definition_is_used_in_src():
    # a top-level def or class that no code in src/ names is reached only by
    # tests: it belongs in the product's call graph or in tests/reference.py
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}:{node.name}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []


def _is_dataclass(node) -> bool:
    # @dataclass or @dataclass(...)
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)


def test_every_src_dataclass_field_is_read_in_src():
    # a dataclass field that no code in src/ reads is kept only for tests.
    # Matched by name, as definitions are above: a field slips through when
    # any attribute of that name is read anywhere in src/ (a DualResult.v went
    # unflagged because Domain.v is read), or when its one reader writes it
    # somewhere that every caller overwrites (GridRun.tau_src, copied into a
    # report key that both commands set again from the scene)
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}:{cls.name}.{field.target.id}"
        for name, tree in sorted(trees.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert unread == []


_SLOTS = {"grad", "hess", "third"}


def _is_slot(node, aliases) -> bool:
    """``node`` reads a jet slot: a ``.grad``/``.hess``/``.third`` attribute or a
    name bound to one in the same function."""
    if isinstance(node, ast.Attribute):
        return node.attr in _SLOTS
    return isinstance(node, ast.Name) and node.id in aliases


def _leading_ellipsis(index) -> bool:
    # x[..., None] appends a value axis and reads the same in either layout
    if not (isinstance(index, ast.Tuple) and index.elts):
        return False
    first, rest = index.elts[0], index.elts[1:]
    is_none = [isinstance(e, ast.Constant) and e.value is None for e in rest]
    return isinstance(first, ast.Constant) and first.value is Ellipsis and not all(is_none)


def _point_major_lines(tree) -> list[int]:
    """Lines that index a jet slot behind a leading ``...`` or swap a slot's axes."""
    lines = set()
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for scope in [tree, *functions]:
        aliases = set()
        if scope is not tree:
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and _is_slot(node.value, ()):
                    aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if isinstance(node, ast.Subscript):
                if _is_slot(node.value, aliases) and _leading_ellipsis(node.slice):
                    lines.add(node.lineno)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                operands = [*node.args, node.func.value]
                if node.func.attr == "swapaxes" and any(_is_slot(a, aliases) for a in operands):
                    lines.add(node.lineno)
    return sorted(lines)


def test_jet_slots_are_read_derivative_major():
    # slots carry the derivative axis first; x.grad[..., i] or
    # np.swapaxes(x.grad, -1, -2) are the point-major idiom and read wrong axes
    offenders = [
        f"{p.name}:{line}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "jets.py"
        for line in _point_major_lines(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def _inside(tree, name, functions) -> set:
    """ids of the nodes inside the named top-level functions of ribaucour.py."""
    return {
        id(n)
        for f in tree.body
        if name == "ribaucour.py" and isinstance(f, ast.FunctionDef) and f.name in functions
        for n in ast.walk(f)
    }


def _reads(tree, ident, allowed) -> list[int]:
    """Lines that read the name or attribute ``ident`` outside the ``allowed`` nodes."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            (isinstance(node, ast.Name) and node.id == ident)
            or (isinstance(node, ast.Attribute) and node.attr == ident)
        )
        and isinstance(node.ctx, ast.Load)
        and id(node) not in allowed
    ]


def _block_names(tree, name) -> list[int]:
    """Lines where a module-level name other than ribaucour.BLOCK contains
    ``BLOCK``, or where ``BLOCK`` is read outside ribaucour.eval_blocks."""
    lines = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and "BLOCK" in target.id:
                if (name, target.id) != ("ribaucour.py", "BLOCK"):
                    lines.append(node.lineno)
    lines += _reads(tree, "BLOCK", _inside(tree, name, {"eval_blocks"}))
    return sorted(lines)


def test_one_evaluator_walks_every_grid():
    # grids are walked in blocks by ribaucour.eval_blocks alone: no other block
    # size, and no other code that reads BLOCK
    offenders = [
        f"{p.name}:{line}"
        for p in sorted(SRC.glob("*.py"))
        for line in _block_names(ast.parse(p.read_text(encoding="utf-8")), p.name)
    ]
    assert offenders == []


def test_one_rule_merges_block_peaks():
    # the blocks' peaks and frame certificates are merged by ribaucour.merge_peaks,
    # named only in ribaucour.eval_blocks (and in merge_peaks, for nested peaks):
    # no caller of eval_blocks merges block results itself
    allowed = {"eval_blocks", "merge_peaks"}
    offenders = [
        f"{p.name}:{line}"
        for p in sorted(SRC.glob("*.py"))
        for tree in [ast.parse(p.read_text(encoding="utf-8"))]
        for line in _reads(tree, "merge_peaks", _inside(tree, p.name, allowed))
    ]
    assert offenders == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(tree) -> list[int]:
    """Lines that read an underscore name of another package module: an
    attribute of a module bound by ``from . import x``, or a name imported
    by ``from .x import _y``."""
    relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1]
    modules = {a.asname or a.name for n in relative if n.module is None for a in n.names}
    lines = [n.lineno for n in relative if any(_private(a.name) for a in n.names)]
    lines += [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and _private(node.attr)
    ]
    return sorted(lines)


def test_no_src_module_reads_another_modules_private_name():
    # an underscore name is private to its module: a name that other modules
    # call is public, and lives in the module it belongs to
    offenders = [
        f"{p.name}:{line}"
        for p in sorted(SRC.glob("*.py"))
        for line in _foreign_private_reads(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_every_traced_name_exists():
    # the benchmark tracer wraps (module, attribute) pairs by name; a renamed
    # function would leave its per-layer metric silently at zero
    tracer = SRC.parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    spans = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    missing = [
        f"{module}.{name}"
        for module, name in spans
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans and missing == []
