"""Every definition in src/semipolar is used there, or has a stated reason to stay.

A function, class or method whose name no code in src/semipolar refers to
serves only callers outside the library.  Such a name is allowed only with
one of the reasons below, and each reason is checked against the code that
gives it: the perfbench tracer, the perfbench child, or the tests.  A new
wrapper that only tests call fails `test_unused_definitions_are_the_allowed_ones`;
a wrapped name that perfbench stops wrapping fails
`test_each_allowed_name_keeps_its_reason`.  The block size of the batched
sweeps, `linalg.CHUNK`, is named in `linalg` alone.

The scan is by name.  A function or class is used when src/semipolar refers
to its name as a name, an attribute or an imported name; a method only when
src/semipolar refers to it as an attribute, so a local variable of the same
name does not keep it.  A method still shares its references with every other
attribute of the same name.  Dunder methods are left out, since Python calls
them itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semipolar"

WRAPPED = "wrapped by perfbench/spans.py"
CHILD = "called by perfbench/child.py"
REFERENCE = "a reference that tests compare the engine against"
CENSUS = "the scalar case of the GL(n) x GL(nu) equivalence that the census of semiforms generalises"

ALLOWED = {
    "apsg.SemipolarSpace.singular_lines": WRAPPED,
    "apsg.SemipolarSpace.maximal_singular_subspaces": WRAPPED,
    "apsg.SemipolarSpace.is_affine_point_set": WRAPPED,
    "apsg.SemipolarSpace.neighborhood_intersection": WRAPPED,
    "apsg.SemipolarSpace.line_singular_by_pairs": REFERENCE,
    "apsg.Point.neg": WRAPPED,
    "forms.scaled_conjugate": CENSUS,
    "hyperbolic.HypPolarSpace.maximal_singulars": WRAPPED,
    "linalg.enumerate_subspaces": WRAPPED,
    "metric.bisector_t": WRAPPED,
    "metric.bisector_m": WRAPPED,
    "metric.pair_report": CHILD,
}


def referenced_names(paths, strings: bool = False, attributes_only: bool = False) -> set[str]:
    """The names, attributes and imported names the files refer to, and with
    `strings` the identifier-like string constants (attribute names that
    perfbench patches by string); with `attributes_only` the attributes alone."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def definitions() -> dict[str, str]:
    """module.name and module.Class.method of every top-level function, class
    and method in src/semipolar, against its short name; dunders left out."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def test_unused_definitions_are_the_allowed_ones():
    used = referenced_names(SRC.glob("*.py"))
    attributes = referenced_names(SRC.glob("*.py"), attributes_only=True)
    unused = {
        qual
        for qual, name in definitions().items()
        if name not in (attributes if qual.count(".") == 2 else used)
    }
    assert unused == set(ALLOWED)


def test_each_allowed_name_keeps_its_reason():
    givers = {
        WRAPPED: referenced_names([ROOT / "perfbench" / "spans.py"], strings=True),
        CHILD: referenced_names([ROOT / "perfbench" / "child.py"]),
        REFERENCE: referenced_names(p for p in (ROOT / "tests").glob("test_*.py") if p.name != "test_surface.py"),
    }
    for qual, reason in ALLOWED.items():
        if reason in givers:
            assert qual.rsplit(".", 1)[1] in givers[reason], (qual, reason)


def test_no_module_but_linalg_refers_to_chunk():
    # every blocked sweep takes its blocks from linalg.blocks, so the block
    # size is set, documented and patched in linalg alone
    assert [p.name for p in sorted(SRC.glob("*.py")) if "CHUNK" in p.read_text(encoding="utf-8")] == ["linalg.py"]


def test_no_source_line_is_longer_than_120_characters():
    # a long line packs what would read better wrapped, and hides a line count
    long = [
        f"{path.name}:{k}"
        for path in sorted(SRC.glob("*.py"))
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 120
    ]
    assert long == []
