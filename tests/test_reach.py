"""Every public top-level name of the package is reached by something other
than its own definition and its unit tests: the package itself, the
benchmark, or the acceptance scoreboard; the allowlist of exceptions holds
only names that are defined and still unreached. Every name the benchmark's
span tracer rebinds resolves to a callable in the package."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gtvclass").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# public but not yet reached; each entry names the ROADMAP item that wires it in
ALLOWED = {
    "transport_bracket",   # ROADMAP item 5: eps / d_inf in the sweep sidecar
}


def _references(node):
    # identifiers used as names or attributes, imported names, and dotted
    # strings such as the ones bench/spans.py rebinds by name
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                yield from parts


def test_every_public_name_is_reached():
    defined = {}
    used = set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if path in PACKAGE and is_def and not node.name.startswith("_"):
                defined[node.name] = path.stem
                # a definition's own body does not count as a use of its name
                used.update(r for r in _references(node) if r != node.name)
            else:
                used.update(_references(node))
    unreached = sorted("%s.%s" % (defined[name], name)
                       for name in set(defined) - used - ALLOWED)
    assert not unreached, unreached
    # an allowed name that is now reached, or no longer defined, leaves the list
    stale = sorted(ALLOWED - (set(defined) - used))
    assert not stale, stale


def test_bench_span_targets_resolve():
    # bench/spans.py rebinds its TARGETS by name; a rename in the package
    # must fail here rather than when the benchmark traces a run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, path in spans.TARGETS:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), (name, module, path)


def test_no_private_field_read_across_objects():
    # x._name is read only where x is self or cls, so a class keeps its
    # layout (a model's cells, a classifier's tree) to itself
    reads = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if not (dunder or own):
                reads.append("%s:%d %s" % (path.name, node.lineno, ast.unparse(node)))
    assert not reads, reads
