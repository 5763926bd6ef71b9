"""Source layout rules that keep one decision in one module."""

import ast
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import genret
import genret.backends
from genret.backends import (
    CachedScoreBackend,
    Capabilities,
    OracleBackend,
    RemoteBackend,
    ScorerBackend,
    SentenceScoreSource,
    UniformBackend,
)

PACKAGE = Path(genret.__file__).parent


def test_only_core_opens_files():
    # the on-disk format (atomic writes, JSON layout, decode errors) lives in
    # core.py; every other module reads and writes through its helpers
    callers = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                callers.add(path.relative_to(PACKAGE).as_posix())
    assert callers == {"core.py"}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def test_only_the_remote_client_and_loopback_server_name_wire_paths():
    # the wire protocol is defined where it is spoken: a "/v1/..." literal
    # anywhere else would be a second copy of it (docstrings may cite paths)
    speakers = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = set(map(id, _docstrings(tree)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "/v1/" in node.value
                and id(node) not in docs
            ):
                speakers.add(path.relative_to(PACKAGE).as_posix())
    assert speakers <= {"backends/remote.py", "backends/loopback.py"}
    assert speakers  # the rule still sees the literals it guards


def test_one_generative_primitive():
    # every backend answers batches of prefixes through one method; a
    # per-prefix form or a flag restating which methods exist is a second copy
    assert ScorerBackend.__abstractmethods__ == {"next_token_distributions"}
    definers = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "next_token_distribution"
                for f in node.body
            ):
                definers.add(f"{path.relative_to(PACKAGE).as_posix()}:{node.name}")
    assert not definers
    assert {f.name for f in fields(Capabilities)} == {"has_terminal_token"}
    # the engine scores sentences through score_sentences alone; serving
    # whole distributions is a backend matter (the base class's adapter)
    assert "next_token_distributions" not in (PACKAGE / "scoring.py").read_text(encoding="utf-8")


def test_the_engine_never_converts_a_backend_answer():
    # scoring.py checks the arrays a backend returns and rejects any other
    # form; np.asarray or np.array there would turn bools, numeric strings
    # or lists into floats that score
    calls = {
        f"{node.func.value.id}.{node.func.attr}:{node.lineno}"
        for node in ast.walk(ast.parse((PACKAGE / "scoring.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in ("asarray", "array")
    }
    assert not calls


def test_the_loopback_keeps_no_answer_rule_of_its_own():
    # the server checks its backend's answers with base.py's functions, as
    # the engine does; core's wire rule named there, or an np.asarray that
    # turns bools, strings or lists into floats, would be a second rule
    tree = ast.parse((PACKAGE / "backends" / "loopback.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"non_numbers", "asarray"}
    assert {"check_served", "array_pair", "stacked_rows"} <= names


def _is_dataclass(node):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_one_annotated_box_type():
    # a box's object name and attributes are one record, dataset.BoxAnnotation;
    # a second dataclass holding both would need converters to and from it
    holders = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names = {
                    f.target.id for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                }
                if {"obj", "attributes"} <= names:
                    holders.add(f"{path.relative_to(PACKAGE).as_posix()}:{node.name}")
    assert holders == {"dataset.py:BoxAnnotation"}


# The backend contract, method by method.  A public method added to a
# backend (a scene listing, another per-item path) fails the pin below until
# it is listed here on purpose.
SCORER_METHODS = {
    "next_token_distributions", "score_sentences", "embed_image", "embed_text", "embed_batch",
}
SOURCE_METHODS = {"sentence_score", "instance_scores"}
BACKEND_METHODS = {
    ScorerBackend: SCORER_METHODS,
    OracleBackend: SCORER_METHODS,
    UniformBackend: SCORER_METHODS,
    RemoteBackend: SCORER_METHODS,
    SentenceScoreSource: SOURCE_METHODS,
    CachedScoreBackend: SOURCE_METHODS | {"combos", "from_file"},
}


def _package_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("genret."):
            yield sub
        yield from _package_subclasses(sub)


def test_backends_have_exactly_the_listed_public_methods():
    backends = {ScorerBackend, SentenceScoreSource}
    for abc in (ScorerBackend, SentenceScoreSource):
        backends.update(_package_subclasses(abc))
    assert backends == set(BACKEND_METHODS)
    for cls, methods in BACKEND_METHODS.items():
        public = {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}
        assert public == methods, cls.__name__


def test_all_lists_every_public_name():
    # `from genret import *` binds what the package exports; a public name
    # left out of __all__ is silently missing there (a module, like errors,
    # may be listed or not)
    for package in (genret, genret.backends):
        names = vars(package)
        public = {
            n for n, v in names.items()
            if not n.startswith("_") and not isinstance(v, types.ModuleType)
        }
        assert set(package.__all__) <= set(names), package.__name__
        listed = {n for n in package.__all__ if not isinstance(names[n], types.ModuleType)}
        assert listed == public, package.__name__


def test_no_module_imports_another_modules_private_names():
    # a private name shared across modules is an undeclared API; make it
    # public where it is defined, or keep its use in its own module
    offenders = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("genret"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    offenders.add(f"{path.relative_to(PACKAGE).as_posix()}: {alias.name}")
    assert not offenders


# Where words enter the program, by module and enclosing function: the
# instance and world constructors, and the one scene record parser, which
# reads scene_graph.json and scenes.jsonl alike.  Downstream code, render
# included, takes words as they were folded here.
INGESTION_POINTS = {
    "core.py": {"RankingInstance.__post_init__"},
    "dataset.py": {"image_record"},
    "world.py": {"WorldSpec.__post_init__"},
}


def _uses_of(name, tree):
    """(enclosing qualified function name, node) for each use of `name`."""
    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, "")


_NUMBER_TYPES = {"bool", "int", "float"}


def _number_type_spellings(tree):
    """Line numbers where a value is judged by its number type:
    isinstance(_, bool), type(_) compared with int, float or bool,
    map(type, ...), or the numbers module."""
    def is_name(node, names):
        return isinstance(node, ast.Name) and node.id in names

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_name(node.func, {"isinstance"}) and node.args[1:]:
            classes = node.args[1]
            if any(is_name(c, {"bool"}) for c in getattr(classes, "elts", [classes])):
                yield node.lineno
        elif isinstance(node, ast.Call) and is_name(node.func, {"map"}) and node.args:
            if is_name(node.args[0], {"type"}):
                yield node.lineno
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Call) and is_name(o.func, {"type"}) for o in operands
            ) and any(is_name(o, _NUMBER_TYPES) for o in operands):
                yield node.lineno
        elif is_name(node, {"numbers"}) or (
            isinstance(node, ast.ImportFrom) and node.module == "numbers"
        ) or (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)):
            yield node.lineno


def test_only_core_spells_a_numbers_type():
    # which number may enter the program (from a parameter, a file or the
    # wire) is decided by core's rules alone; a private copy of a rule can
    # drift from it unseen
    found = set()
    for path in PACKAGE.rglob("*.py"):
        for line in _number_type_spellings(ast.parse(path.read_text(encoding="utf-8"))):
            found.add(f"{path.relative_to(PACKAGE).as_posix()}:{line}")
    assert {f for f in found if not f.startswith("core.py:")} == set()
    assert any(f.startswith("core.py:") for f in found)  # the rule still sees what it guards


def test_words_are_folded_only_where_they_enter():
    found: dict[str, set[str]] = {}
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in _uses_of("normalize_word", tree):
            found.setdefault(path.relative_to(PACKAGE).as_posix(), set()).add(scope)
    assert found == INGESTION_POINTS


def test_importing_the_cli_leaves_requests_unimported():
    # every command imports genret.cli; only a RemoteBackend needs requests,
    # so building one is what imports it (checked in a fresh interpreter)
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    probe = (
        "import sys, genret.cli; before = 'requests' in sys.modules; "
        "genret.cli.RemoteBackend('http://127.0.0.1:9'); "
        "print(before, 'requests' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def _unused_imports(tree):
    """Names a module imports and never uses (a name used only in an
    annotation counts as used: annotations are parsed, if not evaluated)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name for name in imported if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    # what a deletion leaves behind; a package __init__ re-exports, so it
    # imports names it does not use itself
    checked, offenders = 0, set()
    for path in PACKAGE.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        checked += 1
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.add(f"{path.relative_to(PACKAGE).as_posix()}: {name}")
    assert checked >= 15  # the rule still sees the modules it guards
    assert not offenders


def _unused_private_names(tree):
    """Underscore-prefixed functions, classes and assignments at module
    level that the module never loads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return private - loaded


def test_no_module_keeps_a_private_name_it_never_uses():
    # what a deletion leaves behind, as with unused imports
    checked, offenders = 0, set()
    for path in PACKAGE.rglob("*.py"):
        checked += 1
        for name in _unused_private_names(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.add(f"{path.relative_to(PACKAGE).as_posix()}: {name}")
    assert checked >= 15
    assert not offenders
