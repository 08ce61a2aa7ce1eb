"""Public API surface: every public module-level function and class has a
caller in the package itself or in the benchmark harness, every public
method and property of a public class has a user there, and every private
module-level function, class and constant has a user in the package.

A public name that only tests call is dead weight: it has to be kept
working and documented, yet nothing the tool does depends on it.  The
allowlist names the exceptions and why each one stays.
"""

import ast
import importlib
from collections import Counter
from functools import lru_cache
from pathlib import Path

import archsmith

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "archsmith"

ALLOWED = {
    "enumerate_joint": "imported by the acceptance suite (criterion 1)",
    "save_landscape": "writes the file that `search --landscape` reads",
}


def _harness_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _references(tree, module_names) -> list[set[str]]:
    """Per top-level statement of ``tree``, the names it uses: bare names,
    imported names, and attributes of an imported package module
    (``experiments.run_likelihood``)."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name in module_names}
    out = []
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                found.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add(node.attr)
        out.append(found)
    return out


def _defined(statement, private: bool) -> list[str]:
    """The names a top-level statement defines: public functions and
    classes, or private functions, classes and constants (no dunders)."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif private and isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        return []
    return [name for name in names
            if name.startswith("_") == private and not name.startswith("__")]


@lru_cache(maxsize=None)
def _unreferenced(private: bool = False) -> tuple[str, ...]:
    """Top-level definitions that no other statement of the package refers
    to.  A public one also counts as used when ``perfbench/`` refers to
    it; a private one must be used inside the package."""
    modules = _modules()
    refs = {name: _references(tree, set(modules))
            for name, tree in modules.items()}
    harness = set()
    if not private:
        for tree in _harness_trees():
            harness.update(*_references(tree, set(modules)))
    missing = []
    for module, tree in modules.items():
        used = set(harness)
        for other, statements in refs.items():
            if other != module:
                used.update(*statements)
        for node, own in zip(tree.body, refs[module]):
            for name in _defined(node, private):
                if (not any(name in found for found in refs[module]
                            if found is not own)
                        and name not in used):
                    missing.append(f"{module}.{name}" if private else name)
    return tuple(sorted(missing))


def test_every_public_definition_has_a_caller():
    unexplained = sorted(set(_unreferenced()) - set(ALLOWED))
    assert not unexplained, (
        f"public names called only from tests: {unexplained}; delete them, "
        f"make them private, or add them to ALLOWED with a reason")


def test_every_private_definition_is_used():
    unused = _unreferenced(private=True)
    assert not unused, (
        f"private names that nothing in the package uses: {list(unused)}; "
        f"delete them")


def test_allowlist_is_current():
    # An entry whose name has gained a caller, or no longer exists, goes.
    assert list(_unreferenced()) == sorted(ALLOWED)


def test_all_lists_only_importable_names():
    assert all(hasattr(archsmith, name) for name in archsmith.__all__)


def _unused_members() -> list[str]:
    """Public methods and properties of public package classes whose name
    appears nowhere in the package as an attribute outside their own
    definition, nor in the benchmark harness as an attribute or a string
    (its tracer patches methods by name)."""
    harness = {node.attr if isinstance(node, ast.Attribute) else node.value
               for tree in _harness_trees() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               or (isinstance(node, ast.Constant)
                   and isinstance(node.value, str))}

    def attributes(tree) -> Counter:
        return Counter(node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute))

    modules = _modules()
    package = sum(map(attributes, modules.values()), Counter())
    unused = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")
                        and member.name not in harness
                        and package[member.name]
                        == attributes(member)[member.name]):
                    unused.append(f"{module}.{cls.name}.{member.name}")
    return unused


def test_every_public_member_has_a_user():
    unused = _unused_members()
    assert not unused, (
        f"public methods and properties that only tests use: {unused}; "
        f"delete them or make them private")


def test_tracer_patch_list_names_existing_members():
    # ``Tracer.install`` looks each entry up in the class ``__dict__``; a
    # deleted member would break the benchmark, not the tier-1 tests.
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    methods = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "METHODS"
                           for t in node.targets))
    assert methods
    for layer, entries in methods.items():
        module = importlib.import_module(f"archsmith.{layer}")
        for cls_name, method in entries:
            assert method in vars(getattr(module, cls_name)), (
                f"perfbench/tracer.py patches {layer}.{cls_name}.{method}, "
                f"which does not exist")


def _uses(tree, name: str) -> list[str]:
    """Where ``tree`` uses ``name`` as a bare name, an attribute or an
    imported alias: the dotted path of the enclosing classes and
    functions, ``"<module>"`` at the top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias)
                    and (node.asname or node.name) == name)):
            found.append(".".join(where) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return found


def test_archive_and_search_build_no_trees():
    # Archive individuals and search members are (key, row) pairs; only a
    # caller that reads ``Individual.gan`` gets a tree built.
    modules = _modules()
    assert sorted(set(_uses(modules["archive"], "unflatten_joint"))) == [
        "<module>", "Individual.gan"]
    assert _uses(modules["search"], "unflatten_joint") == []


def test_ea_breaks_ties_without_hashing():
    # EA selection breaks an exact fitness tie by the smaller (key, row):
    # search names neither the genotype hash nor the hashing sort.
    modules = _modules()
    for name in ("gan_hash", "sort_by_fitness"):
        assert _uses(modules["search"], name) == [], name


def test_read_path_builds_no_trees():
    # Records are read straight into (key, row): the archive names
    # ``GanSpec`` only for ``Individual.gan``, no module parses a genotype
    # tree, and ``archsmith score`` reads no individual's tree.
    modules = _modules()
    assert sorted(set(_uses(modules["archive"], "GanSpec"))) == [
        "<module>", "Individual.gan"]
    trees = {"GanSpec", "DnnSpec", "LayerSpec"}
    for name, tree in modules.items():
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "from_json_obj"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id in trees]
        assert not calls, f"{name} parses a genotype tree"
    for name in trees:
        assert "from_json_obj" not in vars(getattr(archsmith, name))
    score = next(node for node in modules["cli"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "cmd_score")
    assert not [node for node in ast.walk(score)
                if isinstance(node, ast.Attribute) and node.attr == "gan"]


def test_search_landscape_and_experiments_hold_no_trees():
    # Draws, samples and elites reach search and evaluation as (key, row)
    # pairs: these modules name no tree type or tree converter, and the
    # experiments read no individual's tree.
    modules = _modules()
    for module in ("search", "landscape", "experiments"):
        for name in ("GanSpec", "flatten_joint", "unflatten_joint",
                     "random_gan"):
            assert _uses(modules[module], name) == [], (module, name)
    assert _uses(modules["experiments"], "gan") == []


def _reads(functions, name: str, seen=()) -> set[str]:
    """The ``args.<name>`` attributes that module function ``name`` reads,
    with those of the module functions it passes ``args`` to."""
    found = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions and node.func.id not in seen
              and any(isinstance(arg, ast.Name) and arg.id == "args"
                      for arg in node.args)):
            found |= _reads(functions, node.func.id, seen + (name,))
    return found


def test_every_cli_flag_is_read_by_its_handler():
    # A flag its handler never reads would be accepted and then ignored
    # (``gen-archive --seed 3`` once wrote the archive of base seed 0).
    functions = {node.name: node for node in _modules()["cli"].body
                 if isinstance(node, ast.FunctionDef)}
    declared, handlers, command = {}, {}, None
    for statement in functions["build_parser"].body:
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "add_parser":
                assert all(k.arg != "parents" for k in node.keywords)
                command = node.args[0].value
                declared[command] = set()
            elif node.func.attr == "add_argument":
                flag = node.args[0].value
                assert command, f"{flag} is declared outside a subcommand"
                declared[command].add(flag.lstrip("-").replace("-", "_"))
            elif node.func.attr == "set_defaults":
                [keyword] = node.keywords
                handlers[command] = keyword.value.id
    assert set(handlers) == set(declared) == {
        "ingest", "learn", "score", "sample", "search", "gen-archive",
        "experiment", "analyze"}
    for command, flags in declared.items():
        assert _reads(functions, handlers[command]) == flags, command
