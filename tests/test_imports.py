"""Checks of the package source made by parsing it, not running it (the last
also imports the scenario classes).

* Every package module uses each name it imports.  A name listed only in
  ``__all__`` counts as unused: the modules re-export nothing they do not call.
* Every defaulted parameter of a public function or method is set by some
  caller outside the tests (the package, the demos or perfbench), by name or
  by position.  A default that only a test overrides is one value in use and
  belongs in the function as a constant.  A call counts by the callee's last
  name (``f(...)``, ``mod.f(...)`` and ``obj.f(...)`` all count for ``f``),
  so the check may miss an unset default but never reports a set one.
* Every name in a module's ``__all__`` is referred to, as a name or an
  attribute, somewhere outside the tests.  A public name only tests use is
  deleted, or moved into the tests as an oracle.
* Every annotated field, property and public method of a public class is read
  somewhere outside the tests, as an attribute (``obj.name``) or as a keyword
  (``f(name=...)``).  A keyword given to a package class's constructor, to
  ``_replace`` or to ``dataclasses.replace`` sets a field and does not count
  as a read.  The check goes by the member's name, like the ones above, so it
  may miss an unread member but never reports a read one.
* No ``for`` or ``while`` loop or comprehension in the package calls
  ``run_scenario``: multi-run work goes through ``engine._runs``, the one
  path that checks every value before its first run.
* No package function other than ``engine._runs`` constructs a
  ``SweepResult``: every multi-run study returns the rows of the one path.
* No function of the package binds a package function to a local name, one
  that its module imports by name or defines: each call looks the function
  up by its module-level name, so a wrapper set on the module attribute
  (as perfbench's tracer sets one) sees every call, and there is one way to
  call a stage.
* No ``except`` clause of the package that catches ``ValueError`` raises a
  ``ConfigError``: a refusal is a ConfigError where its rule is checked, so a
  boundary catches ConfigError only and adds its key, flag or value, and a
  ValueError that no rule raised ends in its traceback.
* Outside ``plant``, no package function that calls ``range_faults`` raises a
  ``ConfigError``: ``plant.check_range`` is the one step from a rule's fault
  to a refusal.
* Every field of ``ScenarioConfig`` and of each dataclass it holds is set
  somewhere: a bundled document gives one of its keys, or a call outside the
  tests gives it to the class's constructor (by name or by position) or by
  name to ``replace`` or ``_replace``.  A field that nothing sets is one
  value in use and belongs in the code as a constant.  This check imports
  the package, for the scenario classes and their document keys.
"""

from __future__ import annotations

import ast
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from corrobs.config import _KEYS, BUNDLED_CONFIGS, bundled_config_path
from corrobs.engine import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "corrobs").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
CALLERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# Defaulted parameters that no caller outside the tests sets, and why each stays.
UNSET_DEFAULTS = {
    "cli.main(argv)": "the console script calls main() without arguments, so argparse "
                      "reads sys.argv; the tests pass their own",
}

# Public names that nothing outside the tests refers to, and why each stays.
UNREFERENCED_PUBLIC = {
    "fractional.falpha": "the odd power the steppers inline, and criterion 9's subject",
    "config.save_scenario": "the inverse of load_scenario, kept for the round-trip promise",
}

# Members of public classes that nothing outside the tests reads, and why each stays.
UNREAD_MEMBERS: dict[str, str] = {}

# Scenario fields that no bundled document and no caller outside the tests
# sets, and why each stays.
UNSET_FIELDS = {
    "ScenarioConfig.initial_offset": "perfbench/tests/test_perfbench.py sets a non-finite "
                                     "start on it to force a divergence at tick 0",
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports names it never uses: {sorted(imported - used)}"


def _public_functions(tree: ast.Module):
    """(qualified name, def node, whether its first parameter is bound) of each
    public module-level function and public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    yield f"{node.name}.{fn.name}", fn, not static


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position among the call's positional arguments, or None when
    keyword-only) of each parameter of ``fn`` that has a default."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[int(bound):]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _callee(call: ast.Call) -> str | None:
    """The last name of what ``call`` calls."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_set_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    unset = []
    for path in PACKAGE:
        for qualname, fn, bound in _public_functions(ast.parse(path.read_text())):
            for param, position in _defaulted(fn, bound):
                if not any(_sets(c, param, position) for c in calls.get(fn.name, [])):
                    unset.append(f"{path.stem}.{qualname}({param})")
    extra = sorted(set(unset) - set(UNSET_DEFAULTS))
    assert not extra, f"defaults that only the tests set; make each a constant: {extra}"
    stale = sorted(set(UNSET_DEFAULTS) - set(unset))
    assert not stale, f"listed exceptions that a caller sets or that are gone: {stale}"


def _exported(tree: ast.Module) -> list[str]:
    """The names in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def test_every_public_name_is_referred_to_outside_the_tests():
    referred = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    unreferred = [f"{path.stem}.{name}" for path in MODULES
                  for name in _exported(ast.parse(path.read_text())) if name not in referred]
    extra = sorted(set(unreferred) - set(UNREFERENCED_PUBLIC))
    assert not extra, f"public names only the tests use; delete or move each: {extra}"
    stale = sorted(set(UNREFERENCED_PUBLIC) - set(unreferred))
    assert not stale, f"listed exceptions that are referred to or gone: {stale}"


def _class_members(tree: ast.Module):
    """(class name, member name) of each annotated field, property and public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def test_every_class_member_is_read_outside_the_tests():
    writers = {"_replace", "replace"} | {
        node.name for path in PACKAGE for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)}
    read = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and _callee(node) not in writers:
                read.update(k.arg for k in node.keywords if k.arg)
    unread = [f"{path.stem}.{cls}.{name}" for path in MODULES
              for cls, name in _class_members(ast.parse(path.read_text())) if name not in read]
    extra = sorted(set(unread) - set(UNREAD_MEMBERS))
    assert not extra, f"class members only the tests read; delete each: {extra}"
    stale = sorted(set(UNREAD_MEMBERS) - set(unread))
    assert not stale, f"listed exceptions that are read or gone: {stale}"


def test_no_loop_calls_run_scenario():
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, loops) and any(
                    isinstance(c, ast.Call) and _callee(c) == "run_scenario"
                    for c in ast.walk(node)):
                looped.append(f"{path.name}:{node.lineno}")
    assert not looped, f"loops that call run_scenario; use engine._runs: {looped}"


def test_only_runs_constructs_a_sweep_result():
    builders = set()
    for path in PACKAGE:
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(c, ast.Call) and _callee(c) == "SweepResult"
                    for c in ast.walk(fn)):
                builders.add(f"{path.stem}.{fn.name}")
    others = sorted(builders - {"engine._runs"})
    assert not others, f"functions that construct a SweepResult; use engine._runs: {others}"


def test_no_function_binds_a_package_function_to_a_local():
    defined = {path.stem: {node.name for node in ast.parse(path.read_text()).body
                           if isinstance(node, ast.FunctionDef)} for path in PACKAGE}
    bound = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = set(defined[path.stem])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                functions.update(a.asname or a.name for a in node.names
                                 if a.name in defined.get(node.module, ()))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    value = node.value
                    for v in value.elts if isinstance(value, ast.Tuple) else [value]:
                        if isinstance(v, ast.Name) and v.id in functions:
                            bound.add(f"{path.name}:{node.lineno} {v.id}")
    assert not bound, f"package functions bound to locals; call each by name: {sorted(bound)}"


def _functions(path: Path):
    """(module.name, def node) of each function of the package module at ``path``."""
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{path.stem}.{fn.name}", fn


def _raises_config_error(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
               and _callee(n.exc) == "ConfigError" for n in ast.walk(node))


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(c, ast.Name) and c.id == "ValueError" for c in caught)


def test_no_boundary_relabels_a_value_error_as_a_config_error():
    relabelling = sorted({name for path in PACKAGE for name, fn in _functions(path)
                          for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler)
                          and _catches_value_error(h) and _raises_config_error(h)})
    assert not relabelling, f"except clauses that turn a ValueError into a ConfigError; " \
                            f"raise the ConfigError at the rule: {relabelling}"


def test_only_check_range_turns_a_rule_fault_into_a_refusal():
    hand_rolled = sorted(name for path in PACKAGE if path.stem != "plant"
                         for name, fn in _functions(path) if _raises_config_error(fn)
                         and any(isinstance(c, ast.Call) and _callee(c) == "range_faults"
                                 for c in ast.walk(fn)))
    assert not hand_rolled, f"functions that raise a ConfigError from range_faults; " \
                            f"call plant.check_range: {hand_rolled}"


def _scenario_fields(cls: type, path: str = ""):
    """(class, field name, document key) of each field of scenario dataclass
    ``cls`` and of the dataclasses its fields hold, the keys dotted from the
    top of a document, as `config` reads them."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        keys = _KEYS.get(f.name, (f.name,))
        hint = hints[f.name] if len(keys) == 1 else get_args(hints[f.name])[0]
        for key in keys:
            yield cls, f.name, path + key
            if is_dataclass(hint):
                yield from _scenario_fields(hint, f"{path}{key}.")


def _holds(doc: dict, key: str) -> bool:
    for part in key.split("."):
        if not (isinstance(doc, dict) and part in doc):
            return False
        doc = doc[part]
    return True


def test_every_scenario_field_is_set_by_a_document_or_a_caller():
    docs = [json.loads(bundled_config_path(n).read_text()) for n in BUNDLED_CONFIGS]
    calls = [node for path in CALLERS
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)]
    replaced = {k.arg for c in calls if _callee(c) in ("replace", "_replace")
                for k in c.keywords}
    held_under: dict[tuple[type, str], list[str]] = {}
    for cls, name, key in _scenario_fields(ScenarioConfig):
        held_under.setdefault((cls, name), []).append(key)
    unset = set()
    for (cls, name), keys in held_under.items():
        position = [f.name for f in fields(cls)].index(name)
        if not (any(_holds(doc, key) for doc in docs for key in keys) or name in replaced
                or any(_callee(c) == cls.__name__ and _sets(c, name, position)
                       for c in calls)):
            unset.add(f"{cls.__name__}.{name}")
    extra = sorted(unset - set(UNSET_FIELDS))
    assert not extra, f"scenario fields that nothing outside the tests sets; make each " \
                      f"a constant: {extra}"
    stale = sorted(set(UNSET_FIELDS) - unset)
    assert not stale, f"listed exceptions that are set or gone: {stale}"
