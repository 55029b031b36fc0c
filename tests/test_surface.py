"""Guard on the package surface: src/ holds only what the program runs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "audiotrim"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_nn_knows_no_architecture():
    # architectures live in models alone: importing nn in a fresh process
    # must not import models, and nn must offer no way to look one up
    code = ("import sys; from audiotrim import nn; "
            "print('audiotrim.models' in sys.modules); "
            "print(sorted(n for n in vars(nn) if 'arch' in n.lower())); "
            "print(hasattr(nn.Network, 'forward'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["False", "[]", "False"]


def test_every_public_definition_is_used_by_the_program():
    # names read as code, so a mention in a docstring or comment is no use
    used = set()
    for path in (p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public definitions nothing in the program uses: {unused}"


# defaulted parameters that no program call sets, each kept for a reason
_UNSET_DEFAULTS_KEPT = {
    # the console entry point reads sys.argv when called without argv
    "cli.main(argv)",
    # the acceptance tests measure the estimator's spread over seeds
    "mi.estimate_mi(seed)",
    # covers input-side trimming of a GRU
    "nn.make_gru(in_source)",
}


def _defaulted(fn, is_method):
    """(call position or None, name) of each parameter with a default;
    a method's call positions start after self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - int(is_method), a.arg) for i, a in enumerate(positional)
           if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def test_every_defaulted_parameter_is_set_by_the_program():
    # calls are matched by the callee's final name; a parameter counts as
    # set when some call passes it by keyword or position, or passes
    # *args / **kwargs
    keywords, positions, spread = {}, {}, set()
    for path in (p for d in ("src", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None)
            positions[name] = max(positions.get(name, 0), len(node.args))
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                spread.add(name)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                targets = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                targets = [(f"{node.name}.{fn.name}",
                            node.name if fn.name == "__init__" else fn.name,
                            fn, True)
                           for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for label, callee, fn, is_method in targets:
                if callee in spread:
                    continue
                for pos, param in _defaulted(fn, is_method):
                    if param in keywords.get(callee, ()):
                        continue
                    if pos is not None and pos < positions.get(callee, 0):
                        continue
                    unset.append(f"{path.stem}.{label}({param})")
    assert set(unset) == _UNSET_DEFAULTS_KEPT, (
        f"defaulted parameters nothing in the program sets: "
        f"{sorted(set(unset) - _UNSET_DEFAULTS_KEPT)}; exemptions now set "
        f"or gone: {sorted(_UNSET_DEFAULTS_KEPT - set(unset))}")


# a layer kind is described once, by its record in nn; no other module
# tests a layer's kind by name
_LAYER_KIND_NAMES = {"linear", "conv1d", "gru", "batchnorm"}


def _names_a_kind(node):
    consts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(c, ast.Constant) and c.value in _LAYER_KIND_NAMES
               for c in consts)


def test_layer_kinds_are_compared_only_where_they_are_described():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "nn":
            continue
        for top in _tree(path).body:
            where = (f"{path.stem}.{top.name}"
                     if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.stem)
            for node in ast.walk(top):
                if (isinstance(node, ast.Compare)
                        and any(map(_names_a_kind, [node.left, *node.comparators]))):
                    stray.append(f"{where} (line {node.lineno})")
    assert not stray, f"layer-kind comparisons outside nn: {stray}"


# the run directory has one writer: outside harness and cli, src writes no
# file (nn.save_checkpoint is how a checkpoint is written, not who writes)
_WRITE_CALLS = {"save_checkpoint", "write_csv", "write_text", "write_bytes", "mkdir"}


def _writes(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _WRITE_CALLS:
        return True
    if name != "open":
        return False
    # the mode: the keyword, or a positional string that reads as one
    args = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    modes = [a.value for a in args if isinstance(a, ast.Constant)
             and isinstance(a.value, str) and re.fullmatch("[rwxabt+]+", a.value)]
    return any(set(m) & set("wxa+") for m in modes)


def test_only_harness_and_cli_write_files():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("harness", "cli"):
            continue
        for top in _tree(path).body:
            if path.stem == "nn" and getattr(top, "name", None) == "save_checkpoint":
                continue
            where = path.stem + (f".{top.name}" if hasattr(top, "name") else "")
            stray += [f"{where} (line {node.lineno})" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and _writes(node)]
    assert not stray, f"file writes outside harness and cli: {stray}"
