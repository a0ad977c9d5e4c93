"""The package's declared public names all exist, importing it stays
light, it imports itself only by relative imports, and it takes every
sample spread and every power-of-two scaling from one function each.

A name deleted from a module but left in an ``__all__`` breaks
``from paircomp import *`` only when someone runs it; these tests run it.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import paircomp

# __main__ runs the command line on import
MODULES = ["paircomp"] + sorted(
    f"paircomp.{info.name}" for info in pkgutil.iter_modules(paircomp.__path__)
    if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from paircomp import *", namespace)
    assert set(paircomp.__all__) <= set(namespace)


LAZY_SCIPY = """
import json, sys
from paircomp import cli

def run(test):
    config = {
        "design": {"alpha": 0.05, "power": 0.8, "d": 0.5, "test": test},
        "sampling": {"se_max": 0.5, "n0": 3, "n_max": 6},
        "algorithms": [
            {"alias": "a", "kind": "synthetic_normal", "params": {"mu": 0.0, "sigma": 1.0}},
            {"alias": "b", "kind": "synthetic_normal", "params": {"mu": 0.5, "sigma": 1.0}}],
        "instances": {"inline": [{"id": i} for i in "wxyz"]},
        "master_seed": 1, "use_all_instances": True, "output_dir": test}
    with open(test + ".yaml", "w") as f:
        json.dump(config, f)
    return cli.main(["run", "--config", test + ".yaml"])

def loaded():
    return [name for name in ("scipy.stats", "scipy.integrate") if name in sys.modules]

codes = [cli.main(["design", "--power", "0.8", "--d", "0.5", "--alpha", "0.05"]),
         cli.main(["power", "--n", "30", "--d", "0.5", "--alpha", "0.05"]),
         run("t_test"), run("wilcoxon")]
after_t = loaded()
codes.append(run("sign"))
print(json.dumps({"codes": codes, "after_t": after_t, "after_sign": loaded()}))
"""


def test_scipy_stats_and_integrate_load_only_when_used(tmp_path):
    # a fresh interpreter: this process has scipy.integrate loaded already,
    # since tests/oracles.py imports it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(paircomp.__file__).parent.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0, 0, 0]
    assert got["after_t"] == []
    # the sign test's binomial tails come from scipy.special
    assert got["after_sign"] == []


def package_trees():
    for path in sorted(Path(paircomp.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_the_package_imports_itself_relatively():
    # so that two revisions' packages can be loaded side by side under
    # other names in one interpreter, to compare them call by call
    absolute = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}" for name in names
                         if name == "paircomp" or name.startswith("paircomp.")]
    assert absolute == []


def test_one_spread_and_one_scale_rule():
    # every sample spread comes from estimators._mean_spread, whose squares
    # cannot under- or overflow, and every scaling from hypotests._scaled
    stray, defined = [], []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("std", "var"):
                stray.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.keyword) and node.arg == "ddof":
                stray.append(f"{path.name}:{node.lineno} ddof=")
            elif isinstance(node, ast.FunctionDef) and \
                    node.name in ("_mean_spread", "_scaled"):
                defined.append(f"{path.stem}.{node.name}")
    assert stray == []
    assert sorted(defined) == ["estimators._mean_spread", "hypotests._scaled"]


def test_one_rejection_rule():
    # Lemire's rejection test, against 2**32 mod n, is taken in one place,
    # which the index kernel and the scan for the first side's end share
    homes = []
    for path, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                homes += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                          and ast.unparse(node.left) == "1 << 32"]
    assert homes == ["estimators._kept_words"]
