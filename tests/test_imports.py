"""numpy serves only the Monte-Carlo names; the exact core runs on the standard library.

The subprocess tests start a fresh interpreter, so that no module another test
imported hides what `import lcross` itself loads.  A `None` entry in
`sys.modules` makes every later `import numpy` fail, as on a Python without it.
"""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lcross
from lcross import (
    WalkSpec,
    crossing_table,
    dichotomy_check,
    gram_matrix,
    optimality_family,
    ratio_scan,
    sym2_kernel,
    uniform_range,
)
from lcross.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"

MC_NAMES = {
    "StepSampler",
    "McEstimate",
    "from_dist",
    "gaussian",
    "cauchy",
    "factorial_heavy",
    "mc_crossing",
    "mc_sign_changes",
    "mc_top_two_tie",
    "seeded_stream",
    "factorial_dominance_stats",
    "top_two_tie_prob",
}

EXACT_CALLS = """
import json
from lcross import (
    WalkSpec, crossing_table, dichotomy_check, gram_matrix, optimality_family,
    ratio_scan, sym2_kernel, uniform_range,
)
from lcross.cli import run
print(json.dumps({
    "crossing": crossing_table(WalkSpec(step=uniform_range(-2, 3), level=1, horizon=6)).to_csv(),
    "ratio": ratio_scan(optimality_family(5)).summary_json_dict(),
    "dichotomy": dichotomy_check(gram_matrix(sym2_kernel(), [-1, 0, 2])).to_json_dict(),
}))
code = run(["crossing", "--dist", "rademacher", "--horizon", "8"])
assert code == 0, code
"""


def _python(code):
    """Run `code` in a fresh interpreter that finds the package in src/.

    The output is decoded without newline translation, so CSV's \\r\\n survives.
    """
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, timeout=120)
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


def test_import_lcross_loads_no_numpy():
    proc = _python(
        "import lcross\n"
        "assert 'numpy' not in sys.modules, 'import lcross loaded numpy'\n"
        "assert not {'lcross.oracles', 'lcross.acceptance'} & set(sys.modules)\n"
        "assert 'lcross.mc' not in sys.modules\n"
        "import lcross.cli, lcross.dist, lcross.walk, lcross.symmetrization, lcross.dichotomy\n"
        "assert 'numpy' not in sys.modules, 'an exact module loaded numpy'\n"
        "mc = lcross.mc\n"
        "assert 'numpy' in sys.modules and mc is sys.modules['lcross.mc']\n"
        "from lcross import mc_crossing\n"
        "assert mc_crossing is mc.mc_crossing is lcross.mc_crossing\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_mc_starts_threads_only_for_split_calls():
    # 8191 x 16 steps fill less than two blocks, and Gaussian draws never
    # split; 8192 x 16 fill two, so that call runs on a helper thread too.
    proc = _python(
        "import threading\n"
        "import lcross\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "import lcross.mc as mc\n"
        "assert 'concurrent.futures' not in sys.modules and threading.active_count() == 1\n"
        "mc._cpus = lambda: 2\n"
        "r = mc.from_dist(lcross.rademacher())\n"
        "mc.mc_crossing(r, 16, 0, 8191, 0)\n"
        "mc.mc_sign_changes(mc.gaussian(), 16, 100000, 0)\n"
        "assert 'concurrent.futures' not in sys.modules and threading.active_count() == 1\n"
        "est = mc.mc_crossing(r, 16, 0, 8192, 0)\n"
        "assert threading.active_count() == 2\n"
        "assert mc.mc_crossing(r, 16, 0, 8192, 0) == est and threading.active_count() == 2\n"
        # A forked child has no helper threads, and starts its own.
        "import os\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    import signal; signal.alarm(60)  # a child that hangs ends itself\n"
        "    os._exit(0 if mc.mc_crossing(r, 16, 0, 8192, 0) == est else 1)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_core_runs_without_numpy(capsys):
    proc = _python(BLOCK_NUMPY + EXACT_CALLS)
    assert proc.returncode == 0, proc.stderr
    first, table = proc.stdout.split("\n", 1)
    assert json.loads(first) == {
        "crossing": crossing_table(WalkSpec(step=uniform_range(-2, 3), level=1, horizon=6)).to_csv(),
        "ratio": ratio_scan(optimality_family(5)).summary_json_dict(),
        "dichotomy": dichotomy_check(gram_matrix(sym2_kernel(), [-1, 0, 2])).to_json_dict(),
    }
    assert run(["crossing", "--dist", "rademacher", "--horizon", "8"]) == 0
    assert table == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--sampler", "gaussian", "--n", "4", "--samples", "10"],
        ["mc", "--estimand", "top-two-tie", "--sampler", "factorial_heavy", "--n", "3"],
        ["repro"],
    ],
)
def test_mc_subcommands_without_numpy_exit_2_with_one_line(argv):
    proc = _python(BLOCK_NUMPY + f"from lcross.cli import run\nsys.exit(run({argv!r}))\n")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: lcross {argv[0]} needs numpy: ")
    assert proc.stderr.count("\n") == 1


def test_public_namespace_is_unchanged():
    assert MC_NAMES <= set(lcross.__all__)
    assert len(lcross.__all__) == len(set(lcross.__all__))
    for name in lcross.__all__:
        value = getattr(lcross, name)
        assert value is not None and not isinstance(value, types.ModuleType), name
        assert not name.startswith("_"), name
        if callable(value):  # a function or a class, defined in an lcross module
            assert value.__module__.startswith("lcross."), name
    namespace = {}
    exec("from lcross import *", namespace)
    assert set(lcross.__all__) <= set(namespace)
    assert lcross.mc_crossing is lcross.mc.mc_crossing
    assert namespace["McEstimate"] is lcross.mc.McEstimate
    assert set(lcross.__all__) | {"mc"} <= set(dir(lcross))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lcross.no_such_name
    assert not hasattr(lcross, "_no_such_private_name")


def test_oracles_import_only_the_standard_library():
    # The references share nothing with the engines they check: no lcross module, no
    # numpy, no mpmath.  A relative import keeps its dots, so it is never stdlib.
    nodes = list(ast.walk(ast.parse((SRC / "lcross" / "oracles.py").read_text())))
    names = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    names += ["." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)]
    assert names and {name.split(".")[0] for name in names} <= sys.stdlib_module_names, names
