"""Every sum in ghostsim is an elementwise product reduced in a fixed order: no BLAS call, so neither OpenBLAS's CPU
kernel nor numpy's dispatch level moves a byte of the sums. The host checks run in child processes, since OpenBLAS
and numpy read their CPU settings once, at load."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import ghostsim
from ghostsim import save_series

from conftest import _openblas, synthetic_series

_SRC = Path(ghostsim.__file__).parent
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(tree: ast.AST) -> list[int]:
    """Lines of a @ b, a @= b, np.linalg and any name or import of a BLAS-backed numpy function."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES or isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(part in _BLAS_NAMES for name in names for part in name.split(".")):
                lines.append(node.lineno)
    return lines


def test_no_ghostsim_sum_calls_blas():
    for snippet in ("a @ b", "a @= b", "np.dot(a, b)", "np.linalg.lstsq(a, b)", "from numpy import einsum",
                    "import numpy.linalg", "x.dot(y)", "np.inner(a, b)"):
        assert _blas_uses(ast.parse(snippet)), snippet
    found = {path.name: _blas_uses(ast.parse(path.read_text(), str(path))) for path in sorted(_SRC.glob("*.py"))}
    assert len(found) > 10 and not {name: lines for name, lines in found.items() if lines}


def _child(script: str, env: dict, *args) -> str:
    """stdout of script run in a fresh interpreter, with env added to this process's environment."""
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([str(_SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


_RUNS = """
import sys
from contextlib import redirect_stdout
from pathlib import Path
from ghostsim.cli import main
out = Path(sys.argv[2])
with redirect_stdout(sys.stderr):  # its "wrote" lines name the directory
    assert main(["run", sys.argv[1], "--out", str(out / "run")]) == 0
    assert main(["sweep", sys.argv[1], "--axis", "N", "--values", "100,300,600", "--out", str(out / "s")]) == 0
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(path.relative_to(out), path.read_bytes().hex())
"""


@pytest.mark.parametrize("case", ["64x64-B-split", "37x53-none"])
def test_runs_do_not_depend_on_the_blas_core_type(tmp_path, case):
    # OpenBLAS picks its GEMM and dot kernels per CPU; OPENBLAS_CORETYPE overrides the pick at load
    if _openblas() is None:
        pytest.skip("no OpenBLAS in this process")
    if not (__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")):
        pytest.skip("the Haswell kernels need AVX2 and FMA")
    size, position = case.split("-")[:2]
    width, height = map(int, size.split("x"))
    data = {"speckle": {"width": width, "height": height, "seed": 11}, "object": {"builtin": "disk"}, "count": 600}
    if position == "B":
        data["noise"] = {"position": "B", "kind": "sinusoid", "amplitude_rel_std": 0.5, "frequency": 0.01}
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    trees = [_child(_RUNS, env, tmp_path / "cfg.json", tmp_path / name)
             for name, env in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"}))]
    assert "gi.f64" in trees[0] and "sweep.csv" in trees[0]
    assert trees[0] == trees[1]


_REPLAY = """
import sys
from ghostsim import builtin_mask, gi_reconstruct, igi_reconstruct, load_series, quality_report
series = load_series(sys.argv[1])
truth = builtin_mask("disk", series.width, series.height)
for image in (gi_reconstruct(series), igi_reconstruct(series), igi_reconstruct(series, "paper-literal")):
    print(image.tobytes().hex(), repr(quality_report(image, truth).to_dict()))
"""


def test_replay_and_scores_do_not_depend_on_numpys_cpu_dispatch(tmp_path):
    # fixed frames: simulated ones would move under dispatch, through speckle._transfer's np.exp
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("the CPU has no X86_V4 (AVX512) level to turn off")
    series = synthetic_series(13, 600, 64, 64)
    save_series(series, tmp_path / "s.gsim")
    replays = [_child(_REPLAY, env, tmp_path / "s.gsim")
               for env in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})]
    assert replays[0].count("\n") == 3
    assert replays[0] == replays[1]
