"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so every path a user
reaches by default — a co-run sweep, the cache code salt, a served case —
must work with numpy unimportable.  The check runs in a fresh interpreter
with ``sys.modules["numpy"] = None``, which makes any ``import numpy``
raise ``ImportError`` even where numpy is installed.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["numpy"] = None

    from repro.harness.cache import code_salt
    from repro.harness.runner import CaseRunner, CaseSpec
    from repro.serve.runner import ServeRunner
    from tests.test_golden_digests import SERVE_SPEC, gpu_config

    gpu = gpu_config("event", "gto")
    (record,) = CaseRunner(gpu, 2500).sweep(
        [CaseSpec.pair("mri-q", "lbm", 0.6, "rollover")])
    assert record.kernels
    assert len(code_salt()) == 16
    outcome = ServeRunner(gpu, workers=1).run_spec(SERVE_SPEC)
    assert outcome.completed
""")


def test_runs_without_numpy():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
               REPRO_CACHE="0", REPRO_EXPDB="0")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
