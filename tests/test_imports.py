"""What a ``sqlab`` process loads: numpy and the standard library, never
scipy, which is a test dependency only (the oracle of the Fresnel integral
and of the 5-smooth transform lengths); and the Fresnel table is built on
the first call that needs it, not at import."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqlab"


def run_fresh(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports sqlab
    from this checkout."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_runs_without_loading_scipy():
    out = run_fresh(
        """
        import contextlib, io, sys
        import sqlab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert sqlab.cli.main(["fjk-constant", "--n", "64", "--grid", "256"]) == 0
            assert sqlab.cli.main(["multifreq", "--s", "2", "--grid", "256"]) == 0
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    assert out == "[]\n"


def test_no_library_file_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b|import_module\(\s*['\"]scipy|__import__\(\s*['\"]scipy", re.M)
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [p.name for p in files if pattern.search(p.read_text())] == []


def test_fresnel_table_is_built_on_the_first_call():
    out = run_fresh(
        """
        import sqlab.cli
        from sqlab import circle
        print(circle._fresnel_table.cache_info().currsize)
        circle.gamma_N(0.5, 4)
        print(circle._fresnel_table.cache_info().currsize)
        """
    )
    assert out == "0\n1\n"
