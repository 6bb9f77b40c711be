"""What the package imports is what ``setup.py`` declares.

Two checks keep the declared dependencies honest: a static scan of every
import in ``src/repro`` (module level and inside functions) against
``install_requires``, and a subprocess that blocks the optional-at-import
modules and still imports the package and runs a detection.
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower()
                for req in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level non-stdlib module -> the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(SRC))
                    )
    return found


def test_every_import_is_declared():
    undeclared = {
        module: files
        for module, files in _third_party_imports().items()
        if module.lower() not in _install_requires()
    }
    assert not undeclared, f"imports missing from install_requires: {undeclared}"


def test_package_imports_and_detects_without_scipy_or_networkx():
    script = textwrap.dedent(
        """
        import sys

        sys.modules["scipy"] = None
        sys.modules["networkx"] = None

        import numpy as np

        import repro
        import repro.cli
        from repro.data import EEGRecord
        from repro.service import batch_window_decisions

        rng = np.random.default_rng(0)
        record = EEGRecord(data=rng.standard_normal((2, 8 * 256)), fs=256.0)
        decisions = batch_window_decisions(record)
        assert len(decisions) == 5, len(decisions)
        print("ok", len(decisions))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "5"]
