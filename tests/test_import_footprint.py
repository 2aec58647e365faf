"""What a fresh `import ccdr` loads.

scipy.stats costs about 30 MB of resident memory and half of the package's
import time, and the package needs nothing from it: the one normal quantile
comes from scipy.special.ndtri, which the kept scipy modules load anyway.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_ccdr_loads_no_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, ccdr\n"
        "print(' '.join(m for m in sys.modules if m == 'scipy.stats' or m.startswith('scipy.stats.')))\n"
        "print('scipy.special' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == ["", "True"]
