"""Shared start-up for the benchmark's scripts.

Every script is run from the root of a natkit checkout
(``python3 perfbench/<script>.py``) and measures the natkit found in that
checkout's ``src/`` tree, never an installed copy. Importing this module
pins the numeric libraries to one thread, so it must be imported before
numpy is.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODELS_DIR = BENCH_DIR / "models"
OUT_DIR = BENCH_DIR / "out"

# The translate models and the train workload share the synthetic task's
# word inventory: 20 content types w00..w19 after the five specials.
N_WORDS = 20


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no natkit source, no models)."""


def use_checkout_natkit() -> None:
    """Put the checkout's ``src/`` first on the path and check the import."""
    if not (SRC / "natkit" / "__init__.py").is_file():
        raise SetupError(f"no natkit source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import natkit

    found = Path(natkit.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SetupError(f"imported natkit from {found}, not from {SRC}")
