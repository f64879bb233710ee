"""Print how long importing the program takes in a fresh interpreter.

Run by ``run.py`` once per set-up repetition, so that set-up time counts
the imports as a user's process pays them.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
tick = time.perf_counter()
import sbobench.analysis  # noqa: E402,F401
import sbobench.harness  # noqa: E402,F401
import sbobench.surrogates  # noqa: E402,F401

print(repr(time.perf_counter() - tick))
