"""Golden outputs: every file six virtual-time CLI configurations write, by sha256.

The runner promises byte-identical virtual-time logs on rerun.  This
test reruns six configurations, runs README's analysis pipeline over
the ``criterion-10`` logs (curves, replay grid, rules tree and two
offline fits), and compares each file written with the digest in
``golden_manifest.json``, naming every differing, missing or extra
file.  The manifest also holds the stamp it was made under (numpy and
scipy versions, threads per bundled OpenBLAS pool): the byte-identity
claim holds for that build and thread count, and a failure on another
build is evidence about how far it reaches.

After an intended change to outputs, rewrite the manifest with::

    PYTHONPATH=src python3 tests/test_golden.py --update

It prints each entry it changes, removes or adds; explain each one in
CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from sbobench.analysis import (
    emit_report,
    fit_rules_tree,
    normalize_curves,
    offline_eval,
    replay,
    rule_dataset,
)
from sbobench.core import load_run_logs
from sbobench.harness.cli import main
from sbobench.surrogates.blas import bundled_openblas

MANIFEST = Path(__file__).with_name("golden_manifest.json")
CONFIGURATIONS = {
    "matrix-pipe": ["--max-eval=25", "--rand-evals-all=10", "--seed=1", "--virtual-time",
                    "--jobs=2", "pipe-proxy", "randomsearch", "forest-ucb", "pwl-low",
                    "pwl-high", "rff-local", "pipe-proxy.d=10"],
    "hpo-proxy-noise": ["--max-eval=40", "--rand-evals-all=10", "--seed=2", "--virtual-time",
                        "hpo-proxy", "randomsearch", "forest-ucb",
                        "hpo-proxy.noise_sigma=0.05"],
    "windwake-toy": ["--max-eval=30", "--rand-evals-all=10", "--seed=3", "--virtual-time",
                     "windwake-toy", "randomsearch", "pwl-low"],
    "hpo-proxy-models": ["--max-eval=30", "--rand-evals-all=10", "--seed=4", "--virtual-time",
                         "hpo-proxy", "pwl-high", "rff-local"],
    "hpo-proxy-forest": ["--max-eval=60", "--rand-evals-all=10", "--seed=1", "--virtual-time",
                         "hpo-proxy", "forest-ucb"],
    "criterion-10": ["--repetitions=2", "--max-eval=50", "--rand-evals-all=10", "--seed=3",
                     "--virtual-time", "esp-proxy", "randomsearch", "gp-ucb"],
}
ANALYSED = "criterion-10"  # the configuration whose logs the analysis pipeline reads
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def stamp() -> dict:
    """numpy and scipy versions and the thread count of each bundled OpenBLAS pool."""
    pools = {}
    for path in bundled_openblas():
        lib = ctypes.CDLL(str(path))
        getter = next((getattr(lib, n) for n in _BLAS_GETTERS if hasattr(lib, n)), None)
        if getter is not None:
            getter.restype, getter.argtypes = ctypes.c_int, []
            pools[path.name] = getter()
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas_threads": pools}


def analyse(logs_dir: Path, out: Path) -> None:
    """README's analysis pipeline over the logs in ``logs_dir``; its five reports under ``out``."""
    pairs = load_run_logs(logs_dir)
    logs = [log for log, _ in pairs]
    grid = replay(logs)
    problem = logs[0].problem_id
    emit_report(normalize_curves(logs, R=10), out / "curves.csv")
    emit_report(grid, out / "grid.csv")
    emit_report(fit_rules_tree(*rule_dataset({problem: grid}, {problem: (False, False)})),
                out / "rules.json")
    emit_report(offline_eval(pairs, "forest", train_len=20, seed=3), out / "offline_forest.json")
    emit_report(offline_eval(pairs, "boosted", train_len=20), out / "offline_boosted.json")


def digests(root: Path) -> dict:
    """Run every configuration, then the analysis, under ``root``; sha256 of each
    file written, by relative path."""
    for name, argv in CONFIGURATIONS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([f"--out-path={root / name}", *argv])
        if status != 0:
            raise RuntimeError(f"{name} exited with status {status}")
    analyse(root / ANALYSED, root / f"{ANALYSED}-reports")
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def differences(want: dict, got: dict) -> list[str]:
    """One line per file whose digest differs, that ``got`` lacks, or that only ``got`` has."""
    lines = [f"differs: {name}" for name in sorted(want.keys() & got.keys())
             if want[name] != got[name]]
    lines += [f"missing: {name}" for name in sorted(want.keys() - got.keys())]
    lines += [f"extra: {name}" for name in sorted(got.keys() - want.keys())]
    return lines


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert manifest["configurations"] == CONFIGURATIONS, "configurations changed; run --update"
    problems = differences(manifest["files"], digests(tmp_path))
    assert not problems, "\n".join([
        *problems, "manifest stamp: " + json.dumps(manifest["stamp"], sort_keys=True),
        "this stamp:     " + json.dumps(stamp(), sort_keys=True)])


def update():
    """Rewrite the manifest, printing each entry it changes (``differs``),
    removes (``missing``) or adds (``extra``)."""
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["files"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        files = digests(Path(tmp))
    for line in differences(old, files):
        print(line)
    manifest = {"configurations": CONFIGURATIONS, "stamp": stamp(), "files": files}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(files)} files")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    update()
