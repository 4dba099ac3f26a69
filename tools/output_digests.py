"""Print the sha256 of every output a behaviour-preserving change must keep.

    python tools/output_digests.py            # print the digests
    python tools/output_digests.py --write    # record them in the manifest
    python tools/output_digests.py --check    # compare them with the manifest

Runs, in a temporary directory, with the ``bilevelbench`` sources of the
checkout this file sits in:

* ``run_experiment`` on each ``configs/*_slip.cfg``, on
  ``HYPERCLEAN_SMALL``, on ``Q2_BOUNDED`` and on each benchmark workload's
  ``render_configs`` at every seed of ``SEEDS``: one digest per trace CSV
  and per metadata file, the metadata without its ``wall_seconds`` lines;
* the exit code and stdout of ``bilevelbench verify --suite all``;
* the exit code and stdout of ``bilevelbench sweep --config
  configs/q2_theorem_sweep.cfg --eps 0.2,0.02,0.01``, and of the sweep of
  ``Q2_THEOREM42`` at ``--eps 0.65,0.64,0.2,0.02,0.01``.

It prints one JSON object mapping each output's name to its sha256 on
stdout, and the platform facts (the Python and numpy versions and the
OpenBLAS build and core numpy calls) on stderr: float outputs are
byte-identical only on the same BLAS kernel.  Equal objects mean
byte-identical outputs.  ``--write`` records the facts and the digests in
``tools/output_digests.json``, the committed manifest.  ``--check`` reads
the manifest first: on other platform facts it says the manifest is not
comparable and exits 2 without computing anything; otherwise it computes
the digests, names each output whose digest moved, appeared or went, and
exits 1 if there is one, else 0.  ``perfbench/workloads.py`` is loaded by
path and nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "output_digests.json"
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

from bilevelbench import cli, harness  # noqa: E402

SEEDS = (901, 1, 2)

# The 30x3 hypercleaning instance that tests/test_algorithms.py pins by the
# sha256 of its trace, over full and partial metric blocks.  Small shapes
# take other BLAS kernels than the shipped 200x5 instance, so a layout
# change can keep every other digest and still move these bytes.
HYPERCLEAN_SMALL = """[problem]
kind = hyperclean
n_train = 30
n_val = 30
feature_dim = 3
corruption_rate = 0.2
reg = 0.1
seed = 5

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.05
T = 300
T0 = 10

[run]
seeds = 0, 1
x0 = 1.0
y0 = 0.0
z0 = 0.0
"""


# Q2 under the bounded noise model, over SEEDS: the only run here whose
# draws are clipped (about a third of them), so the only digest of the
# oracles' clip branch.
Q2_BOUNDED = """[problem]
kind = quadratic
preset = q2
noise = bounded
sigma_f1 = 0.05
sigma_g1 = 0.05
sigma_g2 = 0.05
sigma_z = 0.05

[algorithm]
name = slip

[schedule]
mode = practical
alpha = 0.1
beta = 0.9
gamma = 0.1
eta = 0.01
T = 300
T0 = 10

[run]
seeds = {seeds}
"""


# configs/q2_theorem_sweep.cfg in the high-probability mode, the only mode
# whose admissibility ceiling reads l_zstar; the ceiling lies between 0.64
# and 0.65, the two largest eps of its sweep.
Q2_THEOREM42 = """[problem]
kind = quadratic
preset = q2
noise = gaussian
sigma_f1 = 0.1
sigma_g1 = 0.1
sigma_g2 = 0.1

[algorithm]
name = slip

[schedule]
mode = theorem42
eps = 0.1
delta = 0.1
delta0 = 1.0
delta_y0 = 1.0
delta_z0 = 1.0

[run]
seeds = 1
"""


def platform_facts() -> dict[str, str]:
    """Python, numpy, and the build and core of the OpenBLAS numpy bundles,
    read through numpy's own extension module (which links it)."""
    facts = {"python": platform.python_version(), "numpy": np.__version__,
             "openblas_config": "unknown", "openblas_core": "unknown"}
    with contextlib.suppress(OSError, AttributeError):
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for key, name in (("openblas_config", "scipy_openblas_get_config64_"),
                          ("openblas_core", "scipy_openblas_get_corename64_")):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            facts[key] = fn().decode().strip()
    return facts


def platform_mismatch(recorded: dict[str, str], facts: dict[str, str]) -> list[str]:
    """One line per platform fact that differs between the manifest's
    ``recorded`` facts and ``facts``; empty when the two are comparable."""
    return [f"{key}: manifest {recorded.get(key)!r}, here {facts.get(key)!r}"
            for key in sorted(recorded.keys() | facts.keys())
            if recorded.get(key) != facts.get(key)]


def moved_outputs(recorded: dict[str, str], digests: dict[str, str]) -> list[str]:
    """One line per output whose digest differs between the manifest's
    ``recorded`` digests and ``digests``, in name order: moved, new (not in
    the manifest) or gone (not computed)."""
    lines = []
    for name in sorted(recorded.keys() | digests.keys()):
        if name not in digests:
            lines.append(f"gone: {name}")
        elif name not in recorded:
            lines.append(f"new: {name}")
        elif recorded[name] != digests[name]:
            lines.append(f"moved: {name}")
    return lines


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _run(cfg_path: Path, out_prefix: Path, name: str, digests: dict) -> None:
    res = harness.run_experiment(harness.parse_config(cfg_path), out_prefix)
    for path in res.trace_paths:
        digests[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    lines = res.metadata_path.read_bytes().splitlines(True)
    meta = b"".join(line for line in lines if b'"wall_seconds":' not in line)
    digests[f"{name}/{res.metadata_path.name}"] = _sha256(meta)


def _cli_digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return _sha256(f"exit {code}\n{buf.getvalue()}".encode())


def output_digests(seeds: tuple[int, ...], work: Path) -> dict[str, str]:
    digests: dict[str, str] = {}
    for cfg_path in sorted((ROOT / "configs").glob("*_slip.cfg")):
        _run(cfg_path, work / cfg_path.stem / "run", f"configs/{cfg_path.name}",
             digests)
    for name, text in (("hyperclean-small", HYPERCLEAN_SMALL),
                       ("q2-bounded", Q2_BOUNDED.format(
                           seeds=", ".join(map(str, seeds))))):
        run_dir = work / name
        run_dir.mkdir()
        (run_dir / "run.cfg").write_text(text)
        _run(run_dir / "run.cfg", run_dir / "run", name, digests)
    wl = _workloads()
    for name, workload in wl.WORKLOADS.items():
        for seed in seeds:
            run_dir = work / name / str(seed)
            run_dir.mkdir(parents=True)
            for label, text in wl.render_configs(workload, seed):
                cfg_path = run_dir / f"{label}.cfg"
                cfg_path.write_text(text)
                _run(cfg_path, run_dir / label, f"{name}/{seed}/{label}", digests)
    digests["verify --suite all"] = _cli_digest(["verify", "--suite", "all"])
    digests["sweep q2_theorem_sweep"] = _cli_digest(
        ["sweep", "--config", str(ROOT / "configs" / "q2_theorem_sweep.cfg"),
         "--eps", "0.2,0.02,0.01"])
    cfg_path = work / "q2_theorem42.cfg"
    cfg_path.write_text(Q2_THEOREM42)
    digests["sweep q2_theorem42"] = _cli_digest(
        ["sweep", "--config", str(cfg_path), "--eps", "0.65,0.64,0.2,0.02,0.01"])
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="record the platform facts and digests in the manifest")
    mode.add_argument("--check", action="store_true",
                      help="compare the digests with the manifest")
    args = parser.parse_args(argv)
    facts = platform_facts()
    print(json.dumps(facts), file=sys.stderr)
    if args.check:
        manifest = json.loads(MANIFEST.read_text())
        mismatch = platform_mismatch(manifest["platform"], facts)
        if mismatch:
            print("the manifest is not comparable: it was made on other platform "
                  "facts", *mismatch, sep="\n")
            return 2
    with tempfile.TemporaryDirectory() as td:
        digests = output_digests(SEEDS, Path(td))
    if args.write:
        MANIFEST.write_text(json.dumps({"platform": facts, "digests": digests},
                                       indent=2) + "\n")
    elif args.check:
        lines = moved_outputs(manifest["digests"], digests)
        if lines:
            print(*lines, sep="\n")
            return 1
        print(f"all {len(digests)} digests match the manifest")
    else:
        print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
