"""Golden digests: the sha256 of the program's outputs, pinned in golden.json.

    python tests/golden.py            print the digests as JSON
    python tests/golden.py --write    rewrite golden.json

The bytes of a float output depend on the host's BLAS core and on numpy's
SIMD dispatch, so the digests are taken under ENVIRONMENT, which the BLAS
and numpy read once, when numpy loads.  Run without it, this script runs
itself again with it set.  `test_golden.py` compares a fresh run against
the manifest; a change that means to alter an output rewrites the manifest
and names each changed entry.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
ENVIRONMENT = {
    "OPENBLAS_CORETYPE": "Sandybridge",
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}
# CLI outputs besides `simulate`'s, each a command line and the files it
# writes, named by the words "{out}", "{csv}" and "{svg}" in it.
_COMMANDS = {
    "verify all --seed 0 --n 2000":
        ["verify", "all", "--seed", "0", "--n", "2000", "--out", "{out}"],
    "verify all --seed 7": ["verify", "all", "--seed", "7", "--out", "{out}"],
    "field l-shape --resolution 50":
        ["field", "l-shape", "--resolution", "50", "--out", "{out}"],
    "field revolving-door --resolution 1 --time 1.3":
        ["field", "revolving-door", "--resolution", "1", "--time", "1.3",
         "--out", "{out}"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(argv, workdir: Path) -> dict:
    """{output word: digest} of the files one CLI call writes."""
    from polycbf.cli import main

    outputs = {word: workdir / word.strip("{}") for word in argv
               if word in ("{out}", "{csv}", "{svg}")}
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(outputs.get(word, word)) for word in argv])
    if code != 0:
        raise RuntimeError(f"polycbf {' '.join(argv)} exited with {code}")
    return {word.strip("{}"): _sha256(path.read_bytes())
            for word, path in outputs.items()}


def digests() -> dict:
    """{entry: sha256} of every pinned output."""
    import numpy as np
    from polycbf.scenarios import BUILTIN_NAMES, builtin
    from polycbf.sim import run
    from test_barrier import kernel_digest

    out = {}
    for name in BUILTIN_NAMES:
        scenario = builtin(name)
        for i, x0 in enumerate(scenario.all_starts()):
            result = run(scenario,
                         dataclasses.replace(scenario.default_sim, x0=x0))
            for field in dataclasses.fields(result):
                value = getattr(result, field.name)
                if isinstance(value, np.ndarray):
                    header = f"{value.dtype.str}{value.shape}".encode()
                    out[f"run {name} start {i} {field.name}"] = _sha256(
                        header + np.ascontiguousarray(value).tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        commands = {f"simulate {name} --csv --svg":
                    ["simulate", name, "--csv", "{csv}", "--svg", "{svg}"]
                    for name in BUILTIN_NAMES}
        for label, argv in {**commands, **_COMMANDS}.items():
            for word, digest in _cli_digests(argv, Path(tmp)).items():
                out[label if word == "out" else f"{label} {word}"] = digest
    out["kernel_digest()"] = kernel_digest()
    return out


def main(argv) -> int:
    if any(os.environ.get(key) != value for key, value in ENVIRONMENT.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, **ENVIRONMENT})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    got = digests()
    if argv != ["--write"]:
        print(json.dumps(got, indent=1, sort_keys=True))
        return 0
    manifest = {"numpy": np.__version__, "machine": platform.machine(),
                "environment": ENVIRONMENT, "digests": got}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(got)} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
