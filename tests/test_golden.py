"""Every pinned output is byte-identical to its digest in golden.json."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden.py")
MANIFEST = json.loads(GOLDEN.with_name("golden.json").read_text(
    encoding="utf-8"))


def test_outputs_match_golden_digests():
    # The bytes are pinned for one numpy build on one architecture; under
    # the manifest's environment, other x86 hosts should give them too.
    host = (np.__version__, platform.machine())
    pinned = (MANIFEST["numpy"], MANIFEST["machine"])
    if host != pinned:
        pytest.skip(f"digests pinned on numpy {pinned[0]} on {pinned[1]}, "
                    f"this is numpy {host[0]} on {host[1]}")
    # Both variables are read when numpy loads, so only a new process
    # sees them.
    result = subprocess.run(
        [sys.executable, str(GOLDEN)], capture_output=True, text=True,
        env={**os.environ, **MANIFEST["environment"]}, timeout=600)
    assert result.returncode == 0, result.stderr[-3000:]
    got, want = json.loads(result.stdout), MANIFEST["digests"]
    changed = sorted(key for key in got.keys() | want.keys()
                     if got.get(key) != want.get(key))
    assert not changed, f"{len(changed)} digests differ: {changed}"
