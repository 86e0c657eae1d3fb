"""Golden outputs: a fixed matrix of small runs keeps its recorded bytes.

See ``golden_outputs.py`` for the matrix, the table and how to regenerate
it.  Nothing here skips: on a numerical stack whose fingerprint differs
from the recorded one, the stored references are compared at 1e-12
relative instead of the digests.
"""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from snapspec import load_tensor

from golden_outputs import (GRIDS, REFERENCES, TRACE_REFERENCES, chain_outputs, cli_chain,
                            digest, file_digest, fingerprint, grid_outputs, load_references,
                            load_table)

REL = 1e-12


@pytest.mark.parametrize("grid", list(GRIDS))
def test_outputs_match_golden_table(grid):
    table = load_table()
    outputs = grid_outputs(grid)
    recorded = table["digests"][grid]
    assert sorted(outputs) == sorted(recorded)
    exact = fingerprint() == table["fingerprint"]
    if exact:
        moved = [name for name, value in recorded.items() if digest(outputs[name]) != value]
        assert not moved, "%d of %d outputs moved on %s: %s" % (
            len(moved), len(recorded), grid, ", ".join(moved[:8]))
    # the references: their bytes under the recorded fingerprint, else 1e-12
    # relative to each cube's largest entry and to each trace value
    rel = 0.0 if exact else REL
    refs = load_references(grid)
    for name in REFERENCES:
        err = np.max(np.abs(outputs[name] - refs[name]))
        assert err <= rel * np.max(np.abs(refs[name])), (name, err)
    for name in TRACE_REFERENCES:
        np.testing.assert_allclose(outputs[name], refs[name], rtol=rel, atol=0, err_msg=name)


def test_golden_references_match_their_digests():
    # the stored references are the bytes that the digests record
    table = load_table()
    for grid in GRIDS:
        for name, ref in load_references(grid).items():
            assert digest(ref) == table["digests"][grid][name], (grid, name)


def test_cli_chain_matches_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = cli_chain()
    table = load_table()
    recorded = table["cli_chain"]["files"]
    assert files == sorted(recorded)
    if fingerprint() == table["fingerprint"] and \
            zlib.ZLIB_RUNTIME_VERSION == table["cli_chain"]["zlib"]:
        moved = [name for name, value in recorded.items() if file_digest(name) != value]
        assert not moved, "%d of %d chain files moved: %s" % (
            len(moved), len(recorded), ", ".join(moved))
    # on any stack: each manifest's hashes are those of the files beside it
    manifests = [name for name in files if name.endswith(".manifest.json")]
    assert len(manifests) == 4
    for name in manifests:
        manifest = json.loads(Path(name).read_text())
        for path, value in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert path in files and file_digest(path) == value, (name, path)
    # and the chain's arrays are the library's in-process outputs
    # (cubes relative to their largest entry, each trace value to itself)
    for name, want in chain_outputs().items():
        if name.endswith(".htns"):
            err = np.max(np.abs(load_tensor(name) - want))
            assert err <= REL * np.max(np.abs(want)), (name, err)
        else:
            np.testing.assert_allclose(np.loadtxt(name, delimiter=",", skiprows=1, ndmin=2),
                                       want, rtol=REL, atol=0, err_msg=name)
