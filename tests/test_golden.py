"""The program's outputs against the golden files in ``tests/golden/``.

A mismatch shows a unified diff of the text (for ``digests.txt``, the
digest line that moved).  ``tests/golden_outputs.py`` says how to rewrite
the files after a deliberate change.
"""

import difflib

import pytest

from golden_outputs import GOLDEN, GOLDEN_DIR


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name):
    want = (GOLDEN_DIR / name).read_text()
    got = GOLDEN[name]()
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True), "golden", "output"
        )
        pytest.fail(f"{name} differs from its golden file:\n{''.join(diff)}")
