"""Golden outputs: what the program printed when the files in
``tests/golden/`` were last written, compared by ``tests/test_golden.py``.

The default ``verify`` report is kept as text.  The two larger outputs,
``verify --seed 7 --trials 12345`` and ``figure --grid 1024`` with every
value as ``float.hex``, are kept as sha256 digests in ``digests.txt``.
After a change that moves numbers on purpose, rewrite the files from the
repository root with

    PYTHONPATH=src python tests/golden_outputs.py

and name them in the change's notes.  The files pin one libm's floats.
"""

import hashlib
from pathlib import Path

from helpers import run_cli
from sincsum import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def verify(*argv: str) -> str:
    """``sincsum verify`` with these flags: its report, which must pass."""
    code, out, err = run_cli(["verify", *argv])
    if (code, err) != (0, ""):
        raise RuntimeError(f"verify {' '.join(argv)} exited {code}: {err}")
    return out


def _figure_hex(grid: int) -> str:
    """The figure's curves, one line per r: r and every value as float.hex."""
    return "".join(
        " ".join([r.hex(), *(y.hex() for y in ys)]) + "\n" for r, _, ys in cli._figure_rows(grid)
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> str:
    return (
        f"{_sha256(verify('--seed', '7', '--trials', '12345'))}  verify --seed 7 --trials 12345\n"
        f"{_sha256(_figure_hex(1024))}  figure --grid 1024, float.hex\n"
    )


#: Each golden file and the function that renders it from the code as it is.
GOLDEN = {"verify_default.json": verify, "digests.txt": digests}

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, render in GOLDEN.items():
        (GOLDEN_DIR / name).write_text(render())
        print(GOLDEN_DIR / name)
