"""The corpus manifest: the registry rendered as a checked-in text file.

``data/corpus_manifest.tsv`` is a flat tab-separated file with a header
line and one line per corpus entry: id, domain endpoints, claim direction,
equality points and a self-contained statement of the inequality.  Floats
are written as ``repr``.  ``manifest_text`` renders the registry in this
format, and ``manifest_check`` compares a manifest with that rendering as
text and checks that every registered equality point achieves
|expression| <= 1e-12.  The file is generated, so after a deliberate
corpus change regenerate it from the repository root with

    PYTHONPATH=src python -c "from sincsum.manifest import manifest_text; print(manifest_text(), end='')" > src/sincsum/data/corpus_manifest.tsv
"""

import math
from dataclasses import dataclass
from importlib import resources

from .verify.certify import CertifiedInequality
from .verify.corpus import corpus
from .verify.interval import Interval

#: Tolerance an equality point must meet when evaluated pointwise.
EQUALITY_TOL = 1e-12

_HEADER = "# id\tdomain_lo\tdomain_hi\tclaim\tequality_points\tstatement\n"


@dataclass(frozen=True)
class ManifestReport:
    passed: bool
    #: unified diff from the manifest to the registry's rendering; "" if equal
    diff: str
    equality_worst: float
    equality_failures: tuple[str, ...]


def _render(entries: list[CertifiedInequality]) -> str:
    return _HEADER + "".join(
        f"{e.id}\t{e.domain.lo!r}\t{e.domain.hi!r}\t{e.claim}\t"
        f"{','.join(map(repr, e.equality_points))}\t{e.description}\n"
        for e in entries
    )


def manifest_text() -> str:
    """The registered corpus as the manifest file's text."""
    return _render(corpus())


def load_default_manifest() -> str:
    """The manifest text checked into the package data."""
    return resources.files("sincsum").joinpath("data/corpus_manifest.tsv").read_text()


def manifest_check(text: str) -> ManifestReport:
    """Compare a manifest's text with the registry's and check its equality points."""
    entries = corpus()
    expected = _render(entries)
    diff = ""
    if text != expected:
        import difflib

        diff = "".join(
            difflib.unified_diff(
                text.splitlines(keepends=True),
                expected.splitlines(keepends=True),
                "manifest",
                "registry",
            )
        )
    equality_failures = []
    equality_worst = 0.0
    for e in entries:
        for p in e.equality_points:
            enc = e.expression(Interval.point(p))
            gap = max(abs(enc.lo), abs(enc.hi))
            equality_worst = max(equality_worst, gap)
            if gap > EQUALITY_TOL or not math.isfinite(gap):
                equality_failures.append(f"{e.id} at x={p!r}: |expr| = {gap:.3e}")
    return ManifestReport(
        passed=not (diff or equality_failures),
        diff=diff,
        equality_worst=equality_worst,
        equality_failures=tuple(equality_failures),
    )
