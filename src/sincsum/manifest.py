"""Machine-readable manifest tying the corpus registry to the repository.

The manifest is a flat tab-separated text file, one record per corpus
entry: id, domain endpoints, claim direction, equality points, and a
self-contained statement of the inequality.  ``manifest_check`` asserts a
one-to-one correspondence with the registered corpus and that every listed
equality point actually achieves |expression| <= 1e-12.
"""

import math
from dataclasses import dataclass
from importlib import resources

from .errors import DomainError
from .verify.corpus import corpus
from .verify.interval import Interval

#: Tolerance an equality point must meet when evaluated pointwise.
EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    domain_lo: float
    domain_hi: float
    claim: str
    equality_points: tuple[float, ...]
    statement: str


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class ManifestReport:
    passed: bool
    orphans_in_manifest: tuple[str, ...]
    orphans_in_corpus: tuple[str, ...]
    mismatched: tuple[str, ...]
    equality_worst: float
    equality_failures: tuple[str, ...]


def parse_manifest(text: str) -> CorpusManifest:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise DomainError(f"manifest line {lineno}: expected 6 fields, got {len(parts)}")
        eq = tuple(float(p) for p in parts[4].split(",")) if parts[4] else ()
        entries.append(
            ManifestEntry(
                id=parts[0],
                domain_lo=float(parts[1]),
                domain_hi=float(parts[2]),
                claim=parts[3],
                equality_points=eq,
                statement=parts[5],
            )
        )
    return CorpusManifest(entries=tuple(entries))


def load_default_manifest() -> CorpusManifest:
    """Load the manifest file checked into the package data."""
    text = (
        resources.files("sincsum").joinpath("data/corpus_manifest.tsv").read_text()
    )
    return parse_manifest(text)


def manifest_check(manifest: CorpusManifest) -> ManifestReport:
    """Cross-check the manifest against the registered corpus."""
    registry = {e.id: e for e in corpus()}
    seen = {}
    orphans_in_manifest = []
    mismatched = []
    equality_failures = []
    equality_worst = 0.0

    for entry in manifest.entries:
        if entry.id in seen:
            mismatched.append(f"{entry.id}: duplicated in manifest")
            continue
        seen[entry.id] = entry
        reg = registry.get(entry.id)
        if reg is None:
            orphans_in_manifest.append(entry.id)
            continue
        if (
            reg.domain.lo != entry.domain_lo
            or reg.domain.hi != entry.domain_hi
            or reg.claim != entry.claim
            or reg.equality_points != entry.equality_points
            or reg.description != entry.statement
        ):
            mismatched.append(f"{entry.id}: fields differ from registry")
            continue
        for p in entry.equality_points:
            enc = reg.expression(Interval.point(p))
            gap = max(abs(enc.lo), abs(enc.hi))
            equality_worst = max(equality_worst, gap)
            if gap > EQUALITY_TOL or not math.isfinite(gap):
                equality_failures.append(f"{entry.id} at x={p!r}: |expr| = {gap:.3e}")

    orphans_in_corpus = sorted(set(registry) - set(seen))
    passed = not (
        orphans_in_manifest or orphans_in_corpus or mismatched or equality_failures
    )
    return ManifestReport(
        passed=passed,
        orphans_in_manifest=tuple(sorted(orphans_in_manifest)),
        orphans_in_corpus=tuple(orphans_in_corpus),
        mismatched=tuple(mismatched),
        equality_worst=equality_worst,
        equality_failures=tuple(equality_failures),
    )
