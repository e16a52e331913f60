"""Manifest file format, round trips, and corpus correspondence."""

from dataclasses import replace

from helpers import default_manifest, dump_manifest
from sincsum.manifest import (
    CorpusManifest,
    load_default_manifest,
    manifest_check,
    parse_manifest,
)


class TestRoundTrip:
    def test_dump_parse_dump_is_identity(self):
        text = dump_manifest(default_manifest())
        assert dump_manifest(parse_manifest(text)) == text

    def test_checked_in_file_matches_registry(self):
        assert dump_manifest(load_default_manifest()) == dump_manifest(
            default_manifest()
        )


class TestCheck:
    def test_full_manifest_passes(self):
        rep = manifest_check(load_default_manifest())
        assert rep.passed
        assert not rep.orphans_in_manifest
        assert not rep.orphans_in_corpus
        assert not rep.mismatched
        assert rep.equality_worst <= 1e-12

    def test_missing_entry_reported_as_orphan(self):
        manifest = load_default_manifest()
        pruned = CorpusManifest(
            entries=tuple(e for e in manifest.entries if e.id != "sqrt2_sin_lower")
        )
        rep = manifest_check(pruned)
        assert not rep.passed
        assert "sqrt2_sin_lower" in rep.orphans_in_corpus

    def test_unknown_entry_reported(self):
        manifest = load_default_manifest()
        alien = replace(manifest.entries[0], id="not_a_real_entry")
        rep = manifest_check(CorpusManifest(entries=manifest.entries + (alien,)))
        assert not rep.passed
        assert "not_a_real_entry" in rep.orphans_in_manifest

    def test_field_drift_reported(self):
        manifest = load_default_manifest()
        drifted = tuple(
            replace(e, claim="nonpositive") if e.id == "sqrt2_sin_lower" else e
            for e in manifest.entries
        )
        rep = manifest_check(CorpusManifest(entries=drifted))
        assert not rep.passed
        assert any("sqrt2_sin_lower" in m for m in rep.mismatched)

    def test_equality_point_example(self):
        # the right boundary of the basic sine bound: sqrt(2) sin(pi/4) = 1
        manifest = load_default_manifest()
        entry = next(e for e in manifest.entries if e.id == "sqrt2_sin_lower")
        assert 1.0 in entry.equality_points
