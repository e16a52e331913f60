"""The corpus manifest: its rendering from the registry and the text check."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sincsum import manifest
from sincsum.manifest import load_default_manifest, manifest_check, manifest_text
from sincsum.verify.corpus import corpus

TSV = Path(manifest.__file__).parent / "data" / "corpus_manifest.tsv"


def _line(entry_id: str) -> str:
    text = manifest_text()
    start = text.index(f"\n{entry_id}\t") + 1
    return text[start : text.index("\n", start) + 1]


def _failing(text: str) -> str:
    rep = manifest_check(text)
    assert not rep.passed
    assert not rep.equality_failures
    return rep.diff


class TestText:
    def test_checked_in_file_is_the_rendering(self):
        assert TSV.read_bytes() == manifest_text().encode()
        assert load_default_manifest() == manifest_text()

    def test_one_line_per_entry(self):
        header, *lines = manifest_text().splitlines()
        assert header.split("\t")[0] == "# id"
        assert [ln.split("\t")[0] for ln in lines] == [e.id for e in corpus()]
        assert {len(ln.split("\t")) for ln in lines} == {6}

    def test_fields_are_reprs(self):
        # the right boundary of the basic sine bound: sqrt(2) sin(pi/4) = 1
        assert _line("sqrt2_sin_lower").split("\t")[:5] == [
            "sqrt2_sin_lower",
            "0.0",
            "1.0",
            "nonnegative",
            "0.0,1.0",
        ]


class TestCheck:
    def test_checked_in_manifest_passes(self):
        rep = manifest_check(load_default_manifest())
        assert rep.passed
        assert rep.diff == ""
        assert rep.equality_failures == ()
        assert 0.0 < rep.equality_worst <= 1e-12

    def test_missing_line(self):
        line = _line("sqrt2_sin_lower")
        diff = _failing(manifest_text().replace(line, ""))
        assert f"\n+{line}" in diff

    def test_unknown_id(self):
        line = _line("sqrt2_sin_lower").replace("sqrt2_sin_lower", "not_a_real_entry")
        diff = _failing(manifest_text() + line)
        assert f"\n-{line}" in diff

    def test_drifted_field(self):
        line = _line("sqrt2_sin_lower")
        drifted = line.replace("nonnegative", "nonpositive")
        diff = _failing(manifest_text().replace(line, drifted))
        assert f"\n-{drifted}" in diff
        assert f"\n+{line}" in diff

    def test_duplicated_line(self):
        line = _line("cos_vs_parabola")
        diff = _failing(manifest_text().replace(line, line + line))
        assert f"\n-{line}" in diff

    def test_bad_equality_point_in_text(self):
        line = _line("near_pair_min_at_half")
        bad = line.replace("\t0.5\t", "\t0.25\t")
        diff = _failing(manifest_text().replace(line, bad))
        assert f"\n-{bad}" in diff

    def test_other_spelling_of_the_same_value(self):
        # the file is generated, so only the rendering's own spelling passes
        line = _line("near_pair_min_at_half")
        diff = _failing(manifest_text().replace(line, line.replace("\t0.5\t", "\t0.50\t")))
        assert "\t0.50\t" in diff

    def test_missing_final_newline(self):
        assert _failing(manifest_text()[:-1])

    def test_bad_equality_point_in_registry(self, monkeypatch):
        entries = [
            replace(e, equality_points=(0.25,)) if e.id == "near_pair_min_at_half" else e
            for e in corpus()
        ]
        monkeypatch.setattr(manifest, "corpus", lambda: entries)
        rep = manifest_check(manifest_text())
        assert not rep.passed
        assert rep.diff == ""
        assert len(rep.equality_failures) == 1
        assert rep.equality_failures[0].startswith("near_pair_min_at_half at x=0.25:")
        assert rep.equality_worst > 1e-12

    @pytest.mark.parametrize("cut, expected", [(0, "True False"), (1, "False True")])
    def test_difflib_imported_only_for_a_diff(self, cut, expected):
        code = (
            "import sys\n"
            "from sincsum.manifest import load_default_manifest, manifest_check\n"
            "text = load_default_manifest()\n"
            f"rep = manifest_check(text[: len(text) - {cut}])\n"
            "print(rep.passed, 'difflib' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == expected
