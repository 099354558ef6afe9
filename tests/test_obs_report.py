"""The HTML run report must be one self-contained file: inline SVG
charts, no scripts, no network fetches, and every manifest string
HTML-escaped on the way in."""

import dataclasses
import re

import pytest

from repro.core import EngineConfig, Reconciler
from repro.datasets import generate_pim_dataset
from repro.obs import (
    FlightRecorder,
    HotspotSketch,
    ProvenanceLog,
    Telemetry,
    Tracer,
    build_manifest,
    render_report,
    write_manifest,
    write_report,
)
from repro.domains import PimDomainModel


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("report_run")
    dataset = generate_pim_dataset("B", scale=0.15)
    log = ProvenanceLog(directory / "provenance.jsonl")
    engine = Reconciler(
        dataset.store,
        PimDomainModel(),
        EngineConfig(),
        observers=[
            Telemetry(tracer=Tracer(), provenance=log),
            FlightRecorder(),
            HotspotSketch(),
        ],
    )
    engine.attach_convergence(dataset.gold.entity_of, every=50)
    result = engine.run()
    manifest = build_manifest(
        dataset=dataset,
        reconciler=engine,
        result=result,
        artifacts={"provenance": "provenance.jsonl"},
    )
    write_manifest(manifest, directory)
    log.close()
    return directory


class TestSelfContained:
    def test_single_file_with_inline_svg(self, run_dir):
        path = write_report(run_dir)
        assert path == run_dir / "report.html"
        html_text = path.read_text()
        assert html_text.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html_text

    def test_no_network_assets_or_scripts(self, run_dir):
        html_text = (run_dir / "report.html").read_text()
        assert not re.search(r"https?://", html_text)
        assert "<script" not in html_text.lower()
        assert "<link" not in html_text.lower()
        assert "@import" not in html_text

    def test_sections_present(self, run_dir):
        html_text = (run_dir / "report.html").read_text()
        for needle in (
            "Quality vs gold",
            "Convergence",
            "Phase timings",
            "Most-contested merge decisions",
            "PIM B",
        ):
            assert needle in html_text, needle

    def test_explicit_output_path(self, run_dir, tmp_path):
        target = tmp_path / "custom.html"
        assert write_report(run_dir, target) == target
        assert target.read_text() == (run_dir / "report.html").read_text()


class TestEscaping:
    def test_hostile_manifest_strings_are_escaped(self, run_dir):
        from repro.obs import load_manifest

        manifest = load_manifest(run_dir)
        manifest["run"]["dataset"] = '<img src=x onerror=alert(1)> & "quotes"'
        html_text = render_report(manifest)
        assert "<img" not in html_text
        assert "&lt;img src=x onerror=alert(1)&gt;" in html_text

    def test_renders_without_provenance(self, run_dir):
        from repro.obs import load_manifest

        manifest = load_manifest(run_dir)
        html_text = render_report(manifest, decisions=None)
        assert "<svg" in html_text

    def test_renders_with_sparse_convergence(self, run_dir):
        from repro.obs import load_manifest

        manifest = load_manifest(run_dir)
        manifest["convergence"] = manifest["convergence"][:1]
        html_text = render_report(manifest)
        assert "<!DOCTYPE html>" in html_text
