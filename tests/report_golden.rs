//! Golden-file tests pinning the `fusa report` rendering byte-for-byte.
//!
//! The rendered breakdown is part of the reproduction playbook
//! (EXPERIMENTS.md tells readers what to expect from a manifest), so its
//! format is locked here: any intentional change to the renderer must
//! regenerate `tests/data/golden_report.txt` with
//! `fusa report tests/data/golden_manifest.json`.
//!
//! The fixture is a manifest of the current schema, the only one
//! `RunManifest::parse` reads.

use fusa::obs::{render_manifest_report, RunManifest, MANIFEST_SCHEMA};

const GOLDEN_MANIFEST: &str = include_str!("data/golden_manifest.json");
const GOLDEN_REPORT: &str = include_str!("data/golden_report.txt");

#[test]
fn report_rendering_matches_golden_file() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    assert_eq!(render_manifest_report(&manifest), GOLDEN_REPORT);
}

#[test]
fn golden_manifest_round_trips() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    let reparsed = RunManifest::parse(&manifest.to_json()).expect("serialized form parses");
    assert_eq!(reparsed, manifest);
    // Serialization is a fixed point: render(parse(render(m))) == render(m).
    assert_eq!(reparsed.to_json(), manifest.to_json());
    // And the committed fixture IS the serialized form, byte for byte.
    assert_eq!(manifest.to_json(), GOLDEN_MANIFEST);
}

#[test]
fn golden_manifest_summary_fields() {
    let manifest = RunManifest::parse(GOLDEN_MANIFEST).expect("golden manifest parses");
    assert_eq!(manifest.design, "sdram_ctrl");
    assert_eq!(manifest.threads, 8);
    assert!(!manifest.interrupted);
    assert!(manifest.quarantined.is_empty());
    assert!((manifest.top_level_stage_seconds() - 2.3).abs() < 1e-12);
    assert!((manifest.stage_coverage() - 0.92).abs() < 1e-12);
    assert_eq!(manifest.histograms.len(), 3);
    assert_eq!(manifest.build.len(), 4);
    assert!(GOLDEN_MANIFEST.contains(MANIFEST_SCHEMA));
}
