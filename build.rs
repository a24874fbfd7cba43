//! Captures build/toolchain provenance as compile-time env vars for the
//! run manifest's `build` section. Every probe is best-effort: a missing
//! tool yields an empty string, which the CLI omits from the manifest.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    println!("cargo:rustc-env=FUSA_RUSTC_VERSION={version}");
    println!(
        "cargo:rustc-env=FUSA_TARGET={}",
        std::env::var("TARGET").unwrap_or_default()
    );
    println!(
        "cargo:rustc-env=FUSA_OPT_LEVEL={}",
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    println!("cargo:rustc-env=FUSA_GIT_COMMIT={commit}");
    // HEAD changes on a checkout; a commit on a branch moves only the
    // branch's ref file, or `packed-refs` once `git pack-refs` packed it.
    // cargo reruns this script on every build while a watched path is
    // missing, so `packed-refs` is watched only when it exists.
    println!("cargo:rerun-if-changed=.git/HEAD");
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    if let Some(branch_ref) = head.strip_prefix("ref: ") {
        println!("cargo:rerun-if-changed=.git/{}", branch_ref.trim());
    }
    if std::path::Path::new(".git/packed-refs").exists() {
        println!("cargo:rerun-if-changed=.git/packed-refs");
    }
}
