//! Records the compiler version and, when built from a git checkout, the
//! revision, so every benchmark output names the build it measured.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Only ask git when the repository root itself is a checkout, so the
    // lookup never walks above the source tree.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let root = Path::new(&manifest).join("..");
    let git_dir = root.join(".git");
    let mut revision = "unknown".to_string();
    if git_dir.exists() {
        if let Some(rev) = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
        {
            revision = rev.trim().to_string();
        }
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        let refs = git_dir.join("refs").join("heads");
        if refs.exists() {
            println!("cargo:rerun-if-changed={}", refs.display());
        }
    }
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={revision}");
    println!("cargo:rerun-if-changed=build.rs");
}
