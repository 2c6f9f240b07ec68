//! Workspace smoke test: every example in `examples/` must compile and run
//! to completion. Examples are the documented entry points to the system;
//! a broken one is a broken front door, and nothing else executes them.

use std::path::Path;
use std::process::Command;

/// Run `cargo run --release --example <name>` in the workspace root.
///
/// Each example is a separate release-build subprocess, so re-running
/// them under a single-threaded libtest harness cannot expose any
/// in-process ordering issue — `MOMA_SKIP_EXAMPLE_TESTS=1` lets such
/// re-run legs (CI's serial-harness step) skip the subprocess cost.
fn run_example(name: &str) {
    if std::env::var_os("MOMA_SKIP_EXAMPLE_TESTS").is_some() {
        eprintln!("MOMA_SKIP_EXAMPLE_TESTS set; skipping example {name}");
        return;
    }
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    assert!(
        Path::new(manifest_dir)
            .join("examples")
            .join(format!("{name}.rs"))
            .exists(),
        "example source examples/{name}.rs is missing"
    );
    let output = Command::new(cargo)
        .args(["run", "--release", "--quiet", "--example", name])
        .current_dir(manifest_dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn quickstart() {
    run_example("quickstart");
}

#[test]
fn duplicate_detection() {
    run_example("duplicate_detection");
}

#[test]
fn incremental_matching() {
    run_example("incremental_matching");
}

#[test]
fn workflow_script() {
    run_example("workflow_script");
}

#[test]
fn all_examples_are_covered() {
    // If a new example lands without a smoke test above, fail loudly.
    let covered = [
        "quickstart",
        "duplicate_detection",
        "incremental_matching",
        "workflow_script",
    ];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/ directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let stem = path
                .file_stem()
                .expect("file stem")
                .to_string_lossy()
                .into_owned();
            if !covered.contains(&stem.as_str()) {
                missing.push(stem);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "examples without a smoke test: {missing:?}"
    );
}
