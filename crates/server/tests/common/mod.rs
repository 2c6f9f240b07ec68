//! Helpers shared by the serve-path integration tests (and by the CLI
//! crate's `kill9.rs`, which includes this file by path): scratch
//! directories, the generated registry the servers boot from, and the
//! byte-for-byte comparison of two dumped states.

#![allow(dead_code)] // each test binary uses its own subset

use std::fs;
use std::path::{Path, PathBuf};

use moma_datagen::{Scenario, WorldConfig};
use moma_model::SourceRegistry;
use moma_server::{protocol, Engine, Json};

/// The small generated scenario (seed 99) the end-to-end tests serve.
pub fn scenario_registry() -> SourceRegistry {
    let mut cfg = WorldConfig::small();
    cfg.seed = 99;
    Scenario::generate(cfg).registry
}

/// A fresh, empty scratch directory for `tag`, unique to this process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moma_test_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Recursively read a directory into sorted (relative-path, bytes) pairs.
pub fn dir_contents(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// Assert two persisted dumps are byte-identical.
pub fn assert_dumps_identical(a_dir: &Path, b_dir: &Path) {
    let a = dir_contents(a_dir);
    let b = dir_contents(b_dir);
    assert!(!a.is_empty());
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "dump file sets differ"
    );
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "dump file `{name}` differs");
    }
}

/// Persist `eng`'s state into `dir`.
pub fn dump_to(eng: &Engine, dir: &Path) {
    let resp = eng.execute_read(&protocol::dump_request(dir.to_str().unwrap()));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
}

/// Copy the tree at `src` into `dst`.
pub fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("mkdir dst");
    for entry in fs::read_dir(src).expect("read_dir src") {
        let entry = entry.expect("dir entry");
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to);
        } else {
            fs::copy(&from, &to).expect("copy file");
        }
    }
}
