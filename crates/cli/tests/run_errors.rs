//! `moma run` reports what it cannot run as an error (exit 1, `error:`
//! on stderr) — it does not panic.

use std::path::Path;
use std::process::Command;

fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write fixture");
    path.to_string_lossy().into_owned()
}

/// A script naming a 0-gram measure used to load, and the process
/// panicked in the tokenizer at the first pair scored; a malformed
/// `year:` tolerance was read as `year:0`.
#[test]
fn zero_length_qgrams_are_refused_by_the_cli() {
    let dir = std::env::temp_dir().join(format!("moma-cli-qgram0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture directory");
    let dblp = write(
        &dir,
        "dblp.tsv",
        "#source Publication@DBLP\nid\ttitle:text\nd1\tGeneric Schema Matching with Cupid\n",
    );
    let acm = write(
        &dir,
        "acm.tsv",
        "#source Publication@ACM\nid\ttitle:text\na1\tGeneric schema matching with CUPID\n",
    );
    for sim in [
        "qgram:0",
        "qgramjaccard:0",
        "qgramcosine:0",
        "qgramoverlap:0",
        "year:x",
        "year:-1",
        "year:1.5",
    ] {
        let script = write(
            &dir,
            "match.ifs",
            &format!(
                "RETURN attrMatch(DBLP.Publication, ACM.Publication, \"{sim}\", 0.5, \"[title]\", \"[title]\");\n"
            ),
        );
        let run = Command::new(env!("CARGO_BIN_EXE_moma"))
            .args(["run", &script, "--source", &dblp, "--source", &acm])
            .output()
            .expect("moma runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{sim}: {stderr}");
        let expected = format!("unknown similarity function `{sim}`");
        assert!(
            stderr.contains("error: ") && stderr.contains(&expected),
            "{sim}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{sim}: {stderr}");
    }
    // The same script with a real gram length runs.
    let script = write(
        &dir,
        "match.ifs",
        "RETURN attrMatch(DBLP.Publication, ACM.Publication, \"qgram:2\", 0.5, \"[title]\", \"[title]\");\n",
    );
    let run = Command::new(env!("CARGO_BIN_EXE_moma"))
        .args(["run", &script, "--source", &dblp, "--source", &acm])
        .output()
        .expect("moma runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stdout).contains("d1\ta1"));
    std::fs::remove_dir_all(&dir).ok();
}
