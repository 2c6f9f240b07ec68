//! Atomic engine checkpoints that bound WAL replay on restart.
//!
//! A checkpoint is a directory next to the WAL segments,
//! `checkpoint.<seq, zero-padded to 20>`, holding:
//!
//! * `state.json` — the engine's full logical state (sources, mappings
//!   with exact versions and recipes, matcher definitions, command
//!   counters) as one deterministic JSON document, and
//! * `MARKER` — the last WAL sequence number the state covers plus the
//!   CRC-32 and byte length of `state.json`, so a half-written or
//!   bit-rotted state file is detected and the checkpoint skipped.
//!
//! ## Atomicity
//!
//! [`publish`] stages everything in `checkpoint.tmp/`. The state is
//! written straight into its file — the engine passes
//! [`State::write_image`](crate::state::State::write_image) — and the
//! marker's CRC and length are taken of the bytes as they pass. It
//! fsyncs both files *and* the staged directory, then `rename`s it to
//! its final name and fsyncs the WAL directory. A crash at any point
//! leaves either the previous checkpoints untouched (tmp is ignored and wiped
//! on the next publish) or the new checkpoint fully published — never a
//! half-checkpoint with a valid name. Recovery walks checkpoints newest
//! to oldest and takes the first one whose marker validates, falling
//! back to full replay if none does. The engine prunes only the WAL
//! segments the *second-newest* checkpoint covers (nothing while there
//! is one), so a checkpoint deleted or corrupted out from under the
//! server degrades recovery time but never correctness.
//!
//! `tests/checkpoint_recovery.rs` stages every on-disk state a
//! checkpoint passes through — the rotated segment, the staging
//! directory file by file and byte by byte, the rename, retention and
//! each segment deletion — and recovers each one; `kill9.rs` in the CLI
//! crate SIGKILLs a real server while checkpoints publish.
//!
//! On a sharded server every shard keeps its own checkpoint chain in
//! its own WAL directory (`<wal>/shard.<i>/checkpoint.<seq>/`); the
//! background checkpointer and the `checkpoint` command visit the
//! shards independently, so one shard's checkpoint never blocks
//! another's writes.
//!
//! ## Example
//!
//! ```
//! use moma_server::checkpoint;
//!
//! let dir = std::env::temp_dir().join(format!("moma-ckpt-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//!
//! // Publish a checkpoint covering WAL sequence 42, then find and
//! // load it back, CRC-validated.
//! use std::io::Write;
//! let state = r#"{"mappings":[]}"#;
//! checkpoint::publish(&dir, 42, |out| out.write_all(state.as_bytes()))?;
//! let found = checkpoint::list(&dir)?;
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].seq, 42);
//! let (seq, loaded) = checkpoint::load(&found[0].path).expect("marker validates");
//! assert_eq!((seq, loaded.as_str()), (42, state));
//!
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::wal::{crc32, crc32_extend, fsync_dir};

/// Staging directory name; never treated as a valid checkpoint.
pub const TMP_DIR: &str = "checkpoint.tmp";

/// File holding the engine state JSON inside a checkpoint directory.
pub const STATE_FILE: &str = "state.json";

/// Validation marker file inside a checkpoint directory.
pub const MARKER_FILE: &str = "MARKER";

/// Checkpoint directory name for a WAL sequence number.
pub fn dir_name(seq: u64) -> String {
    format!("checkpoint.{seq:020}")
}

/// Parse a checkpoint directory name back to its sequence number.
pub fn parse_dir_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint.")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A published checkpoint found on disk (not yet validated).
#[derive(Debug, Clone)]
pub struct CheckpointRef {
    /// Last WAL sequence number the checkpoint covers.
    pub seq: u64,
    /// The checkpoint directory.
    pub path: PathBuf,
}

/// List published checkpoints in `wal_dir`, oldest first. The staging
/// directory and anything with a malformed name are ignored.
pub fn list(wal_dir: &Path) -> std::io::Result<Vec<CheckpointRef>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(wal_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_dir_name) {
            if entry.path().is_dir() {
                out.push(CheckpointRef {
                    seq,
                    path: entry.path(),
                });
            }
        }
    }
    out.sort_by_key(|c| c.seq);
    Ok(out)
}

/// Atomically publish a checkpoint covering WAL sequence `seq` whose
/// state document `write` writes. Returns the final checkpoint path.
pub fn publish(
    wal_dir: &Path,
    seq: u64,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<PathBuf> {
    let tmp = wal_dir.join(TMP_DIR);
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    fs::create_dir_all(&tmp)?;

    let mut state = Summed(File::create(tmp.join(STATE_FILE))?, 0, 0);
    write(&mut state)?;
    let Summed(file, crc, len) = state;
    file.sync_all()?;
    let mut marker = File::create(tmp.join(MARKER_FILE))?;
    marker.write_all(format!("seq {seq}\ncrc {crc:08x}\nlen {len}\n").as_bytes())?;
    marker.sync_all()?;
    fsync_dir(&tmp)?;

    let dest = wal_dir.join(dir_name(seq));
    if dest.exists() {
        fs::remove_dir_all(&dest)?;
    }
    fs::rename(&tmp, &dest)?;
    fsync_dir(wal_dir)?;
    Ok(dest)
}

/// The state file being written, and the CRC-32 and the length of what
/// has passed so far. Unbuffered: the engine's writer hands it whole
/// chunks.
struct Summed(File, u32, u64);

impl Write for Summed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.0.write(buf)?;
        self.1 = crc32_extend(self.1, &buf[..n]);
        self.2 += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Load and validate a checkpoint: returns `(seq, state_json)` or a
/// reason the checkpoint must be skipped.
pub fn load(path: &Path) -> Result<(u64, String), String> {
    let marker = fs::read_to_string(path.join(MARKER_FILE))
        .map_err(|e| format!("unreadable marker: {e}"))?;
    let mut seq = None;
    let mut crc = None;
    let mut len = None;
    for line in marker.lines() {
        match line.split_once(' ') {
            Some(("seq", v)) => seq = v.trim().parse::<u64>().ok(),
            Some(("crc", v)) => crc = u32::from_str_radix(v.trim(), 16).ok(),
            Some(("len", v)) => len = v.trim().parse::<u64>().ok(),
            _ => {}
        }
    }
    let (seq, crc, len) = match (seq, crc, len) {
        (Some(s), Some(c), Some(l)) => (s, c, l),
        _ => return Err("malformed marker".into()),
    };
    let mut state = Vec::new();
    File::open(path.join(STATE_FILE))
        .and_then(|mut f| f.read_to_end(&mut state))
        .map_err(|e| format!("unreadable state: {e}"))?;
    if state.len() as u64 != len {
        return Err(format!(
            "state length mismatch: marker says {len}, file has {}",
            state.len()
        ));
    }
    if crc32(&state) != crc {
        return Err("state CRC mismatch".into());
    }
    let state = String::from_utf8(state).map_err(|_| "state is not UTF-8".to_string())?;
    Ok((seq, state))
}

/// Delete all but the `keep` newest checkpoints and any stale staging
/// directory, fsync the WAL directory, and return the survivors oldest
/// first. Keeping more than one means recovery can fall back when the
/// newest checkpoint is lost or corrupt.
pub fn retain_newest(wal_dir: &Path, keep: usize) -> std::io::Result<Vec<CheckpointRef>> {
    let mut all = list(wal_dir)?;
    let tmp = wal_dir.join(TMP_DIR);
    let mut removed = tmp.exists();
    if removed {
        fs::remove_dir_all(&tmp)?;
    }
    while all.len() > keep {
        let victim = all.remove(0);
        fs::remove_dir_all(&victim.path)?;
        removed = true;
    }
    if removed {
        fsync_dir(wal_dir)?;
    }
    Ok(all)
}

/// Remove every checkpoint (and the staging directory) — used when a
/// fresh WAL is created over an old log directory.
pub fn clear_all(wal_dir: &Path) -> std::io::Result<()> {
    for cp in list(wal_dir)? {
        fs::remove_dir_all(&cp.path)?;
    }
    let tmp = wal_dir.join(TMP_DIR);
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moma_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn text(state: &str) -> impl FnOnce(&mut dyn Write) -> io::Result<()> + '_ {
        |out| out.write_all(state.as_bytes())
    }

    #[test]
    fn publish_load_roundtrip_and_retention() {
        let dir = tmp("roundtrip");
        publish(&dir, 5, text("{\"a\":1}")).unwrap();
        publish(&dir, 9, text("{\"a\":2}")).unwrap();
        publish(&dir, 12, text("{\"a\":3}")).unwrap();
        let all = list(&dir).unwrap();
        assert_eq!(all.iter().map(|c| c.seq).collect::<Vec<_>>(), [5, 9, 12]);
        let (seq, state) = load(&all[2].path).unwrap();
        assert_eq!((seq, state.as_str()), (12, "{\"a\":3}"));

        let kept = retain_newest(&dir, 2).unwrap();
        assert_eq!(kept.iter().map(|c| c.seq).collect::<Vec<_>>(), [9, 12]);
        assert!(!dir.join(dir_name(5)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_marker_or_state_is_rejected() {
        let dir = tmp("corrupt");
        let path = publish(&dir, 7, text("important state")).unwrap();

        // Flip one state byte: CRC catches it.
        let state_path = path.join(STATE_FILE);
        let mut bytes = fs::read(&state_path).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&state_path, &bytes).unwrap();
        assert!(load(&path).unwrap_err().contains("CRC"));

        // Truncate the marker: malformed.
        fs::write(path.join(MARKER_FILE), "seq 7\n").unwrap();
        assert!(load(&path).unwrap_err().contains("malformed"));

        // A leftover staging dir is never listed as a checkpoint.
        fs::create_dir_all(dir.join(TMP_DIR)).unwrap();
        assert_eq!(list(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
