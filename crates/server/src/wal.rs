//! Append-only, CRC-framed, fsync'd, **segmented** write-ahead delta log.
//!
//! Every state-mutating command the server accepts (`match`, `compose`,
//! `delta`) is appended to the WAL **before** it is applied, and the
//! record is `fsync`'d before the client sees a response — an
//! acknowledged command is durable. On restart with `--replay`, the log
//! is decoded up to its last valid record and the commands are
//! re-executed in order; because every engine operation is deterministic
//! (parallel execution merges shard results in input order, PR 3), the
//! replayed repository is **bit-identical** to the pre-crash state.
//!
//! ## Segments
//!
//! The log lives in a directory as numbered segment files
//! (`wal.000001.log`, `wal.000002.log`, …). Sequence numbers are
//! **global**: they continue across segment boundaries, so the
//! concatenation of all segments is one contiguous record stream. The
//! active (highest-numbered) segment receives appends; once it exceeds
//! the [`RotationPolicy`] byte/record budget it is sealed and a new
//! segment is started. Sealed segments whose records are all covered by
//! a checkpoint can be deleted ([`Wal::prune_covered`]), which is what
//! bounds restart time (see `checkpoint.rs`).
//!
//! ## Record layout
//!
//! ```text
//! [payload_len: u32 LE][crc32: u32 LE][seq: u64 LE][payload bytes]
//! ```
//!
//! `crc32` (IEEE, reflected 0xEDB88320) covers the `seq` field plus the
//! payload, so neither a flipped payload byte nor a corrupted sequence
//! number survives decoding. Sequence numbers must advance by exactly 1
//! per record across the whole segment chain.
//!
//! ## Replay semantics
//!
//! [`Wal::scan`] walks the segments in order and stops at the **first**
//! invalid record — a truncated header or payload (torn tail write from
//! a crash), a CRC mismatch, an oversized length, or a sequence number
//! that is not `previous + 1`. Everything before the stop point is
//! returned; [`Wal::open`] then truncates the stop segment back to its
//! valid prefix, deletes any later (untrustworthy) segments, and
//! positions appends after the last good record. A crash can only tear
//! the *tail* of the stream: rotation fsyncs the sealed segment before
//! the next one is created, and the directory itself is fsync'd after
//! every create/rotate/delete so acknowledged records survive a crash
//! of the filesystem metadata too.
//!
//! ## Failed appends
//!
//! [`Wal::append`] tracks the durable byte offset of the active
//! segment. If a write or fsync fails mid-record, the file is truncated
//! back to the durable offset (so the half-written, *unacknowledged*
//! record can never collide with the next append's sequence number); if
//! even that rollback fails, the WAL poisons itself and refuses further
//! appends rather than risk a corrupt stream.
//!
//! ## Sharding
//!
//! A sharded server (`moma serve --shards N`) runs one WAL per shard in
//! sibling directories `<wal>/shard.0` … `<wal>/shard.N-1`; each is a
//! completely independent log with its own sequence space, checkpoints
//! and rotation, and recovery replays them independently (see
//! `docs/DURABILITY.md`).
//!
//! ## Example
//!
//! ```
//! use moma_server::wal::{RotationPolicy, Wal};
//!
//! let dir = std::env::temp_dir().join(format!("moma-wal-doc-{}", std::process::id()));
//! let mut wal = Wal::create(&dir, RotationPolicy::default())?;
//! assert_eq!(wal.append(br#"{"cmd":"delta"}"#)?, 1);
//! assert_eq!(wal.append(br#"{"cmd":"match"}"#)?, 2);
//!
//! // A scan decodes the whole stream back, CRC-checked, in order.
//! let scan = Wal::scan(&dir)?;
//! assert_eq!((scan.first_seq(), scan.last_seq()), (1, 2));
//!
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Largest accepted record payload (matches the frame protocol bound).
pub const MAX_RECORD: usize = crate::frame::MAX_FRAME;

/// Fixed per-record header size: `len + crc + seq`.
pub const RECORD_HEADER: usize = 4 + 4 + 8;

/// Default rotation budget: seal the active segment at 8 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC-32 of the bytes `crc` was taken of, followed by `data`.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !crc;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `fsync` a directory so renames/creates/deletes inside it are durable.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic sequence number (first record of a fresh log is 1).
    pub seq: u64,
    /// The logged command payload (JSON bytes).
    pub payload: Vec<u8>,
}

/// Result of decoding one segment image.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The valid record prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (where appends should resume).
    pub valid_len: u64,
    /// Bytes after the valid prefix that were discarded.
    pub dropped_bytes: u64,
    /// Why decoding stopped before EOF, if it did.
    pub stop_reason: Option<String>,
}

/// Encode one record.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_RECORD, "payload exceeds MAX_RECORD");
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body);
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode a segment image whose first record must carry sequence number
/// 1 (a fresh, single-segment log). See [`decode_records_from`].
pub fn decode_records(bytes: &[u8]) -> ReplayOutcome {
    decode_records_from(bytes, Some(1))
}

/// Decode a segment image into its valid record prefix (see module docs
/// for the stop rules). `first_seq` pins the sequence number the first
/// record must carry; `None` accepts whatever the first (CRC-valid)
/// record claims — used to bootstrap the first surviving segment after
/// earlier segments were pruned by a checkpoint.
pub fn decode_records_from(bytes: &[u8], first_seq: Option<u64>) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_seq = first_seq;
    let mut stop_reason = None;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER) else {
            stop_reason = Some(format!(
                "truncated header at offset {pos} ({} bytes left)",
                bytes.len() - pos
            ));
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            stop_reason = Some(format!("oversized record ({len} bytes) at offset {pos}"));
            break;
        }
        let body_start = pos + 8; // seq + payload are CRC-covered
        let Some(body) = bytes.get(body_start..body_start + 8 + len) else {
            stop_reason = Some(format!("truncated payload at offset {pos}"));
            break;
        };
        if crc32(body) != crc {
            stop_reason = Some(format!("CRC mismatch at offset {pos}"));
            break;
        }
        let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        if seq == 0 {
            stop_reason = Some(format!("invalid sequence number 0 at offset {pos}"));
            break;
        }
        if let Some(expected) = expected_seq {
            if seq != expected {
                stop_reason = Some(format!(
                    "sequence break at offset {pos}: got {seq}, expected {expected}"
                ));
                break;
            }
        }
        records.push(WalRecord {
            seq,
            payload: body[8..].to_vec(),
        });
        expected_seq = Some(seq + 1);
        pos += RECORD_HEADER + len;
    }
    ReplayOutcome {
        records,
        valid_len: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
        stop_reason,
    }
}

/// When to seal the active segment and start a new one. A budget of
/// `u64::MAX` disables that dimension.
#[derive(Debug, Clone, Copy)]
pub struct RotationPolicy {
    /// Seal after this many records.
    pub max_records: u64,
    /// Seal once the segment holds at least this many bytes.
    pub max_bytes: u64,
}

impl Default for RotationPolicy {
    fn default() -> Self {
        RotationPolicy {
            max_records: u64::MAX,
            max_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Segment file name for `index` (`wal.000042.log`).
pub fn segment_file_name(index: u64) -> String {
    format!("wal.{index:06}.log")
}

/// Parse a segment file name back to its index.
pub fn parse_segment_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// List the segment files in `dir`, sorted by index. A missing or empty
/// directory is an empty log.
pub fn list_segment_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_index) {
            out.push((idx, entry.path()));
        }
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out)
}

/// Per-segment decode result of a [`Wal::scan`].
#[derive(Debug, Clone)]
pub struct SegmentScan {
    /// Segment index (from the file name).
    pub index: u64,
    /// Segment file path.
    pub path: PathBuf,
    /// Valid records decoded from this segment.
    pub records: u64,
    /// Byte length of the valid record prefix.
    pub valid_len: u64,
    /// Sequence number of the last valid record (0 if the segment holds
    /// none).
    pub last_seq: u64,
}

/// Where segment decoding stopped before the end of the chain.
#[derive(Debug, Clone)]
pub struct WalStop {
    /// Index of the segment the stop occurred in.
    pub segment: u64,
    /// Human-readable stop reason.
    pub reason: String,
}

/// Read-only decode of an entire WAL directory ([`Wal::scan`]).
#[derive(Debug, Clone)]
pub struct WalScan {
    /// All valid records across all segments, in sequence order.
    pub records: Vec<WalRecord>,
    /// Per-segment decode results, in index order. Segments after a
    /// stop are listed with zero decoded records.
    pub segments: Vec<SegmentScan>,
    /// Set if decoding stopped before the end of the last segment.
    pub stop: Option<WalStop>,
    /// Bytes past the valid prefix (torn tail + later segments).
    pub dropped_bytes: u64,
}

impl WalScan {
    /// Sequence number of the first decoded record (0 if none).
    pub fn first_seq(&self) -> u64 {
        self.records.first().map(|r| r.seq).unwrap_or(0)
    }

    /// Sequence number of the last decoded record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq).unwrap_or(0)
    }
}

/// A sealed (no longer written) segment tracked by an open [`Wal`].
#[derive(Debug, Clone)]
struct SealedSegment {
    path: PathBuf,
    records: u64,
    last_seq: u64,
}

/// An open, segmented write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_path: PathBuf,
    /// Records in the active segment.
    seg_records: u64,
    /// Durable byte length of the active segment; failed appends roll
    /// back to this offset.
    durable_len: u64,
    next_seq: u64,
    policy: RotationPolicy,
    sealed: Vec<SealedSegment>,
    poisoned: Option<String>,
    #[cfg(test)]
    fail_next: Option<FailAppend>,
}

/// Test-only fault injection for [`Wal::append`].
#[cfg(test)]
#[derive(Debug)]
pub enum FailAppend {
    /// Write only the first `n` bytes of the record, then fail.
    ShortWrite(usize),
    /// Write the whole record but fail the fsync.
    SyncFail,
}

impl Wal {
    /// Create a fresh log directory (removing any existing segments)
    /// with one empty active segment. The directory entry is fsync'd so
    /// the log survives a crash right after creation.
    pub fn create(dir: impl AsRef<Path>, policy: RotationPolicy) -> std::io::Result<Wal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for (_, path) in list_segment_files(&dir)? {
            std::fs::remove_file(&path)?;
        }
        Wal::start_segment(dir, policy, 1, 1, Vec::new())
    }

    fn start_segment(
        dir: PathBuf,
        policy: RotationPolicy,
        seg_index: u64,
        next_seq: u64,
        sealed: Vec<SealedSegment>,
    ) -> std::io::Result<Wal> {
        let seg_path = dir.join(segment_file_name(seg_index));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&seg_path)?;
        file.sync_all()?;
        fsync_dir(&dir)?;
        Ok(Wal {
            dir,
            file,
            seg_index,
            seg_path,
            seg_records: 0,
            durable_len: 0,
            next_seq,
            policy,
            sealed,
            poisoned: None,
            #[cfg(test)]
            fail_next: None,
        })
    }

    /// Decode every segment in `dir` without modifying anything on
    /// disk. Recovery first scans, then decides which checkpoint to
    /// restore from, then calls [`Wal::open`] to repair and resume.
    pub fn scan(dir: impl AsRef<Path>) -> std::io::Result<WalScan> {
        let dir = dir.as_ref();
        let files = list_segment_files(dir)?;
        let mut records = Vec::new();
        let mut segments = Vec::new();
        let mut stop = None;
        let mut dropped_bytes = 0u64;
        // The first surviving segment's first record pins the stream
        // start (earlier segments may have been pruned by a checkpoint);
        // every later record must be contiguous.
        let mut expected: Option<u64> = None;
        for (index, path) in files {
            if stop.is_some() {
                // Segments after a stop are untrustworthy; report them
                // so `open` can delete them.
                dropped_bytes += std::fs::metadata(&path)?.len();
                segments.push(SegmentScan {
                    index,
                    path,
                    records: 0,
                    valid_len: 0,
                    last_seq: 0,
                });
                continue;
            }
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let out = decode_records_from(&bytes, expected);
            dropped_bytes += out.dropped_bytes;
            if let Some(last) = out.records.last() {
                expected = Some(last.seq + 1);
            }
            segments.push(SegmentScan {
                index,
                path,
                records: out.records.len() as u64,
                valid_len: out.valid_len,
                last_seq: out.records.last().map(|r| r.seq).unwrap_or(0),
            });
            if let Some(reason) = out.stop_reason {
                stop = Some(WalStop {
                    segment: index,
                    reason,
                });
            }
            records.extend(out.records);
        }
        Ok(WalScan {
            records,
            segments,
            stop,
            dropped_bytes,
        })
    }

    /// Open the log for appending after a [`Wal::scan`]: truncate the
    /// stop segment (if any) back to its valid prefix, delete any later
    /// segments, and resume the sequence after the last valid record —
    /// or after `base_seq` (the restored checkpoint's sequence number)
    /// when no records survive at all.
    pub fn open(
        dir: impl AsRef<Path>,
        policy: RotationPolicy,
        scan: &WalScan,
        base_seq: u64,
    ) -> std::io::Result<Wal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let next_seq = scan.last_seq().max(base_seq) + 1;
        if scan.segments.is_empty() {
            return Wal::start_segment(dir, policy, 1, next_seq, Vec::new());
        }
        // The active segment is where decoding stopped (everything after
        // it is deleted), or the last segment of a clean chain.
        let active_pos = match &scan.stop {
            Some(stop) => scan
                .segments
                .iter()
                .position(|s| s.index == stop.segment)
                .expect("stop segment is part of the scan"),
            None => scan.segments.len() - 1,
        };
        let mut deleted = false;
        for seg in &scan.segments[active_pos + 1..] {
            std::fs::remove_file(&seg.path)?;
            deleted = true;
        }
        let active = &scan.segments[active_pos];
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&active.path)?;
        if std::fs::metadata(&active.path)?.len() != active.valid_len {
            file.set_len(active.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(active.valid_len))?;
        if deleted {
            fsync_dir(&dir)?;
        }
        let sealed = scan.segments[..active_pos]
            .iter()
            .map(|s| SealedSegment {
                path: s.path.clone(),
                records: s.records,
                last_seq: s.last_seq,
            })
            .collect();
        Ok(Wal {
            dir,
            file,
            seg_index: active.index,
            seg_path: active.path.clone(),
            seg_records: active.records,
            durable_len: active.valid_len,
            next_seq,
            policy,
            sealed,
            poisoned: None,
            #[cfg(test)]
            fail_next: None,
        })
    }

    /// Append one record and `fsync` it; returns the record's sequence
    /// number. The record is durable when this returns. On failure the
    /// active segment is rolled back to its durable length, so the next
    /// append reuses the same sequence number; if the rollback itself
    /// fails the WAL poisons itself and refuses all further appends.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        if let Some(reason) = &self.poisoned {
            return Err(std::io::Error::other(format!("WAL is poisoned: {reason}")));
        }
        self.maybe_rotate()?;
        let seq = self.next_seq;
        let rec = encode_record(seq, payload);
        if let Err(e) = self.write_record(&rec) {
            self.rollback_to_durable(&e);
            return Err(e);
        }
        self.durable_len += rec.len() as u64;
        self.seg_records += 1;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Append `payloads` as one group commit: each record carries its
    /// own (consecutive) sequence number, but the whole batch lands in a
    /// single `write` + `fsync`, so N operations pay one disk round
    /// trip. The on-disk byte stream is identical to N individual
    /// [`Wal::append`] calls — replay cannot tell them apart. Returns
    /// the sequence number of the *first* record (the last is
    /// `first + payloads.len() - 1`).
    ///
    /// All-or-nothing: on failure the active segment rolls back to its
    /// durable length and every sequence number is reused, exactly like
    /// a failed single append.
    pub fn append_batch(&mut self, payloads: &[&[u8]]) -> std::io::Result<u64> {
        if payloads.is_empty() {
            return Err(std::io::Error::other("append_batch: empty batch"));
        }
        if let Some(reason) = &self.poisoned {
            return Err(std::io::Error::other(format!("WAL is poisoned: {reason}")));
        }
        // Rotate once up front: the batch stays inside one segment, so
        // a torn tail can only truncate its suffix, never split it
        // across a segment boundary.
        self.maybe_rotate()?;
        let first = self.next_seq;
        let total: usize = payloads.iter().map(|p| RECORD_HEADER + p.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for (i, payload) in payloads.iter().enumerate() {
            buf.extend_from_slice(&encode_record(first + i as u64, payload));
        }
        if let Err(e) = self.write_record(&buf) {
            self.rollback_to_durable(&e);
            return Err(e);
        }
        self.durable_len += buf.len() as u64;
        self.seg_records += payloads.len() as u64;
        self.next_seq += payloads.len() as u64;
        Ok(first)
    }

    fn write_record(&mut self, rec: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(fail) = self.fail_next.take() {
            return match fail {
                FailAppend::ShortWrite(n) => {
                    self.file.write_all(&rec[..n.min(rec.len())])?;
                    let _ = self.file.sync_data();
                    Err(std::io::Error::other("injected short write"))
                }
                FailAppend::SyncFail => {
                    self.file.write_all(rec)?;
                    Err(std::io::Error::other("injected fsync failure"))
                }
            };
        }
        self.file.write_all(rec)?;
        self.file.sync_data()
    }

    /// After a failed append: drop whatever partial bytes the failed
    /// write may have left past the durable offset.
    fn rollback_to_durable(&mut self, cause: &std::io::Error) {
        let result = self
            .file
            .set_len(self.durable_len)
            .and_then(|_| self.file.seek(SeekFrom::Start(self.durable_len)))
            .and_then(|_| self.file.sync_data());
        if let Err(e) = result {
            self.poisoned = Some(format!(
                "append failed ({cause}) and rollback to offset {} failed ({e})",
                self.durable_len
            ));
        }
    }

    fn maybe_rotate(&mut self) -> std::io::Result<()> {
        if self.seg_records >= self.policy.max_records || self.durable_len >= self.policy.max_bytes
        {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seal the active segment and start a new one (no-op while the
    /// active segment is empty). The sealed segment and the directory
    /// entry of the new one are fsync'd before any append lands in it,
    /// so only the *last* segment can ever hold a torn record.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        if self.seg_records == 0 {
            return Ok(());
        }
        self.file.sync_all()?;
        let next_index = self.seg_index + 1;
        let next_path = self.dir.join(segment_file_name(next_index));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&next_path)?;
        file.sync_all()?;
        fsync_dir(&self.dir)?;
        self.sealed.push(SealedSegment {
            path: std::mem::replace(&mut self.seg_path, next_path),
            records: self.seg_records,
            last_seq: self.next_seq - 1,
        });
        self.file = file;
        self.seg_index = next_index;
        self.seg_records = 0;
        self.durable_len = 0;
        Ok(())
    }

    /// Delete sealed segments whose records are all `<= seq` (covered
    /// by a checkpoint). Only a contiguous prefix of sealed segments is
    /// removed — the stream stays gap-free — and the directory entry is
    /// fsync'd after the deletes. Returns how many segments were
    /// removed.
    pub fn prune_covered(&mut self, seq: u64) -> std::io::Result<usize> {
        let covered = self
            .sealed
            .iter()
            .take_while(|s| s.records == 0 || s.last_seq <= seq)
            .count();
        if covered == 0 {
            return Ok(0);
        }
        for seg in self.sealed.drain(..covered) {
            std::fs::remove_file(&seg.path)?;
        }
        fsync_dir(&self.dir)?;
        Ok(covered)
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended or replayed record.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The log's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Why the WAL refuses appends, if it is poisoned.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    #[cfg(test)]
    fn fail_next_append(&mut self, fail: FailAppend) {
        self.fail_next = Some(fail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moma_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn no_rotation() -> RotationPolicy {
        RotationPolicy {
            max_records: u64::MAX,
            max_bytes: u64::MAX,
        }
    }

    fn reopen(dir: &Path) -> (Wal, WalScan) {
        let scan = Wal::scan(dir).unwrap();
        let wal = Wal::open(dir, no_rotation(), &scan, 0).unwrap();
        (wal, scan)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        for cut in 0..=9 {
            let (head, tail) = b"123456789".split_at(cut);
            assert_eq!(crc32_extend(crc32(head), tail), 0xCBF4_3926);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut log = Vec::new();
        for (i, payload) in [&b"alpha"[..], b"", b"{\"cmd\":\"delta\"}"]
            .iter()
            .enumerate()
        {
            log.extend_from_slice(&encode_record(i as u64 + 1, payload));
        }
        let out = decode_records(&log);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.stop_reason, None);
        assert_eq!(out.dropped_bytes, 0);
        assert_eq!(out.valid_len, log.len() as u64);
        assert_eq!(out.records[2].payload, b"{\"cmd\":\"delta\"}");
    }

    #[test]
    fn decode_from_accepts_claimed_first_seq() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(41, b"a"));
        log.extend_from_slice(&encode_record(42, b"b"));
        let out = decode_records_from(&log, None);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].seq, 41);
        // With a pinned first seq, a different claim is a stream break.
        let out = decode_records_from(&log, Some(1));
        assert_eq!(out.records.len(), 0);
        assert!(out.stop_reason.unwrap().contains("sequence break"));
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = tmp("torn");
        {
            let mut wal = Wal::create(&dir, no_rotation()).unwrap();
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.last_seq(), 2);
        }
        // Simulate a torn write: half a record at the tail.
        let torn = &encode_record(3, b"three")[..9];
        let seg = dir.join(segment_file_name(1));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(torn).unwrap();
        drop(f);

        let (mut wal, scan) = reopen(&dir);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.dropped_bytes, torn.len() as u64);
        assert!(scan.stop.is_some());
        // Appends resume after the valid prefix with the right seq.
        assert_eq!(wal.append(b"three-again").unwrap(), 3);
        let (_, scan2) = reopen(&dir);
        assert_eq!(scan2.records.len(), 3);
        assert!(scan2.stop.is_none());
        assert_eq!(scan2.records[2].payload, b"three-again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_an_empty_log() {
        let dir = tmp("missing");
        let scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.records.len(), 0);
        let wal = Wal::open(&dir, no_rotation(), &scan, 0).unwrap();
        assert_eq!(wal.next_seq(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_preserves_global_sequence() {
        let dir = tmp("rotate");
        let policy = RotationPolicy {
            max_records: 3,
            max_bytes: u64::MAX,
        };
        let mut wal = Wal::create(&dir, policy).unwrap();
        for i in 1..=10u64 {
            assert_eq!(wal.append(format!("r{i}").as_bytes()).unwrap(), i);
        }
        assert_eq!(wal.segment_count(), 4); // 3+3+3+1
        let scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert!(scan.stop.is_none());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
        }
        // Reopen keeps appending in the last segment with the next seq.
        drop(wal);
        let scan = Wal::scan(&dir).unwrap();
        let mut wal = Wal::open(&dir, policy, &scan, 0).unwrap();
        assert_eq!(wal.append(b"r11").unwrap(), 11);
        assert_eq!(Wal::scan(&dir).unwrap().records.len(), 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_middle_segment_drops_later_segments() {
        let dir = tmp("midtear");
        let policy = RotationPolicy {
            max_records: 2,
            max_bytes: u64::MAX,
        };
        {
            let mut wal = Wal::create(&dir, policy).unwrap();
            for i in 1..=6u64 {
                wal.append(format!("r{i}").as_bytes()).unwrap();
            }
        }
        // Corrupt the tail of segment 2 (records 3 and 4).
        let seg2 = dir.join(segment_file_name(2));
        let len = std::fs::metadata(&seg2).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg2)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (mut wal, scan) = reopen(&dir);
        assert_eq!(scan.records.len(), 3, "record 4 torn, 5 and 6 dropped");
        assert!(scan.stop.is_some());
        // Segment 3 was untrustworthy and is gone; appends resume at 4.
        assert!(!dir.join(segment_file_name(3)).exists());
        assert_eq!(wal.append(b"r4-again").unwrap(), 4);
        let scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.stop.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_reuses_seq() {
        let dir = tmp("shortwrite");
        let mut wal = Wal::create(&dir, no_rotation()).unwrap();
        wal.append(b"one").unwrap();

        // A short write leaves partial bytes on disk; the rollback must
        // erase them so the retry's sequence number is not a duplicate.
        wal.fail_next_append(FailAppend::ShortWrite(9));
        let err = wal.append(b"two").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(wal.next_seq(), 2, "failed append must not consume a seq");
        assert!(wal.poisoned().is_none());
        assert_eq!(wal.append(b"two-retry").unwrap(), 2);

        // A failed fsync is also rolled back: the record was never
        // acknowledged, so it must not survive.
        wal.fail_next_append(FailAppend::SyncFail);
        wal.append(b"three").unwrap_err();
        assert_eq!(wal.append(b"three-retry").unwrap(), 3);

        drop(wal);
        let (_, scan) = reopen(&dir);
        assert!(scan.stop.is_none(), "{:?}", scan.stop);
        let payloads: Vec<&[u8]> = scan.records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, [&b"one"[..], b"two-retry", b"three-retry"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_is_byte_identical_to_singles() {
        let dir_b = tmp("batch");
        let dir_s = tmp("batch_singles");
        let payloads: [&[u8]; 3] = [b"{\"cmd\":\"delta\",\"n\":1}", b"two", b""];
        let mut batched = Wal::create(&dir_b, no_rotation()).unwrap();
        assert_eq!(batched.append(b"prefix").unwrap(), 1);
        assert_eq!(batched.append_batch(&payloads).unwrap(), 2);
        assert_eq!(batched.last_seq(), 4);
        let mut singles = Wal::create(&dir_s, no_rotation()).unwrap();
        singles.append(b"prefix").unwrap();
        for p in payloads {
            singles.append(p).unwrap();
        }
        let seg_b = std::fs::read(dir_b.join(segment_file_name(1))).unwrap();
        let seg_s = std::fs::read(dir_s.join(segment_file_name(1))).unwrap();
        assert_eq!(seg_b, seg_s, "group commit must not change the byte stream");
        // The batch is also visible to a scan as 3 ordinary records.
        drop(batched);
        let (_, scan) = reopen(&dir_b);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.last_seq(), 4);
        let _ = std::fs::remove_dir_all(&dir_b);
        let _ = std::fs::remove_dir_all(&dir_s);
    }

    #[test]
    fn failed_batch_append_rolls_back_and_reuses_all_seqs() {
        let dir = tmp("batch_fail");
        let mut wal = Wal::create(&dir, no_rotation()).unwrap();
        wal.append(b"one").unwrap();

        // Tear the batch mid-way: nothing from it may survive and every
        // sequence number must be reused by the retry.
        wal.fail_next_append(FailAppend::ShortWrite(25));
        let err = wal.append_batch(&[b"a", b"b", b"c"]).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(wal.next_seq(), 2, "failed batch must not consume seqs");
        assert!(wal.poisoned().is_none());
        assert_eq!(wal.append_batch(&[b"a2", b"b2", b"c2"]).unwrap(), 2);

        drop(wal);
        let (_, scan) = reopen(&dir);
        assert!(scan.stop.is_none(), "{:?}", scan.stop);
        let payloads: Vec<&[u8]> = scan.records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, [&b"one"[..], b"a2", b"b2", b"c2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_rotates_before_not_inside_the_batch() {
        let dir = tmp("batch_rotate");
        let policy = RotationPolicy {
            max_records: 2,
            max_bytes: u64::MAX,
        };
        let mut wal = Wal::create(&dir, policy).unwrap();
        wal.append(b"r1").unwrap();
        wal.append(b"r2").unwrap();
        // The active segment is full: the batch seals it first, then
        // lands whole in the fresh segment (even though it overflows the
        // per-segment record budget on its own).
        assert_eq!(wal.append_batch(&[b"b1", b"b2", b"b3"]).unwrap(), 3);
        assert_eq!(wal.segment_count(), 2);
        let scan = Wal::scan(&dir).unwrap();
        assert!(scan.stop.is_none());
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.segments[1].records, 3, "batch lives in one segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_covered_removes_only_sealed_covered_prefix() {
        let dir = tmp("prune");
        let policy = RotationPolicy {
            max_records: 2,
            max_bytes: u64::MAX,
        };
        let mut wal = Wal::create(&dir, policy).unwrap();
        for i in 1..=7u64 {
            wal.append(format!("r{i}").as_bytes()).unwrap();
        }
        assert_eq!(wal.segment_count(), 4); // [1,2][3,4][5,6][7]
        assert_eq!(wal.prune_covered(3).unwrap(), 1, "only [1,2] covered");
        assert_eq!(wal.segment_count(), 3);
        assert_eq!(wal.prune_covered(7).unwrap(), 2, "active never pruned");
        assert_eq!(wal.segment_count(), 1);
        // The surviving suffix still scans cleanly from its claimed seq.
        drop(wal);
        let scan = Wal::scan(&dir).unwrap();
        assert!(scan.stop.is_none());
        assert_eq!(scan.first_seq(), 7);
        assert_eq!(scan.last_seq(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_with_base_seq_resumes_after_checkpoint() {
        // All segments pruned (fully covered): the sequence resumes
        // from the checkpoint's seq, not from 1.
        let dir = tmp("baseseq");
        std::fs::create_dir_all(&dir).unwrap();
        let scan = Wal::scan(&dir).unwrap();
        let mut wal = Wal::open(&dir, no_rotation(), &scan, 41).unwrap();
        assert_eq!(wal.append(b"42nd").unwrap(), 42);
        let scan = Wal::scan(&dir).unwrap();
        assert_eq!(scan.first_seq(), 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
