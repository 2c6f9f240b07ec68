//! Shared pieces of the four workloads: named random streams, the
//! scenario, output checks, mapping checksums and the result record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use moma_core::exec::Parallelism;
use moma_core::Mapping;
use moma_datagen::{Scenario, WorldConfig};

/// Worker threads every matcher, join and engine runs with. Fixed here
/// (and recorded in the output) rather than read from `MOMA_THREADS`.
pub const THREADS: usize = 2;

pub fn par() -> Parallelism {
    Parallelism::new(THREADS)
}

/// Directory for everything a run writes: WAL directories, traces and
/// `result.json`. Inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of the random stream called `name`: derived from `--seed` and
/// the name alone, so adding a stream never perturbs another.
pub fn stream_seed(seed: u64, name: &str) -> u64 {
    let mut z = seed ^ fnv1a(name.bytes());
    // splitmix64 finalizer: spreads nearby seeds apart.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 — all the randomness the request mixes need.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        Rng(stream_seed(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Scenario **P**: the paper-scale world with `seed = --seed`.
pub fn paper_config(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::paper_scale()
    }
}

/// Generate scenario P, returning it with the time generation took.
pub fn generate(seed: u64) -> (Scenario, f64) {
    let t0 = Instant::now();
    let s = Scenario::generate(paper_config(seed));
    (s, t0.elapsed().as_secs_f64())
}

/// FNV-1a over `(domain, range, sim.to_bits())` of every row, in row
/// order, seeded with the row count.
pub fn checksum(m: &Mapping) -> u64 {
    let mut h = fnv1a((m.len() as u64).to_le_bytes());
    for c in m.table.iter() {
        for part in [c.domain as u64, c.range as u64, c.sim.to_bits()] {
            h = fnv1a(h.to_le_bytes().into_iter().chain(part.to_le_bytes()));
        }
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output checks of one run. Each check counts as one attempted
/// operation; operations a workload counts itself (requests, deltas)
/// are added through [`Checks::count_ops`].
pub struct Checks {
    attempted: u64,
    failed: u64,
    /// `--self-test`: the next checksum comparison is given a wrong
    /// expectation, to show that a failed check fails the run.
    sabotage: bool,
}

impl Checks {
    pub fn new(self_test: bool) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            sabotage: self_test,
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if ok {
            println!("check ok    {name}");
        } else {
            self.failed += 1;
            println!("check FAIL  {name}: {}", detail());
        }
    }

    /// Compare two checksums (or any two counts that must be equal).
    pub fn same(&mut self, name: &str, got: u64, want: u64) {
        let want = if std::mem::take(&mut self.sabotage) {
            want ^ 1
        } else {
            want
        };
        self.check(name, got == want, || {
            format!("got {got:#018x}, expected {want:#018x}")
        });
    }

    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// What one run of one workload reports.
pub struct Outcome {
    pub checks: Checks,
    /// Metric name → (value, sample count behind it).
    pub metrics: BTreeMap<&'static str, (f64, u64)>,
}

impl Outcome {
    pub fn new(checks: Checks) -> Self {
        Self {
            checks,
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        self.metrics.insert(name, (value, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;
    use moma_table::MappingTable;

    #[test]
    fn named_streams_are_independent_and_repeatable() {
        assert_eq!(stream_seed(7, "deltas"), stream_seed(7, "deltas"));
        assert_ne!(stream_seed(7, "deltas"), stream_seed(7, "requests"));
        assert_ne!(stream_seed(7, "deltas"), stream_seed(8, "deltas"));
        let (mut a, mut b) = (Rng::new(7, "x"), Rng::new(7, "x"));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let u = a.unit();
            b.unit();
            assert!((0.0..1.0).contains(&u));
            let r = a.range(3, 5);
            b.range(3, 5);
            assert!((3..=5).contains(&r));
        }
    }

    #[test]
    fn checksum_sees_every_field_and_the_order() {
        let mk = |rows: &[(u32, u32, f64)]| {
            let mut table = MappingTable::new();
            for &(d, r, sim) in rows {
                table.push(d, r, sim);
            }
            Mapping::same("m", LdsId(0), LdsId(1), table)
        };
        let base = checksum(&mk(&[(1, 2, 0.5), (3, 4, 0.25)]));
        assert_eq!(base, checksum(&mk(&[(1, 2, 0.5), (3, 4, 0.25)])));
        assert_ne!(base, checksum(&mk(&[(1, 2, 0.5), (3, 4, 0.26)])));
        assert_ne!(base, checksum(&mk(&[(1, 2, 0.5), (4, 3, 0.25)])));
        assert_ne!(base, checksum(&mk(&[(3, 4, 0.25), (1, 2, 0.5)])));
        assert_ne!(base, checksum(&mk(&[(1, 2, 0.5)])));
    }

    #[test]
    fn self_test_fails_exactly_one_check() {
        let mut c = Checks::new(true);
        c.same("first", 5, 5);
        c.same("second", 5, 5);
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        let mut c = Checks::new(false);
        c.same("first", 5, 5);
        c.count_ops(10, 0);
        assert_eq!((c.attempted(), c.failed()), (11, 0));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
