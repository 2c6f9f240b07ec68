//! Deterministic sharded execution.
//!
//! MOMA's hot paths — attribute-matcher probing, mapping-table joins,
//! trigram-index construction — all decompose the same way: split one
//! input sequence into contiguous shards, process every shard
//! independently against shared read-only state, and concatenate the
//! per-shard results *in shard order*. Because shards are contiguous
//! input ranges and the merge order is fixed, the concatenated output is
//! bit-identical to a sequential run no matter how many threads execute
//! the shards or how they interleave. That guarantee is what lets the
//! parallel paths share every determinism test with the sequential ones.
//!
//! The scheduler is intentionally work-stealing-free: one plain
//! [`std::thread::scope`] worker per shard. MOMA's
//! shards are statically balanced (equal-size input ranges), so the
//! simplicity buys determinism without losing meaningful utilization.

/// Parallel-execution configuration threaded through matchers and index
/// construction.
///
/// `threads == 1` (or an input smaller than two minimum shards) means the
/// work runs inline on the calling thread — the sequential code path,
/// with zero spawn overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum number of worker threads (1 = sequential).
    pub threads: usize,
    /// Lower bound on the average shard length: an input is never split
    /// into more than `items / min_shard_size` shards, and inputs shorter
    /// than two minimum shards run sequentially.
    pub min_shard_size: usize,
}

/// Environment variable overriding the default thread count
/// (`Parallelism::from_env`). `MOMA_THREADS=1` forces sequential
/// execution; `MOMA_THREADS=8` caps workers at 8.
pub const THREADS_ENV: &str = "MOMA_THREADS";

/// Default minimum shard size: below ~64 items per shard, spawn overhead
/// dominates any scoring or probing win.
pub const DEFAULT_MIN_SHARD: usize = 64;

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Parallelism {
    /// Sequential execution (one thread, no spawning).
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            min_shard_size: DEFAULT_MIN_SHARD,
        }
    }

    /// Execution with an explicit thread cap (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            min_shard_size: DEFAULT_MIN_SHARD,
        }
    }

    /// One thread per available CPU.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Thread count from the `MOMA_THREADS` environment variable, falling
    /// back to [`Parallelism::auto`] when unset. An unparsable value also
    /// falls back to auto, with a warning on stderr — silently honoring a
    /// typo would make e.g. `MOMA_THREADS=one` run fully parallel while
    /// the user believes they forced the sequential path.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => Self::new(n),
                Err(_) => {
                    // Contexts call `from_env` freely; warn only once.
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: {THREADS_ENV}=`{v}` is not a thread count; \
                             using one thread per CPU"
                        );
                    });
                    Self::auto()
                }
            },
            Err(_) => Self::auto(),
        }
    }

    /// Override the minimum shard size (builder style).
    pub fn with_min_shard_size(mut self, min_shard_size: usize) -> Self {
        self.min_shard_size = min_shard_size.max(1);
        self
    }

    /// Whether this configuration can ever spawn worker threads.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Number of shards an input of `items` elements is split into:
    /// `1` when sequential or when the input is too small, otherwise at
    /// most `threads` and at most `items / min_shard_size`, so the
    /// average shard holds at least `min_shard_size` items (the final
    /// remainder shard may be shorter).
    pub fn shard_count(&self, items: usize) -> usize {
        let min = self.min_shard_size.max(1);
        if self.threads <= 1 || items < 2 * min {
            return 1;
        }
        self.threads.min((items / min).max(1))
    }

    /// Split `items` into contiguous shards, map every shard with `f`
    /// (possibly on worker threads probing shared read-only state), and
    /// return the per-shard results **in input order**. Concatenating the
    /// results therefore reproduces the sequential output exactly.
    pub fn run_sharded<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let shards = self.shard_count(items.len());
        if shards <= 1 {
            return vec![f(items)];
        }
        let chunk = items.len().div_ceil(shards);
        let f = &f;
        std::thread::scope(|scope| {
            let workers: Vec<_> = items
                .chunks(chunk)
                .map(|shard| scope.spawn(move || f(shard)))
                .collect();
            let joined = workers.into_iter().map(|w| w.join());
            joined.map(|r| r.expect("exec worker panicked")).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_never_shards() {
        let p = Parallelism::sequential();
        assert_eq!(p.shard_count(1_000_000), 1);
        assert!(!p.is_parallel());
    }

    #[test]
    fn zero_threads_clamped() {
        assert_eq!(Parallelism::new(0).threads, 1);
    }

    #[test]
    fn small_inputs_stay_sequential() {
        let p = Parallelism::new(8);
        assert_eq!(p.shard_count(0), 1);
        assert_eq!(p.shard_count(2 * DEFAULT_MIN_SHARD - 1), 1);
        assert!(p.shard_count(2 * DEFAULT_MIN_SHARD) > 1);
    }

    #[test]
    fn shard_count_respects_min_shard() {
        let p = Parallelism::new(16).with_min_shard_size(10);
        // 45 items / min 10 -> at most 4 shards even with 16 threads,
        // keeping the average shard at or above the 10-item minimum.
        assert_eq!(p.shard_count(45), 4);
        assert_eq!(p.shard_count(1_000), 16);
        // The average shard never drops below min_shard_size.
        for items in [20usize, 45, 129, 1_000] {
            let shards = p.shard_count(items);
            assert!(items / shards >= 10, "items={items} shards={shards}");
        }
    }

    #[test]
    fn run_sharded_preserves_order() {
        let items: Vec<u32> = (0..1_000).collect();
        for threads in [1usize, 2, 3, 8] {
            let p = Parallelism::new(threads).with_min_shard_size(1);
            let shards = p.run_sharded(&items, |s| s.to_vec());
            let flat: Vec<u32> = shards.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn run_sharded_empty_input() {
        let p = Parallelism::new(4);
        let out = p.run_sharded(&[] as &[u32], |s| s.len());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn from_env_parses() {
        // Can't mutate the environment safely in tests running in
        // parallel; just check the fallback path produces >= 1 thread.
        assert!(Parallelism::from_env().threads >= 1);
        assert!(Parallelism::auto().threads >= 1);
    }
}
