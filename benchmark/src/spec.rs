//! The metric contract: every name the benchmark prints, with unit,
//! direction and (for end-to-end metrics) the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at
//! the repository root states the same table; a unit test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "match_cold",
        "cold DBLPxGS publication match workflow: blocking, tf-idf and similarity kernels do the work, operators almost none",
    ),
    (
        "workflow_ops",
        "iFuice script that only combines stored mappings (nhMatch, compose, merge, select, set ops, cluster): operators and joins do the work, matchers none",
    ),
    (
        "serve_read",
        "one closed-loop connection reading from a 1-shard server: frame, json and engine read path; WAL, checkpoints and router idle",
    ),
    (
        "serve_write",
        "2-shard server with fsynced WAL: closed-loop delta writer beside a paced open-loop reader, across several checkpoint cycles",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one; what the
/// operation is on each workload is in `benchmark/README.md`.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("f1", "ratio", Higher, 0.10),
];

/// Per-layer metrics, measured from outside in the traced pass. A
/// workload reports 0 for a layer it does not enter.
pub const PER_LAYER: [MetricSpec; 83] = [
    layer("datagen.generate_ms", "ms", Lower),
    // --- match_cold --------------------------------------------------
    layer("blocking.index_build_ms", "ms", Lower),
    layer("blocking.candidate_gen_ms", "ms", Lower),
    layer("blocking.candidates", "count", Lower),
    layer("blocking.candidates_per_result", "ratio", Lower),
    layer("tfidf.corpus_build_ms", "ms", Lower),
    layer("tfidf.index_build_ms", "ms", Lower),
    layer("tfidf.candidate_gen_ms", "ms", Lower),
    layer("tfidf.candidates", "count", Lower),
    layer("simstring.score_ms", "ms", Lower),
    layer("simstring.pairs_scored", "count", Lower),
    layer("simstring.ns_per_pair", "ns", Lower),
    layer("matchers.attribute_ms", "ms", Lower),
    layer("matchers.residual_ms", "ms", Lower),
    layer("exec.par_speedup", "ratio", Higher),
    layer("exec.t1_match_s", "s", Lower),
    layer("exec.par_speedup_n2k", "ratio", Higher),
    layer("exec.par_speedup_n8k", "ratio", Higher),
    layer("exec.par_speedup_n32k", "ratio", Higher),
    layer("match.scale_exponent", "ratio", Lower),
    layer("match.s_n2k", "s", Lower),
    layer("match.s_n8k", "s", Lower),
    layer("match.s_n32k", "s", Lower),
    // --- workflow_ops ------------------------------------------------
    layer("ops.compose_ms", "ms", Lower),
    layer("ops.merge_ms", "ms", Lower),
    layer("ops.select_ms", "ms", Lower),
    layer("ops.setops_ms", "ms", Lower),
    layer("ops.cluster_ms", "ms", Lower),
    layer("ops.rows_in", "count", Lower),
    layer("ops.rows_out", "count", Lower),
    layer("ops.rows_per_s", "1/s", Higher),
    layer("table.join_ms", "ms", Lower),
    layer("table.join_rows_per_s", "1/s", Higher),
    layer("table.from_triples_ms", "ms", Lower),
    layer("ifuice.parse_us", "us", Lower),
    layer("ifuice.interp_overhead_ms", "ms", Lower),
    layer("repository.lookup_us", "us", Lower),
    layer("repository.store_us", "us", Lower),
    layer("repository.snapshot_us", "us", Lower),
    // --- serve_read and serve_write ----------------------------------
    layer("frame.read_us", "us", Lower),
    layer("frame.write_us", "us", Lower),
    layer("frame.req_bytes", "bytes", Lower),
    layer("frame.resp_bytes", "bytes", Lower),
    layer("json.parse_us", "us", Lower),
    layer("json.encode_us", "us", Lower),
    layer("json.ns_per_byte", "ns", Lower),
    layer("engine.read_us", "us", Lower),
    layer("engine.batch_item_us", "us", Lower),
    layer("engine.stats_us", "us", Lower),
    layer("server.transport_us", "us", Lower),
    layer("server.transport_share", "ratio", Lower),
    layer("server.failed_share", "ratio", Lower),
    layer("server.refused", "count", Lower),
    // --- serve_write -------------------------------------------------
    layer("server.deltas_sent", "count", Higher),
    layer("server.delta_p50_ms", "ms", Lower),
    layer("server.delta_p99_ms", "ms", Lower),
    layer("server.read_p99_ms", "ms", Lower),
    layer("server.reader_quiet_p50_ms", "ms", Lower),
    layer("server.lock_wait_ms", "ms", Lower),
    layer("server.gen_late_p99_ms", "ms", Lower),
    layer("delta.prime_ms", "ms", Lower),
    layer("delta.apply_ms", "ms", Lower),
    layer("delta.ops_per_delta", "count", Lower),
    layer("delta.full_rematches", "count", Lower),
    layer("protocol.parse_delta_us", "us", Lower),
    layer("engine.apply_ms", "ms", Lower),
    layer("engine.apply_wal_ms", "ms", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.append_batch_us", "us", Lower),
    layer("wal.bytes_per_delta", "bytes", Lower),
    layer("wal.write_amp", "ratio", Lower),
    layer("checkpoint.publish_ms", "ms", Lower),
    layer("checkpoint.bytes", "bytes", Lower),
    layer("checkpoint.count", "count", Higher),
    layer("checkpoint.stall_ms", "ms", Lower),
    layer("engine.recover_ms", "ms", Lower),
    layer("engine.recover_us_per_record", "us", Lower),
    layer("shard.plan_us", "us", Lower),
    layer("shard.fanout", "count", Lower),
    layer("shard.stats_merge_us", "us", Lower),
    // --- the trace itself --------------------------------------------
    layer("trace.spans", "count", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(n, _)| *n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_server::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w));
            assert!(seen.insert(w), "workload name clashes with a metric");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` must state exactly this table.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let arr = |k: &str| doc.get(k).and_then(Json::as_arr).expect(k).to_vec();

        let workloads: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| {
                (
                    w.str_field("name").expect("name").to_owned(),
                    w.str_field("why").expect("why").to_owned(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let check = |key: &str, table: &[MetricSpec]| {
            let got = arr(key);
            assert_eq!(got.len(), table.len(), "{key} length");
            for (j, m) in got.iter().zip(table) {
                assert_eq!(j.str_field("name"), Some(m.name), "{key}");
                assert_eq!(j.str_field("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(j.str_field("better"), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(j.num_field("bound"), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);

        let paths = arr("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let secs = doc.num_field("run_seconds").expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
