//! The metric catalog and the two forms a run's result is printed in: a
//! table for people and one JSON line for the driver.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalog_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The metrics of one layer; a metric's full name is `layer.name`.
/// (Kept as a pair, not one dotted literal: dotted literals under the
/// program's own namespaces are reserved for its metric registry, which
/// `sdds-lint` reconciles against `docs/OBSERVABILITY.md`.)
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub layer: &'static str,
    pub metrics: &'static [MetricDef],
}

/// What a user of the store sees, under no layer: wall-clock times, as
/// measured. Every workload reports all of them; which phase of a
/// workload supplies each is in `README.md`. Tail latencies are under
/// the `client` layer: on the shared reference box they do not repeat
/// well enough to carry a bound.
pub const END_TO_END: &[LayerDef] = &[LayerDef {
    layer: "",
    metrics: &[
        lower("setup_s", "s"),
        higher("ops_per_s", "1/s"),
        lower("get_p50_us", "us"),
        lower("insert_p50_us", "us"),
        lower("delete_p50_us", "us"),
        lower("search_p50_ms", "ms"),
    ],
}];

/// Single layers, reported by a traced run. A layer that does no work on
/// a workload reads 0 in the result line and is left out of the table.
pub const PER_LAYER: &[LayerDef] = &[
    // the public API beyond the medians, from the untraced repetition
    LayerDef {
        layer: "client",
        metrics: &[
            lower("get_p99_us", "us"),
            lower("insert_p99_us", "us"),
            lower("search_p95_ms", "ms"),
            lower("open_get_p50_us", "us"),
            lower("open_insert_p50_us", "us"),
            lower("open_delete_p50_us", "us"),
            lower("open_search_p50_ms", "ms"),
            higher("ingest_records_per_s", "1/s"),
            higher("search_precision", "ratio"),
            higher("recovery_records_per_s", "1/s"),
            lower("stored_bytes_per_user_byte", "ratio"),
        ],
    },
    // the Stage 1-3 transform and the query side
    LayerDef {
        layer: "core",
        metrics: &[
            lower("index_records_us_per_record", "us"),
            lower("encrypt_record_us", "us"),
            lower("decrypt_record_us", "us"),
            lower("build_query_us", "us"),
            lower("filter_prepare_us", "us"),
            lower("filter_match_ns_per_record", "ns"),
            lower("combine_ms", "ms"),
            lower("transform_share", "ratio"),
            lower("chunk_us_per_record", "us"),
            lower("encode_us_per_record", "us"),
            lower("disperse_us_per_record", "us"),
            lower("index_bytes_per_user_byte", "ratio"),
            lower("candidates_pruned_per_search", "count"),
        ],
    },
    // the stage crates on their own
    LayerDef {
        layer: "chunk",
        metrics: &[lower("ns_per_chunk", "ns")],
    },
    LayerDef {
        layer: "encode",
        metrics: &[lower("ns_per_chunk", "ns")],
    },
    LayerDef {
        layer: "cipher",
        metrics: &[
            lower("prp_ns_per_chunk", "ns"),
            higher("record_mb_per_s", "MB/s"),
        ],
    },
    LayerDef {
        layer: "disperse",
        metrics: &[lower("ns_per_chunk", "ns")],
    },
    // client legs, scans, file shape, event loops
    LayerDef {
        layer: "lh",
        metrics: &[
            lower("insert_batch_us_per_key", "us"),
            lower("lookup_rtt_us", "us"),
            lower("insert_batch_rtt_us", "us"),
            lower("delete_batch_rtt_us", "us"),
            lower("scan_ms", "ms"),
            lower("scan_bucket_us_mean", "us"),
            lower("scan_gather_ms_mean", "ms"),
            lower("scan_fanout_buckets_per_scan", "count"),
            lower("index_probes_per_scan", "count"),
            lower("index_candidates_per_scan", "count"),
            higher("matches_per_candidate", "ratio"),
            lower("fallback_linear_scans", "count"),
            lower("buckets", "count"),
            lower("splits", "count"),
            lower("forwards_per_request", "ratio"),
            lower("iams", "count"),
            lower("retries", "count"),
            lower("rejected", "count"),
            lower("loop_busy_share", "ratio"),
            higher("drain_batch_mean", "count"),
        ],
    },
    // traffic per operation, and the two fabrics on their own
    LayerDef {
        layer: "net",
        metrics: &[
            lower("messages_per_op", "count"),
            lower("bytes_per_op", "bytes"),
            lower("channel_rtt_us", "us"),
            lower("tcp_rtt_us", "us"),
            lower("frame_encode_ns", "ns"),
            lower("frame_decode_ns", "ns"),
            higher("tcp_frames_per_write", "ratio"),
            lower("tcp_reconnects", "count"),
            lower("send_failures", "count"),
        ],
    },
    LayerDef {
        layer: "storage",
        metrics: &[
            lower("mem_apply_ns_per_op", "ns"),
            lower("wal_append_us_per_batch", "us"),
            lower("fsync_us_mean", "us"),
            lower("fsyncs_per_acked_insert", "ratio"),
            lower("wal_bytes_per_user_byte", "ratio"),
            higher("replay_records_per_s", "1/s"),
            lower("compactions", "count"),
        ],
    },
    // what observing costs
    LayerDef {
        layer: "obs",
        metrics: &[
            lower("trace_overhead_pct", "%"),
            lower("spans_per_op", "count"),
        ],
    },
    // how honest the load generator was
    LayerDef {
        layer: "harness",
        metrics: &[
            lower("max_schedule_lag_ms", "ms"),
            higher("achieved_over_offered", "ratio"),
            lower("unattributed_share", "ratio"),
            lower("cpu_kernel_us", "us"),
        ],
    },
];

fn full_name(layer: &str, metric: &str) -> String {
    if layer.is_empty() {
        metric.to_string()
    } else {
        format!("{layer}.{metric}")
    }
}

/// Full names with their definitions, in catalog order.
pub fn names(defs: &[LayerDef]) -> Vec<(String, MetricDef)> {
    defs.iter()
        .flat_map(|l| l.metrics.iter().map(|m| (full_name(l.layer, m.name), *m)))
        .collect()
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, for the reader; any entry makes the run incorrect.
    pub violations: Vec<String>,
    values: BTreeMap<String, (f64, u64)>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Records `layer.metric` (an end-to-end metric when `layer` is
    /// empty) with the number of samples it rests on. A metric without
    /// samples is one of a layer that did no work: it is not recorded.
    pub fn set(&mut self, layer: &str, metric: &str, value: f64, samples: u64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|l| l.layer == layer && l.metrics.iter().any(|m| m.name == metric)),
            "metric {layer}.{metric} is not in the catalog"
        );
        if samples == 0 {
            return;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.values
            .insert(full_name(layer, metric), (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Every metric of `defs` this run measured, by name, with unit and
    /// sample count.
    pub fn print_table(&self, defs: &[LayerDef]) {
        println!("workload {}", self.workload);
        for (name, d) in names(defs) {
            let Some(&(value, samples)) = self.values.get(&name) else {
                continue;
            };
            let arrow = match d.better {
                Better::Lower => "lower is better",
                Better::Higher => "higher is better",
            };
            println!(
                "  {name:<40} {value:>16.4} {:<6} n={samples:<8} ({arrow})",
                d.unit
            );
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for v in &self.violations {
            println!("  VIOLATION: {v}");
        }
    }

    /// The driver's line: exactly the keys `correct`, `attempted`,
    /// `failed`, `metrics`, and in `metrics` exactly the names of `defs`.
    pub fn json_line(&self, defs: &[LayerDef]) -> String {
        let metrics: Vec<String> = names(defs)
            .iter()
            .map(|(name, d)| {
                let value = self.values.get(name).map_or(0.0, |v| v.0);
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values listed under one key of `BENCHMARK.json`.
    fn names_under<'a>(text: &'a str, key: &str, until: Option<&str>) -> Vec<&'a str> {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let end = until.map_or(text.len(), |u| {
            text.find(&format!("\"{u}\"")).expect("key present")
        });
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |defs| names(defs).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(
            names_under(&text, "end_to_end", Some("per_layer")),
            listed(END_TO_END)
        );
        assert_eq!(names_under(&text, "per_layer", None), listed(PER_LAYER));
        assert_eq!(
            names_under(&text, "workloads", Some("end_to_end")),
            crate::spec::WORKLOADS
        );
        for (name, d) in names(END_TO_END).into_iter().chain(names(PER_LAYER)) {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("point");
        r.attempted = 10;
        r.set("", "setup_s", 0.5, 3);
        r.set("", "ops_per_s", 1234.5678, 10);
        let line = r.json_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"get_p50_us\": {\"value\": 0, \"unit\": \"us\"}"));
        r.failed = 1;
        assert!(r.json_line(END_TO_END).starts_with("{\"correct\": false"));
        r.set("lh", "buckets", 3.0, 1);
        assert!(r
            .json_line(PER_LAYER)
            .contains("\"lh.buckets\": {\"value\": 3, "));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_is_a_bug() {
        Report::new("x").set("lh", "no_such_metric", 1.0, 1);
    }
}
