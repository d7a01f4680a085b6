//! Counts the program makes while it serves a fixed, seeded history do
//! not depend on timing: two `--quick` runs must agree on them exactly.
//! A later change may then rest a claim on such a count.

use std::path::Path;
use std::process::Command;

/// Runs a traced `--quick` workload from the repository root and returns
/// the named metrics from the result line.
fn metrics(workload: &str, names: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository");
    let out = Command::new(env!("CARGO_BIN_EXE_sdds-benchmark"))
        .args([
            "--workload",
            workload,
            "--quick",
            "--trace",
            "1",
            "--seed",
            "7",
        ])
        .current_dir(root)
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload} run failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    names
        .iter()
        .map(|name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = line.find(&key).unwrap_or_else(|| panic!("{name} reported")) + key.len();
            let value = &line[at..];
            value[..value.find(',').expect("unit follows")].to_string()
        })
        .collect()
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    // a static file: everything the scans and the preload count is exact
    let search = [
        "net.messages_per_op",
        "net.bytes_per_op",
        "lh.scan_fanout_buckets_per_scan",
        "lh.index_probes_per_scan",
        "lh.index_candidates_per_scan",
        "client.search_precision",
        "lh.buckets",
    ];
    let first = metrics("search", &search);
    assert_eq!(first, metrics("search", &search));
    assert!(first.iter().all(|v| v != "0"), "{first:?}");

    // a changing file: splits and merges run beside the clients, so the
    // bucket count and the image a reply carries are not exact, but the
    // number of messages is
    let point = ["net.messages_per_op"];
    let first = metrics("point", &point);
    assert_eq!(first, metrics("point", &point));
    assert!(first.iter().all(|v| v != "0"), "{first:?}");
}
