//! End-to-end rule tests: every rule fires on its seeded `bad.rs`
//! fixture, stays silent on its `clean.rs` counterpart, respects scope
//! and the `lint: allow` escape hatch — and the workspace itself lints
//! clean (the self-check CI relies on).

use sdds_lint::{find_workspace_root, lint_files, lint_workspace, Report};
use std::path::Path;

/// Reads `tests/fixtures/<rule>/<which>` from this crate.
fn fixture(rule: &str, which: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(which);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Lints one fixture as though it lived at `rel_path` in the workspace.
fn lint_as(rel_path: &str, content: &str) -> Report {
    let mut r = Report::default();
    r.lint_source(rel_path, content);
    r
}

fn count_rule(r: &Report, rule: &str) -> usize {
    r.violations.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn secret_hygiene_fires_on_bad_fixture() {
    let r = lint_as(
        "crates/cipher/src/fixture.rs",
        &fixture("secret-hygiene", "bad.rs"),
    );
    // derive(Debug) on a key-bearing struct, println!, format!(key),
    // and a key identifier in an sdds-obs call
    assert!(
        count_rule(&r, "secret-hygiene") >= 4,
        "expected >=4 secret-hygiene findings, got: {:?}",
        r.violations
    );
    assert!(r
        .violations
        .iter()
        .all(|d| d.rule == "secret-hygiene" && d.line > 0));
}

#[test]
fn secret_hygiene_clean_fixture_passes() {
    let r = lint_as(
        "crates/cipher/src/fixture.rs",
        &fixture("secret-hygiene", "clean.rs"),
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn determinism_fires_on_bad_fixture() {
    let r = lint_as(
        "crates/chunk/src/fixture.rs",
        &fixture("determinism", "bad.rs"),
    );
    assert_eq!(
        count_rule(&r, "determinism"),
        2,
        "cbc_encrypt and cbc_decrypt should each fire: {:?}",
        r.violations
    );
}

#[test]
fn determinism_clean_fixture_passes() {
    let r = lint_as(
        "crates/chunk/src/fixture.rs",
        &fixture("determinism", "clean.rs"),
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn determinism_is_scoped_to_the_index_path() {
    // the same CBC call outside the Stage-1 index path is fine
    let r = lint_as(
        "crates/net/src/fixture.rs",
        &fixture("determinism", "bad.rs"),
    );
    assert_eq!(count_rule(&r, "determinism"), 0, "{:?}", r.violations);
}

/// A clock read, a sleep and a timed receive in LH* protocol code fire;
/// the allowed request-loop line and test code do not, and the site runtime is
/// out of scope.
#[test]
fn determinism_fires_on_a_clock_in_lh_protocol_code() {
    let clock = fixture("determinism", "clock.rs");
    let r = lint_as("crates/lh/src/fixture.rs", &clock);
    assert_eq!(count_rule(&r, "determinism"), 3, "{:?}", r.violations);
    assert_eq!(r.allowed.len(), 1, "{:?}", r.allowed);
    let r = lint_as("crates/lh/src/runtime.rs", &clock);
    assert_eq!(count_rule(&r, "determinism"), 0, "{:?}", r.violations);
}

#[test]
fn unsafe_audit_fires_on_bad_fixture_and_inventories_both() {
    let bad = lint_as("src/fixture.rs", &fixture("unsafe-audit", "bad.rs"));
    assert_eq!(count_rule(&bad, "unsafe-audit"), 1, "{:?}", bad.violations);
    assert_eq!(bad.unsafe_inventory.len(), 1);
    assert!(!bad.unsafe_inventory[0].has_safety);

    let clean = lint_as("src/fixture.rs", &fixture("unsafe-audit", "clean.rs"));
    assert!(clean.is_clean(), "unexpected: {:?}", clean.violations);
    // discharged unsafe still shows up in the audit surface
    assert_eq!(clean.unsafe_inventory.len(), 1);
    assert!(clean.unsafe_inventory[0].has_safety);
}

#[test]
fn panic_freedom_fires_on_bad_fixture() {
    let r = lint_as(
        "crates/gf/src/fixture.rs",
        &fixture("panic-freedom", "bad.rs"),
    );
    // one unwrap() and one panic!
    assert_eq!(count_rule(&r, "panic-freedom"), 2, "{:?}", r.violations);
}

#[test]
fn panic_freedom_clean_fixture_passes_with_test_unwrap() {
    // clean.rs deliberately unwraps inside #[cfg(test)] — exempt
    let r = lint_as(
        "crates/gf/src/fixture.rs",
        &fixture("panic-freedom", "clean.rs"),
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn panic_freedom_is_scoped_to_library_crates() {
    let r = lint_as(
        "crates/bench/src/main.rs",
        &fixture("panic-freedom", "bad.rs"),
    );
    assert_eq!(count_rule(&r, "panic-freedom"), 0, "{:?}", r.violations);
}

#[test]
fn atomics_rationale_fires_on_bad_fixture() {
    let r = lint_as(
        "crates/net/src/fixture.rs",
        &fixture("atomics-rationale", "bad.rs"),
    );
    assert_eq!(count_rule(&r, "atomics-rationale"), 1, "{:?}", r.violations);
}

#[test]
fn atomics_rationale_clean_fixture_passes() {
    let r = lint_as(
        "crates/net/src/fixture.rs",
        &fixture("atomics-rationale", "clean.rs"),
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn allow_annotation_suppresses_but_stays_audited() {
    let src = "pub fn f(s: &str) -> u32 {\n    // lint: allow(panic-freedom) -- demo\n    s.parse().unwrap()\n}\n";
    let r = lint_as("crates/gf/src/fixture.rs", src);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    assert_eq!(r.allowed.len(), 1);
    assert_eq!(r.allowed[0].rule, "panic-freedom");

    // the annotation only covers the named rule
    let wrong = src.replace("panic-freedom", "determinism");
    let r = lint_as("crates/gf/src/fixture.rs", &wrong);
    assert_eq!(count_rule(&r, "panic-freedom"), 1);
}

#[test]
fn json_report_is_machine_readable() {
    let r = lint_as(
        "crates/chunk/src/fixture.rs",
        &fixture("determinism", "bad.rs"),
    );
    let json = r.to_json();
    for key in [
        "\"version\"",
        "\"files_scanned\"",
        "\"violations\"",
        "\"allowed\"",
        "\"unsafe_inventory\"",
        "\"rule\": \"determinism\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}

#[test]
fn protocol_coverage_fires_on_bad_fixture() {
    let codec = fixture("protocol-coverage", "messages.rs");
    let bad = fixture("protocol-coverage", "bad.rs");
    let r = lint_files(
        &[
            ("crates/lh/src/messages.rs", codec.as_str()),
            ("crates/lh/src/bucket.rs", bad.as_str()),
        ],
        None,
    );
    assert_eq!(count_rule(&r, "protocol-coverage"), 2, "{:?}", r.violations);
    // the unhandled send anchors at the variant declaration in the codec
    assert!(r.violations.iter().any(|d| d.rule == "protocol-coverage"
        && d.file == "crates/lh/src/messages.rs"
        && d.message.contains("Orphan")));
    // the dead arm anchors at the handler site in the event loop
    assert!(r.violations.iter().any(|d| d.rule == "protocol-coverage"
        && d.file == "crates/lh/src/bucket.rs"
        && d.message.contains("Ghost")));
}

#[test]
fn protocol_coverage_clean_fixture_passes_and_matrix_is_total() {
    let codec = fixture("protocol-coverage", "messages.rs");
    let clean = fixture("protocol-coverage", "clean.rs");
    let r = lint_files(
        &[
            ("crates/lh/src/messages.rs", codec.as_str()),
            ("crates/lh/src/bucket.rs", clean.as_str()),
        ],
        None,
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    let matrix = r.matrix.expect("codec present => matrix built");
    assert_eq!(matrix.variants.len(), 4);
    for v in &matrix.variants {
        assert!(!v.sends.is_empty(), "{} has no send site", v.name);
        assert!(!v.handles.is_empty(), "{} has no handler", v.name);
    }
}

#[test]
fn reply_obligation_fires_on_bad_fixture() {
    let r = lint_files(
        &[(
            "crates/lh/src/bucket.rs",
            &fixture("reply-obligation", "bad.rs"),
        )],
        None,
    );
    assert_eq!(count_rule(&r, "reply-obligation"), 1, "{:?}", r.violations);
    let d = r
        .violations
        .iter()
        .find(|d| d.rule == "reply-obligation")
        .unwrap();
    assert!(
        d.excerpt.contains("return"),
        "should anchor at the reply-less exit: {d:?}"
    );
}

#[test]
fn reply_obligation_clean_fixture_passes() {
    let r = lint_files(
        &[(
            "crates/lh/src/bucket.rs",
            &fixture("reply-obligation", "clean.rs"),
        )],
        None,
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn reply_obligation_is_scoped_to_event_loops() {
    // the same reply-less handler outside the event-loop files is fine
    let r = lint_files(
        &[(
            "crates/lh/src/cluster.rs",
            &fixture("reply-obligation", "bad.rs"),
        )],
        None,
    );
    assert_eq!(count_rule(&r, "reply-obligation"), 0, "{:?}", r.violations);
}

#[test]
fn obs_drift_fires_on_bad_fixture_in_both_directions() {
    let doc = fixture("obs-drift", "OBSERVABILITY.md");
    let r = lint_files(
        &[(
            "crates/core/src/metrics.rs",
            &fixture("obs-drift", "bad.rs"),
        )],
        Some(&doc),
    );
    assert_eq!(count_rule(&r, "obs-drift"), 3, "{:?}", r.violations);
    let msgs: Vec<&str> = r.violations.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("lh.bogus_metric")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("dynamic")), "{msgs:?}");
    // the stale doc entry anchors in the doc itself
    assert!(r.violations.iter().any(|d| d.rule == "obs-drift"
        && d.file == "docs/OBSERVABILITY.md"
        && d.message.contains("lh.real_metric")));
}

#[test]
fn obs_drift_clean_fixture_passes() {
    let doc = fixture("obs-drift", "OBSERVABILITY.md");
    let r = lint_files(
        &[(
            "crates/core/src/metrics.rs",
            &fixture("obs-drift", "clean.rs"),
        )],
        Some(&doc),
    );
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
}

#[test]
fn diagnostics_are_sorted_for_stable_json() {
    let codec = fixture("protocol-coverage", "messages.rs");
    let bad = fixture("protocol-coverage", "bad.rs");
    let doc = fixture("obs-drift", "OBSERVABILITY.md");
    let r = lint_files(
        &[
            ("crates/lh/src/messages.rs", codec.as_str()),
            ("crates/lh/src/bucket.rs", bad.as_str()),
            (
                "crates/core/src/metrics.rs",
                &fixture("obs-drift", "bad.rs"),
            ),
        ],
        Some(&doc),
    );
    let keys: Vec<(String, usize, &str)> = r
        .violations
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "violations must be (path, line, rule)-sorted");
}

#[test]
fn committed_protocol_matrix_is_current_and_total() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace scan");
    let matrix = report.matrix.expect("workspace run builds the matrix");
    // every Wire variant: >=1 send, >=1 handler, no unreplied request path
    assert!(matrix.variants.len() >= 20, "Wire shrank suspiciously");
    for v in &matrix.variants {
        assert!(!v.sends.is_empty(), "Wire::{} has no send site", v.name);
        assert!(!v.handles.is_empty(), "Wire::{} has no handler", v.name);
        assert_eq!(
            v.unreplied_paths, 0,
            "Wire::{} has a handler path without a reply",
            v.name
        );
    }
    // the committed artifact matches the regenerated one byte for byte
    let committed = std::fs::read_to_string(root.join("protocol-matrix.json"))
        .expect("committed protocol-matrix.json at the workspace root");
    assert_eq!(
        committed,
        matrix.to_json(),
        "protocol-matrix.json is stale; regenerate with:\n  cargo run -p sdds-lint -- \
         --workspace --protocol-matrix protocol-matrix.json"
    );
}

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan looks truncated");
    assert!(
        report.is_clean(),
        "workspace must lint clean; found:\n{}",
        report
            .violations
            .iter()
            .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // every unsafe site in the tree carries a SAFETY rationale
    assert!(report.unsafe_inventory.iter().all(|u| u.has_safety));
}

/// A miniature `Wire` with the host variants, replayed as the codec.
const HOST_CODEC: &str = "\
pub enum Wire {
    Spawn { addr: u64 },
    DropConns,
    ObsPull { req_id: u64 },
    ObsReport { req_id: u64 },
}
";

/// The senders: the cluster facade spawns and severs, the scrape client
/// pulls and takes the report in. The `if` after a `return` is no match
/// guard: the `Spawn` before it is a send.
const HOST_SENDERS: [(&str, &str); 2] = [
    (
        "crates/lh/src/cluster.rs",
        "\
fn place(addr: u64, here: bool) -> Vec<(SiteId, Wire)> {
    if !here {
        return vec![(host(addr), Wire::Spawn { addr })];
    }
    if addr == 0 {
        return Vec::new();
    }
    vec![(host(addr), Wire::DropConns)]
}
",
    ),
    (
        "crates/lh/src/obs_client.rs",
        "\
fn scrape(msg: Wire) -> Option<u64> {
    send(Wire::ObsPull { req_id: 0 });
    let Wire::ObsReport { req_id } = msg else {
        return None;
    };
    Some(req_id)
}
",
    ),
];

/// Lints the host fixtures with `host` as the host loop.
fn lint_host_loop(host: &str) -> Report {
    let mut files = vec![("crates/lh/src/messages.rs", HOST_CODEC)];
    files.extend(HOST_SENDERS);
    files.push(("crates/lh/src/serve.rs", host));
    lint_files(&files, None)
}

#[test]
fn the_host_loop_is_held_to_the_protocol_rules() {
    let clean = "\
fn handle(&mut self, from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)> {
    match msg {
        Wire::Spawn { addr } => spawn(addr),
        Wire::DropConns => sever(),
        Wire::ObsPull { req_id } => vec![(from, Wire::ObsReport { req_id })],
        _ => Vec::new(),
    }
}
";
    let r = lint_host_loop(clean);
    assert!(r.is_clean(), "unexpected: {:?}", r.violations);
    let matrix = r.matrix.expect("codec present => matrix built");
    assert!(matrix
        .variants
        .iter()
        .all(|v| !v.sends.is_empty() && !v.handles.is_empty()));

    // `DropConns` is sent and no arm handles it; the `ObsPull` arm
    // answers nothing, which leaves the scrape client's `ObsReport` arm
    // dead as well
    let bad = "\
fn handle(&mut self, from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)> {
    match msg {
        Wire::Spawn { addr } => spawn(addr),
        Wire::ObsPull { req_id } => {
            let _ = (from, req_id);
            Vec::new()
        }
        _ => Vec::new(),
    }
}
";
    let r = lint_host_loop(bad);
    assert_eq!(count_rule(&r, "protocol-coverage"), 2, "{:?}", r.violations);
    assert!(r.violations.iter().any(|d| d.rule == "protocol-coverage"
        && d.file == "crates/lh/src/messages.rs"
        && d.message.contains("DropConns")));
    assert_eq!(count_rule(&r, "reply-obligation"), 1, "{:?}", r.violations);
    assert!(r.violations.iter().any(|d| d.rule == "reply-obligation"
        && d.file == "crates/lh/src/serve.rs"
        && d.message.contains("ObsReport")));
}
