//! The `sdds` binary's command line: a token the subcommand does not know
//! ends the run with exit 2 instead of being silently ignored.

use std::process::{Command, Output};

fn sdds(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdds"))
        .args(args)
        .output()
        .expect("run sdds")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelt_flag_is_an_error_that_names_it() {
    // ignored, it would search the default 1000 records, not 5
    let out = sdds(&["search", "--pattern", "X", "--entires", "5"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--entires"), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "no search may have run");
}

#[test]
fn a_bare_positional_is_an_error_that_names_it() {
    let out = sdds(&["metrics", "400"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("\"400\""), "{}", stderr(&out));
}

#[test]
fn a_flag_of_another_command_is_an_error() {
    let out = sdds(&["generate", "--entries", "3", "--pattern", "X"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--pattern"), "{}", stderr(&out));
}

#[test]
fn the_removed_bench_commands_are_unknown() {
    for kind in ["load", "search", "durability", "traffic", "net"] {
        let out = sdds(&[&format!("bench-{kind}")]);
        assert_eq!(out.status.code(), Some(2), "bench-{kind}");
        assert!(stderr(&out).contains("unknown command"), "{}", stderr(&out));
    }
}

#[test]
fn the_removed_swp_config_is_unknown() {
    let out = sdds(&[
        "search",
        "--pattern",
        "X",
        "--entries",
        "5",
        "--config",
        "swp",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("use basic|paper"), "{}", stderr(&out));
}

#[test]
fn help_lists_exactly_the_six_commands() {
    let out = sdds(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stderr(&out);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  sdds "))
        .collect();
    assert_eq!(
        listed,
        [
            "generate",
            "search",
            "metrics",
            "trace",
            "audit-leakage",
            "serve"
        ]
    );
}

#[test]
fn a_well_formed_search_runs() {
    let out = sdds(&["search", "--pattern", "MARTINEZ", "--entries", "300"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("hit(s)"), "{}", stderr(&out));
}

#[test]
fn audit_leakage_writes_the_report_as_json() {
    let path = std::env::temp_dir().join(format!("sdds-leak-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = sdds(&["audit-leakage", "--entries", "300", "--json-out", path_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    assert!(text.starts_with("{\"element_bytes\":"), "{text}");
    let doc = sdds_obs::json::parse(&text).expect("valid JSON");
    let top = doc.as_object().expect("object");
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["alphabet", "buckets", "element_bytes", "overall", "top_m"]
    );
    let summary_keys = [
        "chi_square",
        "chi_square_per_df",
        "distinct",
        "elements",
        "p_value",
        "top_ratio",
    ];
    let overall = top["overall"].as_object().expect("object");
    assert_eq!(
        overall.keys().map(String::as_str).collect::<Vec<_>>(),
        summary_keys
    );
    assert!(overall["elements"].as_u64().is_some_and(|n| n > 0));
    assert!(overall["chi_square"].as_f64().is_some_and(f64::is_finite));
    let buckets = top["buckets"].as_array().expect("array");
    assert!(!buckets.is_empty());
    for b in buckets {
        let b = b.as_object().expect("object");
        assert_eq!(
            b.keys().map(String::as_str).collect::<Vec<_>>(),
            ["bucket", "summary"]
        );
        assert!(b["bucket"].as_u64().is_some());
        let s = b["summary"].as_object().expect("object");
        assert_eq!(
            s.keys().map(String::as_str).collect::<Vec<_>>(),
            summary_keys
        );
    }
}
