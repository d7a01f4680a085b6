//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p sdds-lint -- --workspace                 # human-readable, exit 1 on violations
//! cargo run -p sdds-lint -- --workspace --json lint.json
//! cargo run -p sdds-lint -- --workspace --unsafe-inventory unsafe-inventory.json
//! cargo run -p sdds-lint -- --workspace --protocol-matrix protocol-matrix.json
//! cargo run -p sdds-lint -- --as crates/cipher/src/x.rs some/fixture.rs
//! ```
//!
//! `--as` lints a single file as though it lived at the given
//! workspace-relative path — the way to demonstrate a rule against a
//! seeded fixture from the command line.

use sdds_lint::{find_workspace_root, lint_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut inventory_path: Option<PathBuf> = None;
    let mut matrix_path: Option<PathBuf> = None;
    let mut as_path: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut quiet = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => root = it.next().map(PathBuf::from),
            "--json" => json_path = it.next().map(PathBuf::from),
            "--unsafe-inventory" => inventory_path = it.next().map(PathBuf::from),
            "--protocol-matrix" => matrix_path = it.next().map(PathBuf::from),
            "--as" => as_path = it.next(),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => file = Some(PathBuf::from(other)),
            other => {
                eprintln!("sdds-lint: unknown flag {other}\n{HELP}");
                return ExitCode::from(2);
            }
        }
    }

    let report = if let Some(rel) = as_path {
        let Some(path) = file else {
            eprintln!("sdds-lint: --as <rel-path> requires a file argument");
            return ExitCode::from(2);
        };
        let mut report = Report::default();
        match std::fs::read_to_string(&path) {
            Ok(content) => report.lint_source(&rel, &content),
            Err(e) => {
                eprintln!("sdds-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        report
    } else if workspace {
        let root = root
            .or_else(|| {
                std::env::current_dir()
                    .ok()
                    .and_then(|d| find_workspace_root(&d))
            })
            .unwrap_or_else(|| PathBuf::from("."));
        match lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sdds-lint: scanning {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        eprintln!("sdds-lint: nothing to do (pass --workspace or --as)\n{HELP}");
        return ExitCode::from(2);
    };

    if let Some(p) = &json_path {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("sdds-lint: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = &inventory_path {
        let body = format!("[\n{}\n]\n", report.unsafe_inventory_json(2));
        if let Err(e) = std::fs::write(p, body) {
            eprintln!("sdds-lint: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = &matrix_path {
        let Some(matrix) = &report.matrix else {
            eprintln!(
                "sdds-lint: --protocol-matrix needs a workspace run that includes the Wire codec"
            );
            return ExitCode::from(2);
        };
        if let Err(e) = std::fs::write(p, matrix.to_json()) {
            eprintln!("sdds-lint: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    if !quiet {
        for d in &report.violations {
            println!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
            println!("    {}", d.excerpt);
        }
        println!(
            "sdds-lint: {} file(s) scanned, {} violation(s), {} allowed via `lint: allow`, {} \
             unsafe site(s) inventoried ({} with SAFETY rationale)",
            report.files_scanned,
            report.violations.len(),
            report.allowed.len(),
            report.unsafe_inventory.len(),
            report
                .unsafe_inventory
                .iter()
                .filter(|u| u.has_safety)
                .count()
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const HELP: &str = "\
sdds-lint: workspace invariant checker for the paper's security contracts

USAGE:
    sdds-lint --workspace [--root DIR] [--json FILE] [--unsafe-inventory FILE]
              [--protocol-matrix FILE] [--quiet]
    sdds-lint --as <workspace-rel-path> <file>

Rules: secret-hygiene, determinism, unsafe-audit, panic-freedom,
atomics-rationale, protocol-coverage, reply-obligation, obs-drift.
Suppress one finding with `// lint: allow(<rule>)` on the same or
preceding line. shims/ and target/ are never scanned. The protocol rules
and the send/handle matrix need a --workspace run; --protocol-matrix
writes the machine-readable matrix CI diffs against the committed copy.
";
