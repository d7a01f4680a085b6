//! `sdds-lint` — the workspace invariant checker.
//!
//! The paper's guarantees are invariants of the *code*: Stage-1 index
//! chunks must be encrypted deterministically or chunk-equality search
//! silently breaks, key material must never reach a log or a metrics
//! label, and the hand-rolled concurrency in `sdds-net` must justify its
//! memory orderings. A careless refactor can void any of these without
//! failing a functional test, so this crate machine-checks them on every
//! CI run:
//!
//! ```text
//! cargo run -p sdds-lint -- --workspace [--json lint.json]
//! ```
//!
//! See [`rules`] for the per-file rules, [`protocol`] for the cross-file
//! protocol rules and the `Wire` send×handle matrix, and [`scanner`] for
//! the `syn`-free shadow-text lexer they all run on. Shim crates
//! (`shims/`) are exempt: they are offline stand-ins for external
//! dependencies, mirror the upstream APIs (which panic where upstream
//! panics), and hold no key material — see `shims/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod rules;
pub mod scanner;

use protocol::{ProtocolAnalysis, ProtocolMatrix};
use rules::{Diagnostic, UnsafeSite};
use std::path::{Path, PathBuf};

/// Aggregated result of linting a set of files.
#[derive(Default)]
pub struct Report {
    /// Findings that fail the run.
    pub violations: Vec<Diagnostic>,
    /// Findings suppressed by `lint: allow(...)` annotations.
    pub allowed: Vec<Diagnostic>,
    /// Every `unsafe` occurrence with its rationale status.
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The `Wire` send×handle matrix (present when the codec file was in
    /// the scanned set, i.e. on workspace runs).
    pub matrix: Option<ProtocolMatrix>,
}

impl Report {
    /// True when no violations remain (allowed findings do not fail).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Lints one in-memory source as though it lived at `rel_path`
    /// (workspace-relative, `/`-separated). Rule scoping keys off the
    /// path, which is what lets fixture tests replay a rule's scope.
    pub fn lint_source(&mut self, rel_path: &str, content: &str) {
        let scanned = scanner::scan(content);
        let (diags, inventory) = rules::check_file(rel_path, &scanned);
        for d in diags {
            if d.allowed {
                self.allowed.push(d);
            } else {
                self.violations.push(d);
            }
        }
        self.unsafe_inventory.extend(inventory);
        self.files_scanned += 1;
    }

    /// Serializes the report as JSON (hand-rolled: this crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"rules\": [{}],\n",
            self.files_scanned,
            rules::RULES
                .iter()
                .map(|r| format!("\"{r}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let diag_json = |d: &Diagnostic| {
            format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
                 \"excerpt\": \"{}\"}}",
                d.rule,
                json_escape(&d.file),
                d.line,
                json_escape(&d.message),
                json_escape(&d.excerpt)
            )
        };
        out.push_str("  \"violations\": [\n");
        out.push_str(
            &self
                .violations
                .iter()
                .map(diag_json)
                .collect::<Vec<_>>()
                .join(",\n"),
        );
        out.push_str("\n  ],\n  \"allowed\": [\n");
        out.push_str(
            &self
                .allowed
                .iter()
                .map(diag_json)
                .collect::<Vec<_>>()
                .join(",\n"),
        );
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"unsafe_inventory\": [\n{}\n  ]\n}}\n",
            self.unsafe_inventory_json(4)
        ));
        out
    }

    /// The unsafe inventory as a JSON array body (used both in the full
    /// report and in the standalone `--unsafe-inventory` artifact).
    pub fn unsafe_inventory_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        self.unsafe_inventory
            .iter()
            .map(|u| {
                format!(
                    "{pad}{{\"file\": \"{}\", \"line\": {}, \"has_safety\": {}, \"excerpt\": \
                     \"{}\"}}",
                    json_escape(&u.file),
                    u.line,
                    u.has_safety,
                    json_escape(&u.excerpt)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories never scanned, relative to the workspace root.
///
/// * `shims/` — offline dependency stand-ins, exempt by policy
///   (`shims/README.md`).
/// * `target/` — build output.
/// * `crates/lint/tests/fixtures/` — seeded-violation fixtures that must
///   keep violating so the rule tests stay honest.
const SKIP_PREFIXES: [&str; 4] = ["shims", "target", ".git", "crates/lint/tests/fixtures"];

/// Recursively collects workspace `.rs` files eligible for scanning.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints a set of in-memory sources as one coherent tree: runs the
/// per-file rules and the cross-file protocol analysis over a single
/// scanner pass per file, then sorts every diagnostic list by
/// (path, line, rule) so the JSON report is byte-stable.
///
/// `obs_doc` is the text of `docs/OBSERVABILITY.md`; `None` disables the
/// obs-drift doc comparison (code-side checks still run).
pub fn lint_files(files: &[(&str, &str)], obs_doc: Option<&str>) -> Report {
    let mut report = Report::default();
    let mut analysis = ProtocolAnalysis::new();
    for (rel_path, content) in files {
        let scanned = scanner::scan(content);
        let (diags, inventory) = rules::check_file(rel_path, &scanned);
        for d in diags {
            if d.allowed {
                report.allowed.push(d);
            } else {
                report.violations.push(d);
            }
        }
        report.unsafe_inventory.extend(inventory);
        analysis.add_file(rel_path, &scanned);
        report.files_scanned += 1;
    }
    let (proto_diags, matrix) = analysis.finish(obs_doc);
    for d in proto_diags {
        if d.allowed {
            report.allowed.push(d);
        } else {
            report.violations.push(d);
        }
    }
    report.matrix = matrix;
    let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule);
    report.violations.sort_by_key(key);
    report.allowed.sort_by_key(key);
    report
        .unsafe_inventory
        .sort_by_key(|u| (u.file.clone(), u.line));
    report
}

/// Lints every eligible `.rs` file under the workspace root, including
/// the protocol rules (which need the whole tree plus the observability
/// catalog).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut owned: Vec<(String, String)> = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path)?;
        owned.push((rel, content));
    }
    let files: Vec<(&str, &str)> = owned
        .iter()
        .map(|(r, c)| (r.as_str(), c.as_str()))
        .collect();
    let obs_doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).ok();
    Ok(lint_files(&files, obs_doc.as_deref()))
}

/// Finds the workspace root by walking upward from `start` until a
/// `Cargo.toml` containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
