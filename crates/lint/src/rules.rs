//! The per-file invariant rules (the cross-file protocol rules live in
//! [`crate::protocol`]).
//!
//! Each rule machine-checks one structural property the paper's security
//! argument rests on (see `DESIGN.md` § "Static analysis"):
//!
//! | rule                | protects                                          |
//! |---------------------|---------------------------------------------------|
//! | `secret-hygiene`    | key confidentiality (§5 key hierarchy)            |
//! | `determinism`       | ECB/PRP determinism of the Stage-1 index (§2.1);  |
//! |                     | LH\* sites and the client exchange read no clock  |
//! | `unsafe-audit`      | memory-safety rationale coverage                  |
//! | `panic-freedom`     | availability of library crates (no abort paths)   |
//! | `atomics-rationale` | justified memory orderings in concurrent code     |
//! | `protocol-coverage` | protocol totality: every sent variant is handled  |
//! | `reply-obligation`  | request handlers reply on every branch            |
//! | `obs-drift`         | metric/span catalog ↔ code agreement              |
//!
//! All line-level rules for a file run in one pass over a single
//! [`Scanned`] shadow text (scope predicates evaluated once per file,
//! every line visited once), so adding rules does not add rescans.
//!
//! A finding on line *n* is suppressed by `// lint: allow(<rule>)` on line
//! *n* or *n−1*; suppressed findings are still reported (as `allowed`) in
//! the JSON report so escape hatches stay auditable.

use crate::scanner::{idents, Scanned};

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (kebab-case, as used in `lint: allow(...)`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// True when an adjacent `lint: allow` annotation suppresses it.
    pub allowed: bool,
}

/// One `unsafe` occurrence, for the inventory artifact.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// True when a `// SAFETY:` rationale is adjacent.
    pub has_safety: bool,
    /// The source line, trimmed.
    pub excerpt: String,
}

/// All rule identifiers, in reporting order.
pub const RULES: [&str; 8] = [
    "secret-hygiene",
    "determinism",
    "unsafe-audit",
    "panic-freedom",
    "atomics-rationale",
    "protocol-coverage",
    "reply-obligation",
    "obs-drift",
];

/// Library crates whose non-test code must be panic-free (ISSUE 3). The
/// binaries (`src/`, `crates/bench`) and test-support crates are exempt.
const PANIC_FREE_CRATES: [&str; 10] = [
    "gf", "cipher", "chunk", "encode", "disperse", "core", "lh", "net", "par", "storage",
];

/// Stage-1 index path: the only encryption allowed here is deterministic
/// (the chunk PRP / ECB). See the paper §2.1.
fn in_stage1_index_path(path: &str) -> bool {
    path == "crates/core/src/pipeline.rs" || path.starts_with("crates/chunk/src/")
}

/// LH\* protocol code outside the site runtime, the host loop and its
/// health watch: the sites and the client's exchange take time as an
/// input, so a seeded run can replay them.
fn in_clock_free_scope(path: &str) -> bool {
    path.starts_with("crates/lh/src/")
        && !matches!(
            path,
            "crates/lh/src/runtime.rs" | "crates/lh/src/serve.rs" | "crates/lh/src/health.rs"
        )
}

fn in_panic_free_scope(path: &str) -> bool {
    PANIC_FREE_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

fn in_atomics_scope(path: &str) -> bool {
    path.starts_with("crates/par/src/") || path.starts_with("crates/net/src/")
}

fn in_cipher(path: &str) -> bool {
    path.starts_with("crates/cipher/src/")
}

/// Identifiers treated as key material for the secret-hygiene rule.
fn is_secret_ident(id: &str) -> bool {
    let id = id.to_ascii_lowercase();
    id == "key"
        || id == "keys"
        || id.starts_with("key_")
        || id.ends_with("_key")
        || id.ends_with("_keys")
        || id.contains("master")
        || id.contains("round_key")
        || id.contains("secret")
        || id.contains("passphrase")
}

/// True when `comments[line]` or the immediately preceding line carries a
/// `lint: allow(<rule>)` annotation.
pub(crate) fn is_allowed(s: &Scanned, line: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    let here = s.comments.get(line).map(|c| c.contains(&marker));
    let above = line
        .checked_sub(1)
        .and_then(|l| s.comments.get(l))
        .map(|c| c.contains(&marker));
    here == Some(true) || above == Some(true)
}

/// True when a rationale `needle` appears in the trailing comment of
/// `line` or in the contiguous run of comment-only lines directly above.
fn has_adjacent_rationale(s: &Scanned, line: usize, needle: &str) -> bool {
    let matches = |l: usize| s.comments[l].to_ascii_lowercase().contains(needle);
    if matches(line) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        let comment_only = s.code[l].trim().is_empty() && !s.comments[l].trim().is_empty();
        if !comment_only {
            return false;
        }
        if matches(l) {
            return true;
        }
    }
    false
}

fn push(
    out: &mut Vec<Diagnostic>,
    s: &Scanned,
    path: &str,
    line: usize,
    rule: &'static str,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        file: path.to_string(),
        line: line + 1,
        message,
        excerpt: s.raw[line].trim().to_string(),
        allowed: is_allowed(s, line, rule),
    });
}

/// Runs every applicable line-level rule over one scanned file in a
/// single pass: scope predicates are computed once, then each line is
/// visited exactly once with all in-scope rules dispatched on it.
pub fn check_file(path: &str, s: &Scanned) -> (Vec<Diagnostic>, Vec<UnsafeSite>) {
    let mut diags = Vec::new();
    let mut inventory = Vec::new();
    let stage1 = in_stage1_index_path(path);
    let clock_free = in_clock_free_scope(path);
    let panic_free = in_panic_free_scope(path);
    let atomics = in_atomics_scope(path);
    let cipher = in_cipher(path);
    for line in 0..s.code.len() {
        // the unsafe inventory covers test code too — it is the audit surface
        unsafe_audit_line(path, s, line, &mut diags, &mut inventory);
        if s.is_test[line] {
            continue;
        }
        secret_hygiene_line(path, s, line, cipher, &mut diags);
        if stage1 || clock_free {
            determinism_line(path, s, line, stage1, &mut diags);
        }
        if panic_free {
            panic_freedom_line(path, s, line, &mut diags);
        }
        if atomics {
            atomics_rationale_line(path, s, line, &mut diags);
        }
    }
    (diags, inventory)
}

/// Rule 1: key material must never become observable.
///
/// Inside `crates/cipher`: no `derive(Debug)`/serde derives on key-bearing
/// types, no print/debug macros at all, and no formatting macro that
/// mentions a key identifier (including inline `{key:?}` captures — these
/// are checked against the raw line because captures live inside the
/// format string). Workspace-wide: no key identifier may appear in a
/// `sdds_obs` call (metric names/labels end up in snapshots and logs).
fn secret_hygiene_line(
    path: &str,
    s: &Scanned,
    line: usize,
    cipher: bool,
    out: &mut Vec<Diagnostic>,
) {
    const RULE: &str = "secret-hygiene";
    let code = &s.code[line];
    // workspace-wide: obs labels
    if code.contains("sdds_obs::")
        && idents(&s.raw_sans_comments(line))
            .iter()
            .any(|i| is_secret_ident(i))
    {
        push(
            out,
            s,
            path,
            line,
            RULE,
            "key-material identifier flows into an sdds-obs call; metric names and labels \
             reach snapshots, logs and sidecar files"
                .into(),
        );
    }
    if !cipher {
        return;
    }
    // print/debug macros are banned outright in the cipher crate
    for mac in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
        if code.contains(mac) {
            push(
                out,
                s,
                path,
                line,
                RULE,
                format!("`{mac}` in sdds-cipher: cipher code must never write to stdio"),
            );
        }
    }
    // formatting a secret (arguments or inline captures)
    for mac in ["format!", "write!", "writeln!", "panic!", "todo!"] {
        if code.contains(mac)
            && idents(&s.raw_sans_comments(line))
                .iter()
                .any(|i| is_secret_ident(i))
        {
            push(
                out,
                s,
                path,
                line,
                RULE,
                format!("`{mac}` formats a key-material identifier in sdds-cipher"),
            );
        }
    }
    // derive(Debug/Serialize/Deserialize) on a key-bearing type
    if let Some(derived) = risky_derives(code) {
        if let Some(field) = key_bearing_field(s, line) {
            push(
                out,
                s,
                path,
                line,
                RULE,
                format!(
                    "derive({derived}) on a key-bearing type (field `{field}`): derived \
                     formatting/serialization would expose key bytes; write a redacting \
                     impl instead"
                ),
            );
        }
    }
}

/// The risky derive names present in a `#[derive(...)]` list, if any.
fn risky_derives(code: &str) -> Option<String> {
    let start = code.find("derive(")?;
    let list = &code[start + "derive(".len()..];
    let list = &list[..list.find(')').unwrap_or(list.len())];
    let risky: Vec<&str> = idents(list)
        .into_iter()
        .filter(|i| matches!(*i, "Debug" | "Serialize" | "Deserialize"))
        .collect();
    if risky.is_empty() {
        None
    } else {
        Some(risky.join(", "))
    }
}

/// Looks at the item following a derive attribute on `attr_line`; returns
/// the first secret-named field found in its body, scanning at most 60
/// lines (plenty for the structs in this workspace).
fn key_bearing_field(s: &Scanned, attr_line: usize) -> Option<String> {
    // find the struct/enum header
    let mut l = attr_line;
    let mut header = None;
    for _ in 0..6 {
        let toks = idents(&s.code[l]);
        if toks.contains(&"struct") || toks.contains(&"enum") {
            header = Some(l);
            break;
        }
        l += 1;
        if l >= s.code.len() {
            return None;
        }
    }
    let header = header?;
    // walk the braced body collecting `name:` field identifiers
    let mut depth = 0i64;
    let mut entered = false;
    for l in header..(header + 60).min(s.code.len()) {
        let code = &s.code[l];
        if entered && depth == 1 {
            if let Some(field) = field_ident(code) {
                if is_secret_ident(&field) {
                    return Some(field);
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                ';' if !entered && depth == 0 => return None, // tuple/unit struct
                _ => {}
            }
        }
        if entered && depth <= 0 {
            return None;
        }
    }
    None
}

/// The field name on a `name: Type,` line, skipping visibility modifiers.
fn field_ident(code: &str) -> Option<String> {
    // first `:` that is not part of `::`
    let bytes = code.as_bytes();
    let mut colon = None;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b':' {
            if i + 1 < bytes.len() && bytes[i + 1] == b':' {
                i += 2;
                continue;
            }
            colon = Some(i);
            break;
        }
        i += 1;
    }
    let before = &code[..colon?];
    idents(before)
        .into_iter()
        .rfind(|t| !matches!(*t, "pub" | "crate" | "super" | "in" | "self"))
        .map(str::to_string)
}

/// Rule 2: only deterministic (ECB/PRP) encryption inside the Stage-1
/// index path. A CBC or CTR call there breaks chunk-equality search
/// silently — results just go incomplete (§2.1). Elsewhere in scope (LH\*
/// protocol code) no clock read, sleep or timed receive: the client's one
/// blocking request loop carries `lint: allow(determinism)`.
fn determinism_line(path: &str, s: &Scanned, line: usize, stage1: bool, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "determinism";
    if !stage1 {
        let clock = [
            "Instant::now",
            "SystemTime::now",
            "thread::sleep",
            "recv_timeout",
            "recv_until",
        ];
        for what in clock.into_iter().filter(|what| s.code[line].contains(what)) {
            let message = format!(
                "`{what}` in LH* protocol code: sites and the client's exchange take time as \
                 an input; only the client's blocking request loop reads the clock"
            );
            push(out, s, path, line, RULE, message);
        }
        return;
    }
    for tok in idents(&s.code[line]) {
        if matches!(tok, "cbc_encrypt" | "cbc_decrypt" | "ctr_xor") {
            push(
                out,
                s,
                path,
                line,
                RULE,
                format!(
                    "`{tok}` in the Stage-1 index path: index chunks must be encrypted \
                     deterministically (ECB/chunk-PRP) or equality search breaks"
                ),
            );
        }
    }
}

/// Rule 3: every `unsafe` needs an adjacent `// SAFETY:` rationale, and
/// all occurrences are inventoried (test code included — the inventory is
/// the audit surface).
fn unsafe_audit_line(
    path: &str,
    s: &Scanned,
    line: usize,
    out: &mut Vec<Diagnostic>,
    inventory: &mut Vec<UnsafeSite>,
) {
    const RULE: &str = "unsafe-audit";
    if !idents(&s.code[line]).contains(&"unsafe") {
        return;
    }
    let has_safety = has_adjacent_rationale(s, line, "safety:");
    inventory.push(UnsafeSite {
        file: path.to_string(),
        line: line + 1,
        has_safety,
        excerpt: s.raw[line].trim().to_string(),
    });
    if !has_safety {
        push(
            out,
            s,
            path,
            line,
            RULE,
            "`unsafe` without a `// SAFETY:` rationale on the preceding line".into(),
        );
    }
}

/// Rule 4: no panic paths in non-test library code.
fn panic_freedom_line(path: &str, s: &Scanned, line: usize, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "panic-freedom";
    const PATTERNS: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "unreachable!(",
        "todo!(",
        "unimplemented!(",
    ];
    for pat in PATTERNS {
        if s.code[line].contains(pat) {
            let what = pat.trim_start_matches('.').trim_end_matches('(');
            push(
                out,
                s,
                path,
                line,
                RULE,
                format!(
                    "`{what}` in library code: a panic here aborts a whole site; return a \
                     Result, use debug_assert!, or justify with `lint: allow(panic-freedom)`"
                ),
            );
        }
    }
}

/// Rule 5: every `Ordering::` use in the concurrency crates needs an
/// adjacent `// ordering:` justification comment.
fn atomics_rationale_line(path: &str, s: &Scanned, line: usize, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "atomics-rationale";
    if !s.code[line].contains("Ordering::") {
        return;
    }
    if !has_adjacent_rationale(s, line, "ordering:") {
        push(
            out,
            s,
            path,
            line,
            RULE,
            "atomic `Ordering::` use without an adjacent `// ordering:` justification \
             comment"
                .into(),
        );
    }
}
