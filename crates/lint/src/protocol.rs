//! Protocol-aware analysis: the `Wire` send×handle matrix and the three
//! rules built on it.
//!
//! The paper's availability and ≤2-hop guarantees assume the LH* message
//! protocol is *total*: every message that can be sent has a handler,
//! and every request produces a reply on every control-flow path. (That
//! a sent message arrives is the fabric's job.) This module enforces both
//! at the source level, plus doc/code agreement for the observability
//! catalog:
//!
//! | rule                | checks                                          |
//! |---------------------|-------------------------------------------------|
//! | `protocol-coverage` | every constructed variant has an event-loop     |
//! |                     | handler; no dead handler arms                   |
//! | `reply-obligation`  | request handlers emit the paired response (or   |
//! |                     | forward the request) on every branch            |
//! | `obs-drift`         | metric/span name literals ↔ `docs/OBSERVABILITY.md` |
//!
//! Classification is purely lexical over the shadow text plus the
//! [`BraceTree`]: a `Wire::Variant` occurrence is a *pattern* when it is
//! inside a `matches!(..)` call, followed by `=>` (with an optional
//! guard), by `|` alternation, or by a single `=` (refutable `let`);
//! every other occurrence is a *construction* (a send), and so is a call
//! of a borrowed encoder (`Wire::encode_scan_req(..)` sends a `ScanReq`).
//! Patterns in the protocol actor files ([`HANDLER_FILES`]) count as
//! handles; constructions anywhere in `crates/lh/src` (except the codec)
//! count as sends.

use crate::rules::{is_allowed, Diagnostic};
use crate::scanner::{idents, BraceTree, Pos, Scanned};

/// Rule identifiers this module owns, in reporting order.
pub const PROTOCOL_RULES: [&str; 3] = ["protocol-coverage", "reply-obligation", "obs-drift"];

/// The wire codec. Its `encode`/`decode` matches touch every variant by
/// construction, so it is excluded from the send/handle matrix (only the
/// enum declaration is read from it).
const CODEC_FILE: &str = "crates/lh/src/messages.rs";

/// Files whose `Wire` patterns count as protocol handlers: the three site
/// state machines and the runtime that dispatches to them (it retires a
/// site on `Shutdown`), a rank's host loop, plus the client, cluster and
/// scrape sides that consume replies.
const HANDLER_FILES: [&str; 8] = [
    "crates/lh/src/bucket.rs",
    "crates/lh/src/client.rs",
    "crates/lh/src/cluster.rs",
    "crates/lh/src/coordinator.rs",
    "crates/lh/src/obs_client.rs",
    "crates/lh/src/parity.rs",
    HOST_FILE,
    SHARD_FILE,
];

/// The site state machines, the host loop and the loop that runs the
/// sites: reply-obligation applies here.
const LOOP_FILES: [&str; 5] = [
    "crates/lh/src/bucket.rs",
    "crates/lh/src/coordinator.rs",
    "crates/lh/src/parity.rs",
    HOST_FILE,
    SHARD_FILE,
];

/// A rank's host loop: it answers the messages sent to the rank's host
/// id.
const HOST_FILE: &str = "crates/lh/src/serve.rs";

/// A rank's shards: they birth a bucket on `Spawn`, `TransferBatch` or
/// `Adopt`, retire one on `Shutdown`, and dispatch the rest to it.
const SHARD_FILE: &str = "crates/lh/src/shard.rs";

/// Request-shaped variants and the response each handler must emit.
/// The responses are the variants `Wire::reply_id` names.
const REPLY_PAIRS: [(&str, &str); 7] = [
    ("Request", "Response"),
    ("ScanReq", "ScanResp"),
    ("SlotsRead", "SlotsState"),
    ("Dump", "DumpState"),
    ("ExtentReq", "ExtentResp"),
    ("ParityRead", "ParityState"),
    ("ObsPull", "ObsReport"),
];

/// Namespaces whose dotted string literals are observability names.
const OBS_NAMESPACES: [&str; 12] = [
    "lh", "net", "core", "storage", "leak", "cipher", "bucket", "coord", "parity", "client",
    "search", "obs",
];

/// File-ish suffixes that disqualify a dotted literal from being an
/// observability name (`leak.json`, `bucket.rs`, …).
const NON_NAME_SUFFIXES: [&str; 5] = [".json", ".jsonl", ".md", ".rs", ".toml"];

/// The variant a borrowed encoder of the codec sends:
/// `Wire::encode_scan_req(..)` writes a `ScanReq` from borrowed fields
/// without constructing the variant, and is a send site all the same.
fn borrowed_encoder_variant(assoc_fn: &str) -> Option<String> {
    let snake = assoc_fn.strip_prefix("encode_")?;
    let camel = snake
        .split('_')
        .flat_map(|word| {
            let mut chars = word.chars();
            let head = chars.next().map(|c| c.to_ascii_uppercase());
            head.into_iter().chain(chars)
        })
        .collect();
    Some(camel)
}

/// How a `Wire::Variant` occurrence is used.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Expression position: a construction, i.e. a send site.
    Send,
    /// Pattern position (match arm, `matches!`, refutable `let`).
    Pattern,
}

/// One classified `Wire::Variant` occurrence.
#[derive(Debug, Clone)]
struct Occurrence {
    file: String,
    /// 0-based position of the `W` in `Wire::`.
    pos: Pos,
    variant: String,
    kind: Kind,
    /// For a match-arm pattern: position of the `=>` token.
    arm_arrow: Option<Pos>,
    /// True when the occurrence sits in a handler file.
    in_handler_file: bool,
    excerpt: String,
    allowed_coverage: bool,
}

/// One `Wire` enum variant declaration.
#[derive(Debug, Clone)]
struct VariantDecl {
    name: String,
    /// 0-based line in the codec file.
    line: usize,
    excerpt: String,
    allowed: bool,
}

/// One observability-name literal in code.
#[derive(Debug, Clone)]
struct ObsUse {
    file: String,
    /// 0-based line.
    line: usize,
    name: String,
    excerpt: String,
    allowed: bool,
}

/// One name (or `*` wildcard pattern) documented in the catalog.
#[derive(Debug, Clone)]
struct DocName {
    pattern: String,
    /// 0-based line in the doc.
    line: usize,
    excerpt: String,
}

/// A half-open region of code: `start` inclusive, `end` exclusive.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: Pos,
    end: Pos,
}

impl Region {
    fn contains(&self, pos: Pos) -> bool {
        pos >= self.start && pos < self.end
    }
}

/// One variant's row of the committed `protocol-matrix.json`. It names
/// files, not lines, so that moving code leaves it as it is: it changes
/// only when the protocol does.
#[derive(Debug, Clone)]
pub struct VariantEntry {
    /// Variant name.
    pub name: String,
    /// The files with a non-test construction site, sorted.
    pub sends: Vec<String>,
    /// The handler files with a pattern site, sorted.
    pub handles: Vec<String>,
    /// For request-shaped variants: the paired response variant.
    pub responds_with: Option<String>,
    /// For request-shaped variants: handler paths that can exit without
    /// emitting the reply (0 on a healthy tree).
    pub unreplied_paths: usize,
}

/// The machine-readable send×handle matrix over `Wire`.
#[derive(Debug, Clone, Default)]
pub struct ProtocolMatrix {
    /// One entry per variant, in declaration order.
    pub variants: Vec<VariantEntry>,
}

impl ProtocolMatrix {
    /// Renders the matrix as deterministic JSON (stable field and entry
    /// order) for the committed artifact CI diffs against.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"variants\": [\n");
        let rows: Vec<String> = self
            .variants
            .iter()
            .map(|v| {
                let list = |xs: &[String]| {
                    xs.iter()
                        .map(|x| format!("\"{}\"", crate::json_escape(x)))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let reply = match &v.responds_with {
                    Some(r) => format!(
                        "{{\"responds_with\": \"{}\", \"unreplied_paths\": {}}}",
                        r, v.unreplied_paths
                    ),
                    None => "null".to_string(),
                };
                format!(
                    "    {{\"variant\": \"{}\", \"sends\": [{}], \"handles\": [{}], \"reply\": {}}}",
                    v.name,
                    list(&v.sends),
                    list(&v.handles),
                    reply
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Accumulates protocol facts file by file, then renders diagnostics and
/// the matrix. Feed every scanned file through [`add_file`], then call
/// [`finish`].
///
/// [`add_file`]: ProtocolAnalysis::add_file
/// [`finish`]: ProtocolAnalysis::finish
#[derive(Default)]
pub struct ProtocolAnalysis {
    variants: Vec<VariantDecl>,
    occurrences: Vec<Occurrence>,
    flow_diags: Vec<Diagnostic>,
    obs_uses: Vec<ObsUse>,
}

impl ProtocolAnalysis {
    /// A fresh, empty analysis.
    pub fn new() -> ProtocolAnalysis {
        ProtocolAnalysis::default()
    }

    /// Collects protocol facts from one scanned file. Reuses the same
    /// [`Scanned`] the per-file rules ran on — one scanner pass per file.
    pub fn add_file(&mut self, path: &str, s: &Scanned) {
        self.collect_obs_names(path, s);
        if path == CODEC_FILE {
            self.variants = parse_wire_enum(s);
            return;
        }
        if !path.starts_with("crates/lh/src/") {
            return;
        }
        let view = FileView::new(path, s);
        let occs = view.wire_occurrences();
        if LOOP_FILES.contains(&path) {
            self.check_reply_obligation(&view, &occs);
        }
        self.occurrences.extend(occs);
    }

    /// Renders all protocol diagnostics and the matrix. `obs_doc` is the
    /// text of `docs/OBSERVABILITY.md`; without it the obs-drift rule is
    /// skipped (single-fixture replays). The matrix is `None` when the
    /// codec file was never scanned.
    pub fn finish(mut self, obs_doc: Option<&str>) -> (Vec<Diagnostic>, Option<ProtocolMatrix>) {
        let mut diags = std::mem::take(&mut self.flow_diags);
        if let Some(doc) = obs_doc {
            self.check_obs_drift(doc, &mut diags);
        }
        if self.variants.is_empty() {
            return (diags, None);
        }
        let matrix = self.build_matrix(&mut diags);
        (diags, Some(matrix))
    }

    /// protocol-coverage + matrix assembly (both need the full variant ×
    /// occurrence view, so they run together).
    fn build_matrix(&self, diags: &mut Vec<Diagnostic>) -> ProtocolMatrix {
        let mut matrix = ProtocolMatrix::default();
        for v in &self.variants {
            let mut sends: Vec<String> = Vec::new();
            let mut handles: Vec<String> = Vec::new();
            let mut first_handle: Option<&Occurrence> = None;
            for occ in self.occurrences.iter().filter(|o| o.variant == v.name) {
                match occ.kind {
                    Kind::Send => sends.push(occ.file.clone()),
                    Kind::Pattern if occ.in_handler_file => {
                        handles.push(occ.file.clone());
                        if first_handle.is_none() {
                            first_handle = Some(occ);
                        }
                    }
                    Kind::Pattern => {}
                }
            }
            for files in [&mut sends, &mut handles] {
                files.sort();
                files.dedup();
            }
            match (sends.is_empty(), handles.is_empty()) {
                (false, true) => diags.push(Diagnostic {
                    rule: "protocol-coverage",
                    file: CODEC_FILE.to_string(),
                    line: v.line + 1,
                    message: format!(
                        "`Wire::{}` is constructed but no event loop handles it; a send of this \
                         variant is a black hole",
                        v.name
                    ),
                    excerpt: v.excerpt.clone(),
                    allowed: v.allowed,
                }),
                (true, false) => {
                    let h = first_handle.expect("non-empty handles");
                    diags.push(Diagnostic {
                        rule: "protocol-coverage",
                        file: h.file.clone(),
                        line: h.pos.0 + 1,
                        message: format!(
                            "dead handler arm: `Wire::{}` is never constructed outside the codec \
                             and tests",
                            v.name
                        ),
                        excerpt: h.excerpt.clone(),
                        allowed: h.allowed_coverage,
                    });
                }
                (true, true) => diags.push(Diagnostic {
                    rule: "protocol-coverage",
                    file: CODEC_FILE.to_string(),
                    line: v.line + 1,
                    message: format!(
                        "`Wire::{}` is declared but never constructed and never handled",
                        v.name
                    ),
                    excerpt: v.excerpt.clone(),
                    allowed: v.allowed,
                }),
                (false, false) => {}
            }
            let reply = REPLY_PAIRS.iter().find(|(req, _)| *req == v.name);
            matrix.variants.push(VariantEntry {
                name: v.name.clone(),
                sends,
                handles,
                responds_with: reply.map(|(_, resp)| resp.to_string()),
                unreplied_paths: diags
                    .iter()
                    .filter(|d| {
                        d.rule == "reply-obligation" && d.message.contains(&format!("`{}`", v.name))
                    })
                    .count(),
            });
        }
        matrix
    }

    /// reply-obligation: every match arm for a request-shaped variant,
    /// inside a `-> Vec<(SiteId, Wire)>` function of an event-loop file,
    /// must emit the paired response (or re-send the request — a forward
    /// transfers the obligation) on every exit path of its body or of the
    /// function it delegates to.
    fn check_reply_obligation(&mut self, view: &FileView, occs: &[Occurrence]) {
        let fns = view.find_fns();
        let wire_fns: Vec<&FnDecl> = fns.iter().filter(|f| f.is_wire_fn()).collect();
        for occ in occs {
            let Some(arrow) = occ.arm_arrow else { continue };
            let Some((_, response)) = REPLY_PAIRS.iter().find(|(req, _)| *req == occ.variant)
            else {
                continue;
            };
            if !wire_fns
                .iter()
                .any(|f| f.body.is_some_and(|b| b.contains(occ.pos)))
            {
                continue; // span-name tables etc. carry no reply duty
            }
            let Some(region) = view.arm_body(arrow) else {
                continue;
            };
            let emits = |r: Region| -> Vec<Pos> {
                occs.iter()
                    .filter(|e| {
                        e.kind == Kind::Send
                            && (e.variant == *response || e.variant == occ.variant)
                            && r.contains(e.pos)
                    })
                    .map(|e| e.pos)
                    .collect()
            };
            let mut target = region;
            let mut emissions = emits(region);
            if emissions.is_empty() {
                // delegation: `self.handle_request(..)` — path-check the
                // called wire-handler function instead
                match view.delegate_body(region, &wire_fns) {
                    Some(body) => {
                        target = body;
                        emissions = emits(body);
                    }
                    None => {
                        self.push_flow(
                            view,
                            occ.pos.0,
                            "reply-obligation",
                            format!(
                                "handler arm for `{}` never constructs `{}` (and does not forward \
                                 the request or delegate to a wire handler)",
                                occ.variant, response
                            ),
                        );
                        continue;
                    }
                }
            }
            for exit in view.exit_paths(target) {
                if !view.exit_satisfied(exit, &emissions, target) {
                    self.push_flow(
                        view,
                        exit.0,
                        "reply-obligation",
                        format!(
                            "`{}` handler: this path can return without sending `{}` (or \
                             forwarding `{}`) — the client would hang until timeout",
                            occ.variant, response, occ.variant
                        ),
                    );
                }
            }
        }
    }

    fn push_flow(&mut self, view: &FileView, line: usize, rule: &'static str, message: String) {
        self.flow_diags.push(Diagnostic {
            rule,
            file: view.path.to_string(),
            line: line + 1,
            message,
            excerpt: view.s.raw[line].trim().to_string(),
            allowed: is_allowed(view.s, line, rule),
        });
    }

    /// Collects observability-name string literals from non-test code.
    /// Integration-test and bench files are not emission sites: names
    /// appearing there (assertions, snapshot probes) carry no doc duty.
    fn collect_obs_names(&mut self, path: &str, s: &Scanned) {
        if path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/") {
            return;
        }
        for line in 0..s.code.len() {
            if s.is_test[line] {
                continue;
            }
            for (_, lit) in s.line_strings(line) {
                if is_dynamic_obs_name(&lit) {
                    self.flow_diags.push(Diagnostic {
                        rule: "obs-drift",
                        file: path.to_string(),
                        line: line + 1,
                        message: format!(
                            "dynamic observability name `{lit}`: a format template defeats the \
                             doc-drift check; use one static name per case"
                        ),
                        excerpt: s.raw[line].trim().to_string(),
                        allowed: is_allowed(s, line, "obs-drift"),
                    });
                } else if is_obs_name(&lit) {
                    self.obs_uses.push(ObsUse {
                        file: path.to_string(),
                        line,
                        name: lit,
                        excerpt: s.raw[line].trim().to_string(),
                        allowed: is_allowed(s, line, "obs-drift"),
                    });
                }
            }
        }
    }

    /// obs-drift: both directions between code literals and the catalog.
    fn check_obs_drift(&mut self, doc: &str, diags: &mut Vec<Diagnostic>) {
        let documented = doc_names(doc);
        for u in &self.obs_uses {
            let covered = documented.iter().any(|d| name_matches(&d.pattern, &u.name));
            if !covered {
                diags.push(Diagnostic {
                    rule: "obs-drift",
                    file: u.file.clone(),
                    line: u.line + 1,
                    message: format!(
                        "observability name `{}` is not documented in docs/OBSERVABILITY.md",
                        u.name
                    ),
                    excerpt: u.excerpt.clone(),
                    allowed: u.allowed,
                });
            }
        }
        for d in &documented {
            let exists = self
                .obs_uses
                .iter()
                .any(|u| name_matches(&d.pattern, &u.name));
            if !exists {
                diags.push(Diagnostic {
                    rule: "obs-drift",
                    file: "docs/OBSERVABILITY.md".to_string(),
                    line: d.line + 1,
                    message: format!(
                        "documented observability name `{}` does not exist in code (stale \
                         catalog entry)",
                        d.pattern
                    ),
                    excerpt: d.excerpt.clone(),
                    allowed: false,
                });
            }
        }
    }
}

/// True when `lit` is a checkable observability name: a known namespace,
/// a dot, and a lowercase dotted tail that is not a file name.
fn is_obs_name(lit: &str) -> bool {
    let Some(dot) = lit.find('.') else {
        return false;
    };
    let (ns, rest) = (&lit[..dot], &lit[dot + 1..]);
    !rest.is_empty()
        && OBS_NAMESPACES.contains(&ns)
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && !NON_NAME_SUFFIXES.iter().any(|s| lit.ends_with(s))
}

/// True when `lit` is an observability name *template* (`lh.{op}_seconds`).
fn is_dynamic_obs_name(lit: &str) -> bool {
    let Some(dot) = lit.find('.') else {
        return false;
    };
    OBS_NAMESPACES.contains(&&lit[..dot]) && (lit.contains('{') || lit.contains('}'))
}

/// Extracts every documented name from the catalog: inline-backtick spans
/// whose text is a (possibly brace-grouped or `*`-wildcarded) dotted
/// lowercase name in a known namespace. `lh.requests_hops_{0,1,2,gt2}`
/// expands to four names; `core.ingest_*_per_sec` stays a wildcard.
fn doc_names(doc: &str) -> Vec<DocName> {
    let mut out: Vec<DocName> = Vec::new();
    for (li, line) in doc.lines().enumerate() {
        let mut spans: Vec<&str> = Vec::new();
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            spans.push(&after[..close]);
            rest = &after[close + 1..];
        }
        for span in spans {
            if span.is_empty()
                || !span.chars().all(|c| {
                    c.is_ascii_lowercase()
                        || c.is_ascii_digit()
                        || matches!(c, '_' | '.' | ',' | '{' | '}' | '*')
                })
            {
                continue;
            }
            for name in expand_braces(span) {
                if is_obs_name(&name.replace('*', "x")) && !out.iter().any(|d| d.pattern == name) {
                    out.push(DocName {
                        pattern: name,
                        line: li,
                        excerpt: line.trim().to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Expands `{a,b,c}` alternation groups (possibly several per name).
fn expand_braces(s: &str) -> Vec<String> {
    let Some(open) = s.find('{') else {
        return vec![s.to_string()];
    };
    let Some(close) = s[open..].find('}').map(|c| open + c) else {
        return Vec::new(); // unbalanced — not a name
    };
    let (prefix, group, suffix) = (&s[..open], &s[open + 1..close], &s[close + 1..]);
    group
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{prefix}{alt}{suffix}")))
        .collect()
}

/// Matches a code name against a documented pattern (`*` wildcards).
fn name_matches(pattern: &str, name: &str) -> bool {
    if !pattern.contains('*') {
        return pattern == name;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut rest = name;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            let Some(r) = rest.strip_prefix(part) else {
                return false;
            };
            rest = r;
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else if let Some(found) = rest.find(part) {
            rest = &rest[found + part.len()..];
        } else {
            return false;
        }
    }
    true
}

/// Parses the `Wire` enum declaration out of the codec file: variant
/// names are the uppercase-initial first tokens of depth-1 lines.
fn parse_wire_enum(s: &Scanned) -> Vec<VariantDecl> {
    let mut out = Vec::new();
    let start = s
        .code
        .iter()
        .position(|l| {
            let t = idents(l);
            t.contains(&"enum") && t.contains(&"Wire")
        })
        .unwrap_or(s.code.len());
    let mut depth = 0i64;
    let mut entered = false;
    for li in start..s.code.len() {
        let line = &s.code[li];
        if entered && depth == 1 {
            let trimmed = line.trim_start();
            if trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                if let Some(name) = idents(trimmed).first() {
                    out.push(VariantDecl {
                        name: name.to_string(),
                        line: li,
                        excerpt: s.raw[li].trim().to_string(),
                        allowed: is_allowed(s, li, "protocol-coverage"),
                    });
                }
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => {
                    depth -= 1;
                    if entered && depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// One `fn` item of a file.
#[derive(Debug)]
struct FnDecl {
    name: String,
    /// Header text from `fn` to the body brace, whitespace removed.
    header: String,
    /// The body region (`None` for trait-method declarations).
    body: Option<Region>,
}

impl FnDecl {
    /// True for protocol handler functions: they return the outgoing
    /// message batch `Vec<(SiteId, Wire)>`.
    fn is_wire_fn(&self) -> bool {
        self.header.contains("Vec<(SiteId,Wire)>")
    }
}

/// Per-file working view: char-indexed code plane plus the brace tree.
struct FileView<'a> {
    path: &'a str,
    s: &'a Scanned,
    code: Vec<Vec<char>>,
    tree: BraceTree,
}

impl<'a> FileView<'a> {
    fn new(path: &'a str, s: &'a Scanned) -> FileView<'a> {
        FileView {
            path,
            s,
            code: s.code.iter().map(|l| l.chars().collect()).collect(),
            tree: BraceTree::build(s),
        }
    }

    fn at(&self, pos: Pos) -> Option<char> {
        self.code.get(pos.0)?.get(pos.1).copied()
    }

    /// The position after `pos`, crossing line ends.
    fn advance(&self, pos: Pos) -> Pos {
        let (li, ci) = pos;
        if li >= self.code.len() {
            return pos;
        }
        if ci + 1 < self.code[li].len() {
            (li, ci + 1)
        } else {
            (li + 1, 0)
        }
    }

    /// First non-space position at or after `pos`.
    fn skip_ws(&self, mut pos: Pos) -> Option<Pos> {
        while pos.0 < self.code.len() {
            match self.at(pos) {
                Some(c) if c != ' ' && c != '\t' => return Some(pos),
                Some(_) => pos = self.advance(pos),
                None => pos = (pos.0 + 1, 0),
            }
        }
        None
    }

    /// Up to `n` characters starting at `pos`, line breaks as spaces.
    fn peek_text(&self, mut pos: Pos, n: usize) -> String {
        let mut out = String::new();
        while out.len() < n && pos.0 < self.code.len() {
            match self.at(pos) {
                Some(c) => {
                    out.push(c);
                    pos = self.advance(pos);
                }
                None => {
                    out.push(' ');
                    pos = (pos.0 + 1, 0);
                }
            }
        }
        out
    }

    /// Every classified `Wire::Variant` occurrence in non-test code.
    fn wire_occurrences(&self) -> Vec<Occurrence> {
        let mut out = Vec::new();
        let in_handler = HANDLER_FILES.contains(&self.path);
        for li in 0..self.code.len() {
            if self.s.is_test[li] {
                continue;
            }
            let line = &self.code[li];
            let mut ci = 0;
            while ci + 6 <= line.len() {
                if line[ci..ci + 6] != ['W', 'i', 'r', 'e', ':', ':'] {
                    ci += 1;
                    continue;
                }
                let prev_ok = ci == 0 || {
                    let p = line[ci - 1];
                    !(p.is_alphanumeric() || p == '_' || p == ':')
                };
                let mut end = ci + 6;
                while end < line.len() && (line[end].is_alphanumeric() || line[end] == '_') {
                    end += 1;
                }
                let name: String = line[ci + 6..end].iter().collect();
                let named = if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    let (kind, arm_arrow) = self.classify((li, ci), (li, end));
                    Some((name, kind, arm_arrow))
                } else {
                    borrowed_encoder_variant(&name).map(|v| (v, Kind::Send, None))
                };
                if let (true, Some((variant, kind, arm_arrow))) = (prev_ok, named) {
                    out.push(Occurrence {
                        file: self.path.to_string(),
                        pos: (li, ci),
                        variant,
                        kind,
                        arm_arrow,
                        in_handler_file: in_handler,
                        excerpt: self.s.raw[li].trim().to_string(),
                        allowed_coverage: is_allowed(self.s, li, "protocol-coverage"),
                    });
                }
                ci = end;
            }
        }
        out
    }

    /// Pattern-vs-expression classification (see module docs).
    fn classify(&self, start: Pos, name_end: Pos) -> (Kind, Option<Pos>) {
        if self.inside_matches_bang(start) {
            return (Kind::Pattern, None);
        }
        // skip an attached braced body `{ .. }`
        let mut cur = name_end;
        if let Some(p) = self.skip_ws(cur) {
            if self.at(p) == Some('{') {
                if let Some(idx) = self.tree.span_opening_at(p) {
                    cur = self.advance(self.tree.spans[idx].close);
                }
            }
        }
        // skip whitespace and closing parens of enclosing tuple patterns
        let mut p = cur;
        loop {
            match self.skip_ws(p) {
                Some(q) if self.at(q) == Some(')') => p = self.advance(q),
                Some(q) => {
                    p = q;
                    break;
                }
                None => return (Kind::Send, None),
            }
        }
        let look = self.peek_text(p, 24);
        if look.starts_with("=>") {
            return (Kind::Pattern, Some(p));
        }
        if look.starts_with('|') && !look.starts_with("||") {
            return (Kind::Pattern, None);
        }
        if look.starts_with('=') && !look.starts_with("==") {
            return (Kind::Pattern, None); // refutable `let` binding
        }
        if look.starts_with("if") && idents(&look).first() == Some(&"if") {
            // match-arm guard: the arrow follows the guard expression
            return (Kind::Pattern, self.find_arrow(p));
        }
        (Kind::Send, None)
    }

    /// True when `start` sits inside the pattern argument of `matches!(..)`.
    fn inside_matches_bang(&self, start: Pos) -> bool {
        let (mut pdepth, mut bdepth, mut steps) = (0i64, 0i64, 0usize);
        let mut pos = start;
        loop {
            // step backward one char, crossing line starts
            pos = if pos.1 > 0 {
                (pos.0, pos.1 - 1)
            } else if pos.0 > 0 {
                let li = pos.0 - 1;
                (li, self.code[li].len().max(1) - 1)
            } else {
                return false;
            };
            steps += 1;
            if steps > 4000 {
                return false;
            }
            match self.at(pos) {
                Some(')') => pdepth += 1,
                Some('(') => {
                    if pdepth > 0 {
                        pdepth -= 1;
                    } else {
                        return self.text_ends_with(pos, "matches!");
                    }
                }
                Some('}') => bdepth += 1,
                Some('{') => {
                    if bdepth > 0 {
                        bdepth -= 1;
                    } else {
                        return false;
                    }
                }
                Some(';') if pdepth == 0 && bdepth == 0 => return false,
                _ => {}
            }
        }
    }

    /// True when the non-space text directly before `pos` ends in `needle`.
    fn text_ends_with(&self, pos: Pos, needle: &str) -> bool {
        let mut want: Vec<char> = needle.chars().collect();
        let mut cur = pos;
        loop {
            cur = if cur.1 > 0 {
                (cur.0, cur.1 - 1)
            } else if cur.0 > 0 {
                let li = cur.0 - 1;
                if self.code[li].is_empty() {
                    (li, 0)
                } else {
                    (li, self.code[li].len() - 1)
                }
            } else {
                return false;
            };
            match self.at(cur) {
                Some(' ') | Some('\t') | None => {
                    if want.len() == needle.chars().count() {
                        continue; // still skipping trailing whitespace
                    }
                    return false;
                }
                Some(c) => match want.pop() {
                    Some(w) if w == c => {
                        if want.is_empty() {
                            return true;
                        }
                    }
                    _ => return false,
                },
            }
        }
    }

    /// Forward-scans from `pos` for the arm's `=>` at delimiter depth 0.
    fn find_arrow(&self, pos: Pos) -> Option<Pos> {
        let mut depth = 0i64;
        let mut cur = pos;
        for _ in 0..4000 {
            match self.at(cur) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some('=') if depth == 0 && self.at(self.advance(cur)) == Some('>') => {
                    return Some(cur);
                }
                None if cur.0 >= self.code.len() => return None,
                _ => {}
            }
            cur = self.advance(cur);
            if cur.1 == 0 && self.code.get(cur.0).is_some_and(|l| l.is_empty()) {
                cur = (cur.0 + 1, 0);
            }
        }
        None
    }

    /// The match-arm body region after the `=>` at `arrow`: a braced
    /// block's interior, or the expression up to the arm-separating `,`.
    fn arm_body(&self, arrow: Pos) -> Option<Region> {
        let start = self.skip_ws(self.advance(self.advance(arrow)))?;
        if self.at(start) == Some('{') {
            let idx = self.tree.span_opening_at(start)?;
            return Some(Region {
                start: self.advance(start),
                end: self.tree.spans[idx].close,
            });
        }
        // expression arm: runs to the `,` (or the match's `}`) at depth 0
        let mut depth = 0i64;
        let mut cur = start;
        for _ in 0..8000 {
            match self.at(cur) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('}') => {
                    if depth == 0 {
                        return Some(Region { start, end: cur });
                    }
                    depth -= 1;
                }
                Some(',') if depth == 0 => return Some(Region { start, end: cur }),
                None if cur.0 >= self.code.len() => return Some(Region { start, end: cur }),
                _ => {}
            }
            cur = self.advance(cur);
        }
        Some(Region { start, end: cur })
    }

    /// All `fn` items of the file.
    fn find_fns(&self) -> Vec<FnDecl> {
        let mut out = Vec::new();
        for li in 0..self.code.len() {
            let line_str: String = self.code[li].iter().collect();
            if !idents(&line_str).contains(&"fn") {
                continue;
            }
            // column of the `fn` token
            let chars = &self.code[li];
            let mut col = None;
            for ci in 0..chars.len().saturating_sub(1) {
                if chars[ci] == 'f'
                    && chars[ci + 1] == 'n'
                    && (ci == 0 || !(chars[ci - 1].is_alphanumeric() || chars[ci - 1] == '_'))
                    && chars
                        .get(ci + 2)
                        .is_none_or(|c| !(c.is_alphanumeric() || *c == '_'))
                {
                    col = Some(ci);
                    break;
                }
            }
            let Some(col) = col else { continue };
            // name: the ident after `fn`
            let Some(name_start) = self.skip_ws((li, col + 2)) else {
                continue;
            };
            let mut name = String::new();
            let mut p = name_start;
            while let Some(c) = self.at(p) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    p = self.advance(p);
                } else {
                    break;
                }
            }
            if name.is_empty() {
                continue;
            }
            // header runs to the body `{` (or a declaration's `;`)
            let mut header = String::new();
            let mut cur = (li, col);
            let mut body = None;
            for _ in 0..4000 {
                match self.at(cur) {
                    Some('{') => {
                        if let Some(idx) = self.tree.span_opening_at(cur) {
                            body = Some(Region {
                                start: self.advance(cur),
                                end: self.tree.spans[idx].close,
                            });
                        }
                        break;
                    }
                    Some(';') => break,
                    Some(c) => {
                        if c != ' ' && c != '\t' {
                            header.push(c);
                        }
                        cur = self.advance(cur);
                    }
                    None => {
                        if cur.0 >= self.code.len() {
                            break;
                        }
                        cur = (cur.0 + 1, 0);
                    }
                }
            }
            out.push(FnDecl { name, header, body });
        }
        out
    }

    /// If `region` calls exactly one same-file wire-handler function,
    /// returns that function's body (the delegated reply obligation).
    fn delegate_body(&self, region: Region, wire_fns: &[&FnDecl]) -> Option<Region> {
        for li in region.start.0..=region.end.0.min(self.code.len().saturating_sub(1)) {
            let line: String = self.code[li].iter().collect();
            let toks = idents(&line);
            for f in wire_fns {
                if toks.contains(&f.name.as_str()) && line.contains(&format!("{}(", f.name)) {
                    if let Some(body) = f.body {
                        return Some(body);
                    }
                }
            }
        }
        None
    }

    /// Exit paths of a region: every `return` statement plus the final
    /// (fall-through) expression.
    fn exit_paths(&self, region: Region) -> Vec<Pos> {
        let mut out = Vec::new();
        for li in region.start.0..=region.end.0.min(self.code.len().saturating_sub(1)) {
            let line: String = self.code[li].iter().collect();
            if let Some(byte_col) = find_token(&line, "return") {
                let pos = (li, byte_col);
                if region.contains(pos) {
                    out.push(pos);
                }
            }
        }
        // final expression: the last non-space position in the region
        let mut last: Option<Pos> = None;
        for li in region.start.0..=region.end.0.min(self.code.len().saturating_sub(1)) {
            for ci in 0..self.code[li].len() {
                let pos = (li, ci);
                if region.contains(pos) && self.at(pos).is_some_and(|c| c != ' ' && c != '\t') {
                    last = Some(pos);
                }
            }
        }
        if let Some(pos) = last {
            if !out.iter().any(|e| e.0 == pos.0) {
                out.push(pos);
            }
        }
        out
    }

    /// Whether some emission discharges the reply obligation on `exit`:
    /// either it happens inside the exit's own statement (a `return`
    /// whose value constructs the reply), or it happened before the exit
    /// in a control scope the exit is also part of (pushed to the batch
    /// on every path that reaches this exit).
    fn exit_satisfied(&self, exit: Pos, emissions: &[Pos], region: Region) -> bool {
        let stmt_end = self.statement_end(exit, region);
        let exit_scopes = self.control_scopes_in(exit, region);
        emissions.iter().any(|&e| {
            if e >= exit && e <= stmt_end {
                return true;
            }
            e <= exit
                && self
                    .control_scopes_in(e, region)
                    .iter()
                    .all(|s| exit_scopes.contains(s))
        })
    }

    /// Control scopes containing `pos` that open inside `region`.
    fn control_scopes_in(&self, pos: Pos, region: Region) -> Vec<usize> {
        self.tree
            .control_scopes(pos)
            .into_iter()
            .filter(|&i| self.tree.spans[i].open >= region.start)
            .collect()
    }

    /// End of the statement starting at `pos`: the `;` at delimiter
    /// depth 0, bounded by the region end.
    fn statement_end(&self, pos: Pos, region: Region) -> Pos {
        let mut depth = 0i64;
        let mut cur = pos;
        for _ in 0..4000 {
            if !region.contains(cur) && cur > region.start {
                return cur;
            }
            match self.at(cur) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some(';') if depth <= 0 => return cur,
                None if cur.0 >= self.code.len() => return cur,
                _ => {}
            }
            cur = self.advance(cur);
        }
        cur
    }
}

/// Byte column of `token` in `line` as a whole word, if present.
fn find_token(line: &str, token: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(i) = line[from..].find(token).map(|i| i + from) {
        let before_ok = i == 0 || {
            let b = bytes[i - 1] as char;
            !(b.is_ascii_alphanumeric() || b == '_')
        };
        let after = i + token.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after] as char;
            !(b.is_ascii_alphanumeric() || b == '_')
        };
        if before_ok && after_ok {
            return Some(i);
        }
        from = i + token.len();
    }
    None
}
