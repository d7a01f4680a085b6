//! Causal distributed tracing with a per-thread ring-buffer flight
//! recorder.
//!
//! A [`TraceContext`] is minted per client operation and propagated on
//! every network envelope; each site opens a child span via
//! [`remote_span`] so one logical operation yields a span *tree* that
//! crosses thread (site) boundaries. Completed spans are [`SpanRecord`]s
//! — all-`Copy`, `&'static str` names — pushed into a fixed-capacity
//! per-thread ring buffer (overwrite-oldest, zero steady-state
//! allocation). [`drain_spans`] or a [`TraceSink`] collects every
//! thread's ring into one chronologically sorted JSONL stream.
//!
//! Recording is gated by a runtime flag ([`set_tracing`]); the default is
//! off, so instrumented code costs one relaxed atomic load per span when
//! tracing is disabled.
//!
//! ```
//! use sdds_obs::trace;
//!
//! trace::set_tracing(true);
//! let root = trace::root_span("client.search");
//! let ctx = root.context(); // propagate on the wire
//! {
//!     let mut child = trace::remote_span("bucket.scan", ctx);
//!     child.set_site(3);
//! }
//! drop(root);
//! let spans = trace::drain_spans();
//! assert_eq!(spans.len(), 2);
//! trace::set_tracing(false);
//! ```

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-operation causal context carried on every network envelope.
///
/// `trace_id` names the whole operation; `parent_span_id` is the span the
/// next hop should parent its own span under. The wire format is two
/// unsigned 64-bit integers (see `docs/PROTOCOL.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifier shared by every span of one client operation.
    pub trace_id: u64,
    /// Span id of the sender-side span that caused this message.
    pub parent_span_id: u64,
}

/// One completed span. All fields are `Copy` (the name is a `&'static
/// str`) so pushing a record into the flight recorder never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Identifier shared by every span of one client operation.
    pub trace_id: u64,
    /// Unique (per process) identifier of this span; never 0.
    pub span_id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent_span_id: u64,
    /// Static span name, e.g. `client.search` or `bucket.scan`.
    pub name: &'static str,
    /// Site (bucket address or site id) that executed the span; -1 for
    /// client-side spans.
    pub site: i64,
    /// Span-specific payload (hop count, candidate count, bucket address,
    /// …) — never key material.
    pub detail: u64,
    /// Span start, nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    /// Span duration in nanoseconds (0 for instantaneous events).
    pub duration_nanos: u64,
}

// ---------------------------------------------------------------------------
// Runtime gate, ids, epoch
// ---------------------------------------------------------------------------

/// The runtime gate; off until [`set_tracing`] turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off process-wide.
pub fn set_tracing(on: bool) {
    // ordering: Relaxed — the flag is an independent on/off switch; no
    // other memory accesses are published through it.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn tracing_enabled() -> bool {
    // ordering: Relaxed — see set_tracing.
    ENABLED.load(Ordering::Relaxed)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Unique nonzero span id: a process-wide counter seeded from a random
/// per-process base. The base matters for *cluster* traces — every rank
/// stitches its spans into one tree keyed by `trace_id`, and if each
/// process counted from 1, rank 0's span 3 and rank 2's span 3 would be
/// indistinguishable and parent links would cross-wire. Mixing the pid
/// and wall clock through splitmix64 makes the per-process id ranges
/// disjoint with overwhelming probability.
fn next_span_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let counter = NEXT.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        AtomicU64::new(splitmix64(pid ^ nanos.rotate_left(17)))
    });
    loop {
        // ordering: Relaxed — fetch_add alone guarantees uniqueness; ids
        // carry no happens-before obligations.
        let id = counter.fetch_add(1, Ordering::Relaxed);
        if id != 0 {
            return id;
        }
    }
}

/// Unique nonzero trace id (splitmix64 of a counter, so concurrent
/// operations get visually distinct ids).
fn next_trace_id() -> u64 {
    loop {
        let id = splitmix64(next_span_id());
        if id != 0 {
            return id;
        }
    }
}

/// Process trace epoch: `start_nanos` is measured from the first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Flight recorder: per-thread rings
// ---------------------------------------------------------------------------

/// Default per-thread ring capacity (spans). A site-runtime worker
/// records the spans of every site of its process, and a bulk insert is
/// thousands of `bucket.request` spans between two drains.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

fn ring_capacity() -> &'static AtomicUsize {
    static CAP: OnceLock<AtomicUsize> = OnceLock::new();
    CAP.get_or_init(|| AtomicUsize::new(DEFAULT_RING_CAPACITY))
}

/// Sets the capacity used by rings created *after* this call (each thread
/// allocates its ring on first span). Clamped to at least 2. Existing
/// rings keep their capacity.
pub fn set_ring_capacity(spans: usize) {
    // ordering: Relaxed — capacity is advisory configuration read once
    // per thread at ring creation.
    ring_capacity().store(spans.max(2), Ordering::Relaxed);
}

/// Fixed-capacity overwrite-oldest span buffer. `slots` is preallocated
/// to capacity once; after the first wrap `next` is the oldest slot.
struct Ring {
    slots: Vec<SpanRecord>,
    next: usize,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring {
            slots: Vec::with_capacity(cap),
            next: 0,
        }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.slots.len() < self.slots.capacity() {
            self.slots.push(rec);
        } else {
            self.slots[self.next] = rec;
            self.next = (self.next + 1) % self.slots.len();
        }
    }

    /// Oldest-to-newest drain; leaves the ring empty.
    fn drain_into(&mut self, out: &mut Vec<SpanRecord>) {
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        self.slots.clear();
        self.next = 0;
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn record(rec: SpanRecord) {
    LOCAL_RING.with(|cell| {
        let mut local = cell.borrow_mut();
        let ring = local.get_or_insert_with(|| {
            // ordering: Relaxed — see set_ring_capacity.
            let cap = ring_capacity().load(Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring::with_capacity(cap)));
            rings()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        // Uncontended in steady state: only drains from other threads
        // ever touch this lock.
        ring.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    });
}

/// Collects (and clears) every thread's ring, sorted by `start_nanos`.
pub fn drain_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in rings().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        ring.lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain_into(&mut out);
    }
    out.sort_by_key(|r| (r.start_nanos, r.span_id));
    out
}

// ---------------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------------

struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    name: &'static str,
    site: i64,
    detail: u64,
    start: Instant,
    start_nanos: u64,
}

/// RAII guard for an open span; records a [`SpanRecord`] on drop. Inert
/// (records nothing, `context()` is `None`) when tracing is disabled or
/// the guard came from [`remote_span`] with no incoming context.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl SpanGuard {
    fn open(name: &'static str, trace_id: u64, parent_span_id: u64) -> SpanGuard {
        let span_id = next_span_id();
        SPAN_STACK.with(|s| s.borrow_mut().push((trace_id, span_id)));
        SpanGuard {
            inner: Some(OpenSpan {
                trace_id,
                span_id,
                parent_span_id,
                name,
                site: -1,
                detail: 0,
                start: Instant::now(),
                start_nanos: now_nanos(),
            }),
        }
    }

    fn inert() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// The context a child (next hop, spawned work) should parent under,
    /// or `None` when this guard is inert.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|s| TraceContext {
            trace_id: s.trace_id,
            parent_span_id: s.span_id,
        })
    }

    /// Whether this guard will record a span on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Tags the span with the executing site (bucket address / site id).
    pub fn set_site(&mut self, site: i64) {
        if let Some(s) = &mut self.inner {
            s.site = site;
        }
    }

    /// Tags the span with a numeric payload (hops, candidates, …).
    pub fn set_detail(&mut self, detail: u64) {
        if let Some(s) = &mut self.inner {
            s.detail = detail;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are scoped, so the top of the stack is ours; be
            // defensive anyway and remove by span id.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == s.span_id) {
                stack.remove(pos);
            }
        });
        record(SpanRecord {
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent_span_id: s.parent_span_id,
            name: s.name,
            site: s.site,
            detail: s.detail,
            start_nanos: s.start_nanos,
            duration_nanos: s.start.elapsed().as_nanos() as u64,
        });
    }
}

/// The context a child of the innermost open span on this thread should
/// use, or `None` when no span is open (or tracing is off).
pub fn current_context() -> Option<TraceContext> {
    if !tracing_enabled() {
        return None;
    }
    SPAN_STACK.with(|s| {
        s.borrow().last().map(|&(trace_id, span_id)| TraceContext {
            trace_id,
            parent_span_id: span_id,
        })
    })
}

/// Opens a root span: a fresh trace id, no parent. One per client
/// operation (insert / search / delete / recover).
pub fn root_span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    SpanGuard::open(name, next_trace_id(), 0)
}

/// Opens a span parented under the innermost open span on this thread;
/// starts a new trace when none is open. Use for same-thread children
/// (client-side phases of one operation).
pub fn child_span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    match current_context() {
        Some(ctx) => SpanGuard::open(name, ctx.trace_id, ctx.parent_span_id),
        None => SpanGuard::open(name, next_trace_id(), 0),
    }
}

/// Opens a span parented under a context received from another site.
/// Inert when `ctx` is `None` (untraced message) — internal chatter never
/// fabricates orphan roots.
pub fn remote_span(name: &'static str, ctx: Option<TraceContext>) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    match ctx {
        Some(ctx) => SpanGuard::open(name, ctx.trace_id, ctx.parent_span_id),
        None => SpanGuard::inert(),
    }
}

/// Records an instantaneous event (zero-duration span) under `ctx` — used
/// for things with no extent, e.g. a simulated network drop.
pub fn event(name: &'static str, ctx: TraceContext, site: i64, detail: u64) {
    if !tracing_enabled() {
        return;
    }
    record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: next_span_id(),
        parent_span_id: ctx.parent_span_id,
        name,
        site,
        detail,
        start_nanos: now_nanos(),
        duration_nanos: 0,
    });
}

// ---------------------------------------------------------------------------
// JSONL serialization
// ---------------------------------------------------------------------------

impl SpanRecord {
    /// One JSON object, no trailing newline.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"span_id\":{},\"parent_span_id\":{},\"name\":{},\"site\":{},\"detail\":{},\"start_nanos\":{},\"duration_nanos\":{}}}",
            self.trace_id,
            self.span_id,
            self.parent_span_id,
            crate::quote(self.name),
            self.site,
            self.detail,
            self.start_nanos,
            self.duration_nanos,
        )
    }
}

/// A [`SpanRecord`] parsed back from its JSONL form (the name is owned —
/// parsing cannot mint `&'static str`s).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// See [`SpanRecord::trace_id`].
    pub trace_id: u64,
    /// See [`SpanRecord::span_id`].
    pub span_id: u64,
    /// See [`SpanRecord::parent_span_id`].
    pub parent_span_id: u64,
    /// See [`SpanRecord::name`].
    pub name: String,
    /// See [`SpanRecord::site`].
    pub site: i64,
    /// See [`SpanRecord::detail`].
    pub detail: u64,
    /// See [`SpanRecord::start_nanos`].
    pub start_nanos: u64,
    /// See [`SpanRecord::duration_nanos`].
    pub duration_nanos: u64,
}

fn json_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let tag = format!("\"{field}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_u64(line: &str, field: &str) -> Option<u64> {
    json_field(line, field)?.parse().ok()
}

fn json_i64(line: &str, field: &str) -> Option<i64> {
    json_field(line, field)?.parse().ok()
}

impl ParsedSpan {
    /// Parses one line produced by [`SpanRecord::to_json_line`]; `None`
    /// on malformed input.
    pub fn parse(line: &str) -> Option<ParsedSpan> {
        let name_raw = json_field(line, "name")?;
        let name = name_raw.strip_prefix('"')?.strip_suffix('"')?;
        Some(ParsedSpan {
            trace_id: json_u64(line, "trace_id")?,
            span_id: json_u64(line, "span_id")?,
            parent_span_id: json_u64(line, "parent_span_id")?,
            name: name.replace("\\\"", "\"").replace("\\\\", "\\"),
            site: json_i64(line, "site")?,
            detail: json_u64(line, "detail")?,
            start_nanos: json_u64(line, "start_nanos")?,
            duration_nanos: json_u64(line, "duration_nanos")?,
        })
    }
}

/// Drains the flight recorder to a [`Write`] as JSON Lines. Every
/// [`drain`](TraceSink::drain) flushes its batch, so a crash between
/// drains loses only spans recorded since the previous one; dropping the
/// sink performs a final best-effort drain-and-flush, so long-lived sinks
/// no longer silently discard the tail of a run.
pub struct TraceSink<W: Write> {
    /// `None` only once [`into_inner`](TraceSink::into_inner) has disarmed
    /// the `Drop` drain.
    writer: Option<W>,
}

impl<W: Write> TraceSink<W> {
    /// Wraps `writer`; nothing is written until [`TraceSink::drain`].
    pub fn new(writer: W) -> TraceSink<W> {
        TraceSink {
            writer: Some(writer),
        }
    }

    /// Drains every ring and writes one JSONL line per span (sorted by
    /// start time), then flushes the batch. Returns the number of spans
    /// written.
    pub fn drain(&mut self) -> io::Result<usize> {
        let Some(writer) = self.writer.as_mut() else {
            return Ok(0);
        };
        let spans = drain_spans();
        for s in &spans {
            writer.write_all(s.to_json_line().as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        Ok(spans.len())
    }

    /// Unwraps the inner writer after a final drain-and-flush.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.drain()?;
        // lint: allow(panic-freedom) -- the writer is only None after this method or Drop, both of which consume the sink
        Ok(self.writer.take().expect("sink already consumed"))
    }
}

impl<W: Write> Drop for TraceSink<W> {
    fn drop(&mut self) {
        // Best-effort: spans recorded after the last explicit drain still
        // reach the writer when the sink goes out of scope. Errors are
        // unreportable here and deliberately ignored.
        let _ = self.drain();
    }
}

/// Parses a JSONL trace dump (as produced by [`TraceSink`]) tolerantly:
/// malformed lines — typically the single truncated trailing line a
/// `kill -9` mid-write leaves behind — are skipped and counted rather
/// than poisoning the whole file. Returns the spans in file order and the
/// number of lines skipped.
pub fn parse_jsonl(text: &str) -> (Vec<ParsedSpan>, usize) {
    let mut spans = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match ParsedSpan::parse(line) {
            Some(s) => spans.push(s),
            None => skipped += 1,
        }
    }
    (spans, skipped)
}

// ---------------------------------------------------------------------------
// Cross-process trace stitching
// ---------------------------------------------------------------------------

/// One span in a stitched cluster trace, tagged with the rank whose
/// flight recorder shipped it (`-1` for spans drained locally, e.g. the
/// client process's own recorder).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSpan {
    /// Scrape origin rank, or -1 when the span came from the local drain.
    pub rank: i64,
    /// The parsed span record.
    pub span: ParsedSpan,
}

/// One logical operation's spans, stitched across process boundaries into
/// a parent-linked tree keyed by `trace_id`. Built by [`stitch`].
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id shared by every span in this tree.
    pub trace_id: u64,
    /// All spans of the trace, sorted by (`start_nanos`, `span_id`).
    /// Note: start times are per-process monotonic nanos, so cross-rank
    /// ordering is approximate — parent links are the causal truth.
    pub spans: Vec<RankedSpan>,
    /// `children[i]` holds indices into `spans` whose parent is span `i`.
    pub children: Vec<Vec<usize>>,
    /// Indices of root spans (`parent_span_id == 0`).
    pub roots: Vec<usize>,
    /// Indices of spans whose nonzero parent id matches no span in the
    /// tree — evidence of a lost ring slot or a rank that failed to ship.
    pub orphans: Vec<usize>,
}

impl TraceTree {
    /// A fully stitched operation: exactly one root, every other span
    /// reachable from it via parent links.
    pub fn is_connected(&self) -> bool {
        self.roots.len() == 1 && self.orphans.is_empty()
    }

    /// Distinct scrape ranks (≥ 0) contributing spans, ascending.
    pub fn ranks(&self) -> Vec<i64> {
        let mut ranks: Vec<i64> = self
            .spans
            .iter()
            .map(|s| s.rank)
            .filter(|&r| r >= 0)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Renders the tree as indented ASCII, one span per line, children
    /// under parents (orphans listed last at the top level).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &root in &self.roots {
            self.render_at(root, 0, &mut out);
        }
        for &orphan in &self.orphans {
            out.push_str("(orphan)\n");
            self.render_at(orphan, 1, &mut out);
        }
        out
    }

    fn render_at(&self, idx: usize, depth: usize, out: &mut String) {
        let s = &self.spans[idx];
        let origin = if s.rank >= 0 {
            format!("rank {}", s.rank)
        } else {
            "local".to_string()
        };
        out.push_str(&format!(
            "{}{} [{} site={} detail={} {:.3}ms]\n",
            "  ".repeat(depth),
            s.span.name,
            origin,
            s.span.site,
            s.span.detail,
            s.span.duration_nanos as f64 / 1e6,
        ));
        for &child in &self.children[idx] {
            self.render_at(child, depth + 1, out);
        }
    }
}

/// Groups spans by `trace_id` and parent-links each group into a
/// [`TraceTree`]. Trees come back ordered by the earliest span start
/// within each trace (per-process clocks, so approximate across ranks).
pub fn stitch(mut spans: Vec<RankedSpan>) -> Vec<TraceTree> {
    spans.sort_by_key(|s| (s.span.trace_id, s.span.start_nanos, s.span.span_id));
    let mut trees = Vec::new();
    let mut start = 0;
    while start < spans.len() {
        let trace_id = spans[start].span.trace_id;
        let mut end = start;
        while end < spans.len() && spans[end].span.trace_id == trace_id {
            end += 1;
        }
        let group: Vec<RankedSpan> = spans[start..end].to_vec();
        start = end;

        let mut by_id = std::collections::HashMap::with_capacity(group.len());
        for (i, s) in group.iter().enumerate() {
            by_id.entry(s.span.span_id).or_insert(i);
        }
        let mut children = vec![Vec::new(); group.len()];
        let mut roots = Vec::new();
        let mut orphans = Vec::new();
        for (i, s) in group.iter().enumerate() {
            if s.span.parent_span_id == 0 {
                roots.push(i);
            } else {
                match by_id.get(&s.span.parent_span_id) {
                    Some(&p) if p != i => children[p].push(i),
                    _ => orphans.push(i),
                }
            }
        }
        trees.push(TraceTree {
            trace_id,
            spans: group,
            children,
            roots,
            orphans,
        });
    }
    trees.sort_by_key(|t| t.spans.first().map_or(0, |s| s.span.start_nanos));
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let rec = SpanRecord {
            trace_id: 0xDEAD_BEEF_0123_4567,
            span_id: 2,
            parent_span_id: 3,
            name: "test.\"quoted\"",
            site: -1,
            detail: 9,
            start_nanos: 17,
            duration_nanos: 23,
        };
        let parsed = ParsedSpan::parse(&rec.to_json_line()).expect("parses");
        assert_eq!(parsed.trace_id, rec.trace_id);
        assert_eq!(parsed.span_id, rec.span_id);
        assert_eq!(parsed.parent_span_id, rec.parent_span_id);
        assert_eq!(parsed.name, "test.\"quoted\"");
        assert_eq!(parsed.site, -1);
        assert_eq!(parsed.detail, 9);
        assert_eq!(parsed.start_nanos, 17);
        assert_eq!(parsed.duration_nanos, 23);
        assert!(ParsedSpan::parse("not a span").is_none());
        assert!(ParsedSpan::parse("{\"trace_id\":1}").is_none());
    }

    /// One combined test: `drain_spans` empties the process-global
    /// recorder, so splitting these assertions across parallel `#[test]`
    /// functions would make them steal each other's spans.
    #[test]
    fn flight_recorder_end_to_end() {
        set_tracing(true);

        // Parenting: root → child → remote hand-off, plus an event.
        let (trace_id, root_id, child_id, remote_id) = {
            let root = root_span("test.root");
            let rctx = root.context().expect("recording");
            let child = child_span("test.child");
            let cctx = child.context().expect("recording");
            assert_eq!(cctx.trace_id, rctx.trace_id, "child shares the trace");
            let remote = remote_span("test.remote", child.context());
            let mctx = remote.context().expect("recording");
            event("test.event", mctx, 7, 42);
            (
                rctx.trace_id,
                rctx.parent_span_id,
                cctx.parent_span_id,
                mctx.parent_span_id,
            )
        };
        let inert = remote_span("test.inert", None);
        assert!(!inert.is_recording(), "no context → no span");
        drop(inert);
        let spans = drain_spans();
        let tree: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        assert_eq!(tree.len(), 4, "root + child + remote + event: {tree:?}");
        let find = |name: &str| tree.iter().find(|s| s.name == name).copied().expect(name);
        assert_eq!(find("test.root").parent_span_id, 0);
        assert_eq!(find("test.root").span_id, root_id);
        assert_eq!(find("test.child").parent_span_id, root_id);
        assert_eq!(find("test.child").span_id, child_id);
        assert_eq!(find("test.remote").parent_span_id, child_id);
        assert_eq!(find("test.remote").span_id, remote_id);
        assert_eq!(find("test.event").parent_span_id, remote_id);
        assert_eq!(find("test.event").duration_nanos, 0);
        assert_eq!(find("test.event").site, 7);
        assert_eq!(find("test.event").detail, 42);
        assert!(!spans.iter().any(|s| s.name == "test.inert"));

        // The runtime gate: disabled spans record nothing.
        set_tracing(false);
        let off = root_span("test.off");
        assert!(!off.is_recording());
        drop(off);
        set_tracing(true);
        assert!(!drain_spans().iter().any(|s| s.name == "test.off"));

        // Ring overwrite: a capacity-8 ring keeps only the newest 8 spans.
        set_ring_capacity(8);
        let minted: Vec<u64> = std::thread::spawn(|| {
            (0..20)
                .map(|_| {
                    let s = root_span("test.ring");
                    s.context().expect("recording").trace_id
                })
                .collect()
        })
        .join()
        .expect("ring thread");
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        let survivors: Vec<u64> = drain_spans()
            .iter()
            .filter(|s| s.name == "test.ring")
            .map(|s| s.trace_id)
            .collect();
        assert_eq!(survivors, minted[12..], "newest 8 of 20 survive, in order");

        // Sink lifecycle (here rather than its own #[test]: dropping a
        // sink drains the global recorder, which would steal a parallel
        // test's spans). A sink dropped without an explicit drain still
        // writes and flushes the spans recorded since the last drain.
        let state: Arc<Mutex<(Vec<u8>, usize)>> = Arc::new(Mutex::new((Vec::new(), 0)));
        struct CountingWriter(Arc<Mutex<(Vec<u8>, usize)>>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().expect("writer lock").0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.lock().expect("writer lock").1 += 1;
                Ok(())
            }
        }
        drop(root_span("test.sink_drop"));
        drop(TraceSink::new(CountingWriter(state.clone())));
        {
            let guard = state.lock().expect("writer lock");
            let text = String::from_utf8(guard.0.clone()).expect("utf8 jsonl");
            assert!(
                text.contains("test.sink_drop"),
                "Drop drained the recorder: {text}"
            );
            assert!(guard.1 >= 1, "Drop flushed the writer");
        }
        // into_inner disarms the Drop drain and hands the writer back.
        drop(root_span("test.sink_inner"));
        let sink = TraceSink::new(CountingWriter(state.clone()));
        let _writer = sink.into_inner().expect("into_inner drains");
        let text =
            String::from_utf8(state.lock().expect("writer lock").0.clone()).expect("utf8 jsonl");
        assert!(text.contains("test.sink_inner"));

        set_tracing(false);
    }

    #[test]
    fn stitching_links_cross_rank_spans_into_one_tree() {
        let mk = |trace_id, span_id, parent, name: &str, rank, start| RankedSpan {
            rank,
            span: ParsedSpan {
                trace_id,
                span_id,
                parent_span_id: parent,
                name: name.to_string(),
                site: rank,
                detail: 0,
                start_nanos: start,
                duration_nanos: 1,
            },
        };
        // trace 7: client root (local) → rank 0 handle → rank 2 forward
        // target, plus a same-rank child. trace 9: an orphan (parent
        // never shipped).
        let spans = vec![
            mk(7, 100, 0, "client.search", -1, 10),
            mk(7, 200, 100, "bucket.handle", 0, 20),
            mk(7, 300, 200, "bucket.handle", 2, 30),
            mk(7, 301, 300, "bucket.scan", 2, 31),
            mk(9, 500, 444, "bucket.handle", 1, 5),
        ];
        let trees = stitch(spans);
        assert_eq!(trees.len(), 2);
        // trace 9 starts earlier (start_nanos 5) so it sorts first
        assert_eq!(trees[0].trace_id, 9);
        assert!(!trees[0].is_connected());
        assert_eq!(trees[0].orphans.len(), 1);
        let t7 = &trees[1];
        assert_eq!(t7.trace_id, 7);
        assert!(t7.is_connected(), "single root, no orphans: {t7:?}");
        assert_eq!(t7.ranks(), vec![0, 2], "local client rank excluded");
        // causal chain: root → rank0 → rank2 → scan
        let root = t7.roots[0];
        assert_eq!(t7.spans[root].span.name, "client.search");
        let hop1 = t7.children[root][0];
        assert_eq!(t7.spans[hop1].rank, 0);
        let hop2 = t7.children[hop1][0];
        assert_eq!(t7.spans[hop2].rank, 2);
        assert_eq!(t7.children[hop2].len(), 1);
        let render = t7.render();
        assert!(render.contains("client.search"), "{render}");
        assert!(render.contains("rank 2"), "{render}");
    }

    #[test]
    fn jsonl_reader_skips_and_counts_partial_tail() {
        let rec = SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_span_id: 0,
            name: "test.reader",
            site: 3,
            detail: 4,
            start_nanos: 5,
            duration_nanos: 6,
        };
        let line = rec.to_json_line();
        let mut dump = String::new();
        dump.push_str(&line);
        dump.push('\n');
        dump.push('\n'); // blank lines are ignored, not counted
        dump.push_str(&line);
        dump.push('\n');
        // a kill -9 mid-write leaves a truncated final line, no newline
        dump.push_str(&line[..line.len() / 2]);
        let (spans, skipped) = parse_jsonl(&dump);
        assert_eq!(spans.len(), 2);
        assert_eq!(skipped, 1, "torn tail is counted, not fatal");
        assert!(spans.iter().all(|s| s.name == "test.reader"));
        // a fully well-formed dump skips nothing
        let (spans, skipped) = parse_jsonl(&format!("{line}\n"));
        assert_eq!((spans.len(), skipped), (1, 0));
    }
}
