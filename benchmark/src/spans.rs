//! The harness's own spans, recorded around the calls into each layer.
//! They live in memory while the run measures and are written out once,
//! when it has ended.

use std::io::Write;
use std::time::Instant;

/// One closed span, named `layer.call` (`op.*` for a whole client
/// operation). `parent` is the index of the span that caused it in the
/// same recorder; spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// One thread's span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of a run share `epoch`, so their spans line up.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; it is closed by [`close`](Self::close).
    pub fn open(
        &mut self,
        layer: &'static str,
        call: &'static str,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        let now = self.now_ns();
        self.push(layer, call, now, now, parent, op_id)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a span whose interval is already known.
    pub fn push(
        &mut self,
        layer: &'static str,
        call: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.spans.push(Span {
            layer,
            call,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let op_id = self.spans[parent].op_id;
        let span = self.open(layer, call, Some(parent), op_id);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Share of the `op.*` spans' time that no child layer span accounts
/// for, over the span logs of all threads.
pub fn unattributed_share(threads: &[Vec<Span>]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for spans in threads {
        for (s, own_ns) in spans.iter().zip(self_times(spans)) {
            if s.layer == "op" {
                own += own_ns;
                total += s.end_ns - s.start_ns;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Number and summed duration in seconds of the spans called
/// `layer.call`.
pub fn total(threads: &[Vec<Span>], layer: &str, call: &str) -> (u64, f64) {
    threads
        .iter()
        .flatten()
        .filter(|s| s.layer == layer && s.call == call)
        .fold((0, 0.0), |(n, secs), s| {
            (n + 1, secs + (s.end_ns - s.start_ns) as f64 / 1e9)
        })
}

/// Writes one JSON object per span: `{name, start_ns, end_ns, parent,
/// op_id, thread}`; `parent` is a line number of the same thread's spans
/// or `null`.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"thread\":{thread}}}",
                s.layer, s.call, s.start_ns, s.end_ns, s.op_id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        let (layer, call) = name.split_once('.').unwrap_or((name, ""));
        Span {
            layer,
            call,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("op.insert", 0, 100, None),
            span("core.encrypt_record", 5, 15, Some(0)),
            span("lh.insert_batch", 20, 90, Some(0)),
            // grandchild: counts against its parent, not the root
            span("net.send", 30, 40, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 60, 10]);
        // a second thread's parents index its own log
        let other = vec![
            span("op.get", 0, 100, None),
            span("lh.lookup", 0, 100, Some(0)),
        ];
        assert!((unattributed_share(&[spans, other]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op.search", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            // overhangs the parent's end: only [190, 200) is inside
            span("c", 190, 230, Some(0)),
        ];
        // covered: [110,170) = 60, [190,200) = 10
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = Recorder::new(Instant::now());
        let op = rec.open("op", "get", None, 9);
        let v = rec.child("lh", "lookup", op, || 41 + 1);
        rec.close(op);
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op_id, 9);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let threads = [s.to_vec()];
        assert_eq!(total(&threads, "op", "get").0, 1);
        assert!(total(&threads, "op", "get").1 >= total(&threads, "lh", "lookup").1);
    }
}
