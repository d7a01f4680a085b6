//! A load-generating client: runs an operation stream against the store,
//! checks every answer, and keeps the latency samples. In a traced
//! repetition each operation runs through its public decomposition with
//! a harness span around every layer call.

use crate::env::Target;
use crate::gen::Op;
use crate::inputs::{Inputs, Query};
use crate::spans::Recorder;
use sdds_core::{IndexPipeline, IngestOptions, IngestScratch, StoreHandle};
use sdds_corpus::Record;
use sdds_lh::LhClient;
use sdds_obs::trace::{self, SpanRecord};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Operation classes, in the order of [`Tally::classes`].
pub const GET: usize = 0;
pub const INSERT: usize = 1;
pub const DELETE: usize = 2;
pub const SEARCH: usize = 3;

/// What one client saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency samples in µs per unit of work, in the order taken: per
    /// class, and all.
    pub classes: [Vec<f64>; 4],
    pub all: Vec<f64>,
    /// Units of work behind each sample of `all`: 1, or the records of a
    /// bulk call.
    pub weights: Vec<u32>,
    /// Operations done; a bulk call counts its records.
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Over searches: RIDs that truly match, RIDs reported, index records
    /// the sites reported as matching.
    pub true_matches: u64,
    pub reported: u64,
    pub matched_index_records: u64,
    pub max_lag_s: f64,
}

impl Tally {
    /// One latency sample of `class`: `micros` per unit over `units` of
    /// work.
    pub fn record(&mut self, class: usize, micros: f64, units: u64) {
        self.classes[class].push(micros);
        self.all.push(micros);
        self.weights.push(units as u32);
        self.units += units;
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 5 {
            self.violations.push(what);
        }
    }

    /// Takes over what `other` attempted and got wrong, not its timings.
    pub fn absorb_counts(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    pub fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes) {
            mine.extend(theirs);
        }
        self.all.extend(other.all);
        self.weights.extend(other.weights);
        self.units += other.units;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.true_matches += other.true_matches;
        self.reported += other.reported;
        self.matched_index_records += other.matched_index_records;
        self.max_lag_s = self.max_lag_s.max(other.max_lag_s);
    }
}

/// The program's own spans, drained from its flight recorder while a
/// traced repetition runs. A traced search claims its `lh.scan` and
/// `search.combine` spans from here by trace id; everything is counted.
#[derive(Default)]
pub struct SpanPool {
    inner: Mutex<(Vec<SpanRecord>, u64)>,
}

impl SpanPool {
    /// Drains the flight recorder; returns the client-side search spans
    /// of `trace_id`.
    pub fn collect(&self, trace_id: Option<u64>) -> Vec<SpanRecord> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let drained = trace::drain_spans();
        inner.1 += drained.len() as u64;
        inner.0.extend(drained.into_iter().filter(|s| {
            s.site == -1 && matches!(s.name, "client.search" | "lh.scan" | "search.combine")
        }));
        let Some(id) = trace_id else {
            return Vec::new();
        };
        let (mine, rest) = std::mem::take(&mut inner.0)
            .into_iter()
            .partition(|s| s.trace_id == id);
        inner.0 = rest;
        mine
    }

    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1
    }
}

/// One load-generating client: its own handle, endpoint and file image.
pub struct Client<'a> {
    handle: StoreHandle,
    lh: LhClient,
    pipeline: &'a IndexPipeline,
    corpus: &'a [Record],
    queries: &'a [Query],
    /// `Some` in a traced repetition: operations then run through their
    /// public decomposition, a harness span around each layer call.
    pub rec: Option<Recorder>,
    pool: &'a SpanPool,
    pub tally: Tally,
    next_op_id: u64,
}

impl<'a> Client<'a> {
    /// A client of `target`. `pipeline` is a pipeline equal to the
    /// store's own (every stage is deterministic in the configuration),
    /// so the client does not borrow a store that may be reopened.
    pub fn new(
        target: &Target,
        pipeline: &'a IndexPipeline,
        inputs: &'a Inputs,
        pool: &'a SpanPool,
        id: u64,
    ) -> Client<'a> {
        Client {
            handle: target.handle(),
            lh: target.lh_client(),
            pipeline,
            corpus: &inputs.corpus,
            queries: &inputs.queries,
            rec: None,
            pool,
            tally: Tally::default(),
            next_op_id: id << 32,
        }
    }

    /// Runs one operation and checks its answer; returns its class and
    /// how many units of work it did.
    fn exec(&mut self, op: &Op) -> (usize, u64) {
        self.next_op_id += 1;
        self.tally.attempted += 1;
        match op {
            Op::Get(i) => {
                let r = &self.corpus[*i as usize];
                match self.get(r) {
                    Ok(Some(rc)) if rc == r.rc => {}
                    other => self.tally.fail(format!("get {} returned {other:?}", r.rid)),
                }
                (GET, 1)
            }
            Op::Insert(i) => {
                let r = &self.corpus[*i as usize];
                if let Err(e) = self.insert(r) {
                    self.tally.fail(format!("insert {} failed: {e}", r.rid));
                }
                (INSERT, 1)
            }
            Op::Delete(i) => {
                let r = &self.corpus[*i as usize];
                match self.delete(r) {
                    Ok(true) => {}
                    other => self
                        .tally
                        .fail(format!("delete {} returned {other:?}", r.rid)),
                }
                (DELETE, 1)
            }
            Op::Search(q) => {
                let queries = self.queries;
                self.search(&queries[*q as usize]);
                (SEARCH, 1)
            }
            Op::Bulk(range) => {
                let records = &self.corpus[range.start as usize..range.end as usize];
                if let Err(e) = self.bulk(records) {
                    self.tally.fail(format!("insert_many failed: {e}"));
                }
                // an insert of many: its sample is the time per record
                (INSERT, records.len() as u64)
            }
        }
    }

    fn get(&mut self, r: &Record) -> Result<Option<String>, String> {
        let Some(rec) = &mut self.rec else {
            return self.handle.get(r.rid).map_err(|e| e.to_string());
        };
        let op = rec.open("op", "get", None, self.next_op_id);
        let key = self.pipeline.lh_key(r.rid, 0);
        let found = rec.child("lh", "lookup", op, || self.lh.lookup(key));
        let out = match found {
            Ok(Some(ct)) => rec
                .child("core", "decrypt_record", op, || {
                    self.pipeline.decrypt_record(r.rid, &ct)
                })
                .map(Some)
                .map_err(|e| e.to_string()),
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        };
        rec.close(op);
        out
    }

    fn insert(&mut self, r: &Record) -> Result<(), String> {
        let Some(rec) = &mut self.rec else {
            return self.handle.insert(r.rid, &r.rc).map_err(|e| e.to_string());
        };
        let p = self.pipeline;
        let op = rec.open("op", "insert", None, self.next_op_id);
        let sealed = rec.child("core", "encrypt_record", op, || {
            p.encrypt_record(r.rid, &r.rc)
        });
        let index = rec.child("core", "index_records", op, || {
            p.index_records_for(r.rid, &r.rc)
        });
        let mut batch = Vec::with_capacity(1 + index.len());
        batch.push((p.lh_key(r.rid, 0), sealed));
        for i in index {
            batch.push((p.lh_key(r.rid, p.tag(i.chunking, i.site)), i.body));
        }
        let out = rec.child("lh", "insert_batch", op, || self.lh.insert_batch(batch));
        rec.close(op);
        out.map_err(|e| e.to_string())
    }

    fn delete(&mut self, r: &Record) -> Result<bool, String> {
        let Some(rec) = &mut self.rec else {
            return self.handle.delete(r.rid).map_err(|e| e.to_string());
        };
        let op = rec.open("op", "delete", None, self.next_op_id);
        let per = self.pipeline.config().index_records_per_record() as u32;
        let keys: Vec<u64> = (0..=per)
            .map(|tag| self.pipeline.lh_key(r.rid, tag))
            .collect();
        let out = rec.child("lh", "delete_batch", op, || self.lh.delete_batch(keys));
        rec.close(op);
        out.map(|existed| existed.first().copied().unwrap_or(false))
            .map_err(|e| e.to_string())
    }

    /// A search keeps the program's own path also when traced (its
    /// combination step has no public decomposition); the child spans
    /// are then the program's `lh.scan` and `search.combine` spans, and
    /// what precedes the scan is query building and encoding.
    fn search(&mut self, q: &Query) {
        let outcome = match &mut self.rec {
            None => self.handle.search_detailed(&q.pattern),
            Some(rec) => {
                let root = trace::root_span("client.search");
                let trace_id = root.context().map(|c| c.trace_id);
                let op = rec.open("op", "search", None, self.next_op_id);
                let outcome = self.handle.search_detailed(&q.pattern);
                rec.close(op);
                drop(root);
                let (op_start, op_end) = (rec.spans()[op].start_ns, rec.spans()[op].end_ns);
                let program = self.pool.collect(trace_id);
                // the program's clock starts elsewhere: its innermost
                // `client.search` span began when `op` did
                let anchor = program
                    .iter()
                    .filter(|s| s.name == "client.search")
                    .map(|s| s.start_nanos)
                    .max();
                if let Some(anchor) = anchor {
                    let at = |nanos: u64| (op_start + nanos.saturating_sub(anchor)).min(op_end);
                    for s in &program {
                        let (start, end) =
                            (at(s.start_nanos), at(s.start_nanos + s.duration_nanos));
                        match s.name {
                            "lh.scan" => {
                                rec.push(
                                    "core",
                                    "build_query",
                                    op_start,
                                    start,
                                    Some(op),
                                    self.next_op_id,
                                );
                                rec.push("lh", "scan", start, end, Some(op), self.next_op_id);
                            }
                            "search.combine" => {
                                rec.push("core", "combine", start, end, Some(op), self.next_op_id);
                            }
                            _ => {}
                        }
                    }
                }
                outcome
            }
        };
        match outcome {
            Ok(out) => {
                if !q
                    .expect
                    .iter()
                    .all(|rid| out.rids.binary_search(rid).is_ok())
                {
                    self.tally
                        .fail(format!("search {:?} missed a stored record", q.pattern));
                }
                self.tally.true_matches += q.expect.len() as u64;
                self.tally.reported += out.rids.len() as u64;
                self.tally.matched_index_records += out.matched_index_records as u64;
            }
            Err(e) => self
                .tally
                .fail(format!("search {:?} failed: {e}", q.pattern)),
        }
    }

    /// Traced, a bulk call is `insert_many`'s own loop done in the open:
    /// per flush window, transform the records, then one `insert_batch`.
    fn bulk(&mut self, records: &[Record]) -> Result<(), String> {
        let Some(rec) = &mut self.rec else {
            return self
                .handle
                .insert_many(records.iter().map(|r| (r.rid, r.rc.as_str())))
                .map_err(|e| e.to_string());
        };
        let p = self.pipeline;
        let per = 1 + p.config().index_records_per_record();
        let window = IngestOptions::default().flush_index_records.div_ceil(per);
        let mut scratch = IngestScratch::default();
        let mut index = Vec::new();
        for records in records.chunks(window) {
            let op = rec.open("op", "ingest", None, self.next_op_id);
            let batch = rec.child("core", "transform", op, || {
                let mut batch = Vec::with_capacity(records.len() * per);
                for r in records {
                    batch.push((p.lh_key(r.rid, 0), p.encrypt_record(r.rid, &r.rc)));
                    p.index_records_into(r.rid, &r.rc, &mut scratch, &mut index);
                    for i in index.drain(..) {
                        batch.push((p.lh_key(r.rid, p.tag(i.chunking, i.site)), i.body));
                    }
                }
                batch
            });
            let sent = rec.child("lh", "insert_batch", op, || self.lh.insert_batch(batch));
            rec.close(op);
            sent.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Runs a stream; with `arrivals`, open loop from `t0`: each
    /// operation is then timed from its scheduled arrival.
    pub fn run(&mut self, ops: &[Op], arrivals: &[f64], t0: Instant) {
        for (n, op) in ops.iter().enumerate() {
            let due = arrivals.get(n).map(|&a| t0 + Duration::from_secs_f64(a));
            if let Some(due) = due {
                wait_until(due);
            }
            let start = Instant::now();
            let (class, units) = self.exec(op);
            let done = Instant::now();
            let from = match due {
                Some(due) => {
                    let lag = start.saturating_duration_since(due).as_secs_f64();
                    self.tally.max_lag_s = self.tally.max_lag_s.max(lag);
                    due
                }
                None => start,
            };
            let micros = done.saturating_duration_since(from).as_secs_f64() * 1e6 / units as f64;
            self.tally.record(class, micros, units);
            // keep the program's span rings from wrapping uncounted
            if self.rec.is_some() && n % 256 == 255 {
                self.pool.collect(None);
            }
        }
    }
}

/// Sleeps to just before `due`, then spins: a sleep alone overshoots by
/// a share of the latencies being measured.
fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}
