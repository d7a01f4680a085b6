//! One engine runs all five workloads (see [`crate::spec`]). A run
//! repeats the same seeded history on fresh stores and estimates each
//! metric over the slices of all repetitions.

use crate::client::{Client, SpanPool, Tally, DELETE, GET, INSERT, SEARCH};
use crate::env::{self, dir_bytes, Launcher, Storage, Target};
use crate::inputs::Inputs;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder, Span};
use crate::spec::{Options, Pacing, Spec, Stream, BASE_SECONDS, PROBE_SLICES};
use crate::speed::kernel_us;
use crate::stats::{median, percentile_of, quiet, slices};
use sdds_obs::trace;
use sdds_obs::MetricsSnapshot;
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    /// Measured phase by the wall clock: the operation streams and the
    /// reopens.
    wall_s: f64,
    /// The speed kernel, timed between the phases.
    kernel_us: Vec<f64>,
    /// The measured streams.
    tally: Tally,
    /// The end-of-repetition check, which times its searches, and the
    /// probe: the latencies of the classes the streams do not issue.
    check: Tally,
    probe: Tally,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    messages: u64,
    bytes: u64,
    buckets: u64,
    /// One entry per part of a reopening workload's stream.
    reopen_s: Vec<f64>,
    stored_bytes: u64,
    wal_bytes: u64,
    digest: u64,
    spans: Vec<Vec<Span>>,
    program_spans: u64,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `n` of `live`, evenly spaced; all of them when there are fewer.
fn evenly(live: &[u32], n: usize) -> impl Iterator<Item = &u32> {
    live.iter().step_by((live.len() / n.max(1)).max(1)).take(n)
}

/// Output check at the end of a repetition, on the file as the streams
/// left it: reads `rereads` live records again, runs the digest patterns
/// against exact ground truth (every stored match must be reported),
/// timing each search into `tally`, and digests the reported RIDs.
fn verify(target: &Target, inputs: &Inputs, rereads: usize, tally: &mut Tally) -> u64 {
    let handle = target.handle();
    for &i in evenly(&inputs.live, rereads) {
        let r = &inputs.corpus[i as usize];
        tally.attempted += 1;
        match handle.get(r.rid) {
            Ok(Some(rc)) if rc == r.rc => {}
            other => tally.fail(format!("re-read of {} returned {other:?}", r.rid)),
        }
    }
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for q in &inputs.digest_queries {
        tally.attempted += 1;
        let t = Instant::now();
        let found = handle.search(&q.pattern);
        tally.record(SEARCH, micros_since(t), 1);
        match found {
            Ok(rids) => {
                if !q.expect.iter().all(|rid| rids.binary_search(rid).is_ok()) {
                    tally.fail(format!(
                        "check search {:?} missed a stored record",
                        q.pattern
                    ));
                }
                tally.true_matches += q.expect.len() as u64;
                tally.reported += rids.len() as u64;
                for rid in rids {
                    fnv1a(&mut digest, &rid.to_le_bytes());
                }
            }
            Err(e) => tally.fail(format!("check search {:?} failed: {e}", q.pattern)),
        }
    }
    digest
}

/// Waits until the file has stopped restructuring. A scan waits while a
/// split is running or queued, but a bucket's overflow report may still
/// be on its way to the coordinator then; so scan, pause, and scan again
/// until the extent has stayed the same across a pause.
fn settle(target: &Target) -> Result<(), String> {
    let (handle, lh) = (target.handle(), target.lh_client());
    let mut extent = 0;
    loop {
        handle
            .search("########")
            .map_err(|e| format!("settling scan failed: {e}"))?;
        let now = lh
            .refresh_image()
            .map_err(|e| format!("extent request failed: {e}"))?;
        if now == extent {
            return Ok(());
        }
        extent = now;
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_rep(spec: &Spec, opts: &Options, inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    assert!(
        spec.reopens == 0 || (spec.pacing == Pacing::Closed && spec.reopens == spec.slices),
        "a reopening workload is closed-loop and sliced by its parts"
    );
    trace::set_tracing(traced);
    let pool = SpanPool::default();
    let pipeline = env::pipeline(&inputs.corpus);
    let epoch = Instant::now();
    let mut launcher = Launcher {
        fabric: spec.fabric,
        storage: spec.storage,
        corpus: &inputs.corpus,
        seed: opts.seed,
        traced,
        exe: &opts.exe,
        data: None,
    };
    let clients_of = |target: &Target| -> Vec<Client> {
        (0..spec.clients)
            .map(|c| Client::new(target, &pipeline, inputs, &pool, c as u64))
            .collect()
    };

    // set-up: start, preload by single inserts, warm up, let splits settle
    let mut kernel = vec![kernel_us()];
    let mut check = Tally::default();
    let setup = Instant::now();
    let mut target = launcher.start()?;
    let loader = target.handle();
    let preload = &inputs.corpus[inputs.preload.start as usize..inputs.preload.end as usize];
    for r in preload {
        loader
            .insert(r.rid, &r.rc)
            .map_err(|e| format!("preload failed: {e}"))?;
    }
    let mut clients = clients_of(&target);
    std::thread::scope(|scope| {
        for (client, ops) in clients.iter_mut().zip(&inputs.warmup) {
            scope.spawn(move || client.run(ops, &[], epoch));
        }
    });
    for client in &mut clients {
        let warm = std::mem::take(&mut client.tally);
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.violations));
        }
    }
    settle(&target)?;
    let setup_s = setup.elapsed().as_secs_f64();
    kernel.push(kernel_us());

    // measured phase: the streams, in `parts` parts when the store reopens
    pool.collect(None);
    let spans_before = pool.total();
    let before = target.metrics()?;
    let parts = spec.reopens.max(1);
    let part_of = |len: usize, part: usize| -> Range<usize> {
        let step = len.div_ceil(parts);
        (part * step).min(len)..((part + 1) * step).min(len)
    };
    let (mut wall_s, mut tally, mut spans) = (0.0, Tally::default(), Vec::new());
    let (mut messages, mut bytes) = (0, 0);
    let mut reopen_s = Vec::new();
    let (mut wal_bytes, mut digest_before_reopen) = (0, None);
    for part in 0..parts {
        if traced {
            for client in &mut clients {
                client.rec = Some(Recorder::new(epoch));
            }
        }
        // a reopened store has a new fabric, counting from zero
        let (messages0, bytes0) = (target.net_stats().messages(), target.net_stats().bytes());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((client, ops), arrivals) in clients
                .iter_mut()
                .zip(&inputs.measured)
                .zip(&inputs.arrivals)
            {
                let (ops, arrivals) = (
                    &ops[part_of(ops.len(), part)],
                    &arrivals[part_of(arrivals.len(), part)],
                );
                scope.spawn(move || client.run(ops, arrivals, t0));
            }
        });
        wall_s += t0.elapsed().as_secs_f64();
        for client in clients.drain(..) {
            tally.absorb(client.tally);
            spans.extend(client.rec.map(|r| r.spans().to_vec()));
        }
        messages += target.net_stats().messages() - messages0;
        bytes += target.net_stats().bytes() - bytes0;
        if spec.reopens > 0 {
            if part + 1 == parts {
                // the file is final: what a search finds now, it must
                // find again after the restart (the timings that count
                // are those after it)
                let mut before = Tally::default();
                digest_before_reopen = Some(verify(&target, inputs, 0, &mut before));
                check.absorb_counts(before);
                wal_bytes = launcher
                    .data
                    .as_ref()
                    .map_or(0, |d| dir_bytes(d.path(), "wal-"));
            }
            let t = Instant::now();
            target = launcher.reopen(target)?;
            let took = t.elapsed().as_secs_f64();
            wall_s += took;
            reopen_s.push(took);
            clients = clients_of(&target);
        }
    }
    pool.collect(None);
    let program_spans = pool.total() - spans_before;
    let after = target.metrics()?;
    drop(clients);
    kernel.push(kernel_us());

    let buckets = target
        .lh_client()
        .refresh_image()
        .map_err(|e| format!("extent request failed: {e}"))?;
    let stored_bytes = launcher
        .data
        .as_ref()
        .map_or(0, |d| dir_bytes(d.path(), ""));
    let digest = verify(&target, inputs, spec.rereads, &mut check);
    if digest_before_reopen.is_some_and(|d| d != digest) {
        check.fail("search digest changed across the restart".to_string());
    }
    // on a thread of its own, like the streams' clients; the warm-up's
    // answers count, its timings do not
    let probe = {
        let mut prober = Client::new(&target, &pipeline, inputs, &pool, spec.clients as u64);
        let (warmup, measured) = &inputs.probe;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                prober.run(warmup, &[], epoch);
                check.absorb_counts(std::mem::take(&mut prober.tally));
                prober.run(measured, &[], epoch);
            });
        });
        prober.tally
    };
    kernel.push(kernel_us());
    target.shutdown();
    trace::set_tracing(false);
    Ok(Rep {
        setup_s,
        wall_s,
        kernel_us: kernel,
        tally,
        check,
        probe,
        before,
        after,
        messages,
        bytes,
        buckets,
        reopen_s,
        stored_bytes,
        wal_bytes,
        digest,
        spans,
        program_spans,
    })
}

/// Differences of the program's own metrics over a measured phase.
struct Delta<'a>(&'a Rep);

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.0.after).saturating_sub(get(&self.0.before)) as f64
    }

    /// Count and summed seconds a histogram gained.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let get = |s: &MetricsSnapshot| {
            s.histograms
                .get(name)
                .map_or((0, 0.0), |h| (h.count, h.sum_seconds))
        };
        let (c0, s0) = get(&self.0.before);
        let (c1, s1) = get(&self.0.after);
        (c1.saturating_sub(c0) as f64, (s1 - s0).max(0.0))
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs `spec` and reports: the end-to-end metrics from the untraced
/// repetitions, or — traced — the per-layer metrics from one untraced
/// and one traced repetition plus the stand-alone layer measurements.
pub fn run(spec: &Spec, opts: &Options) -> Result<Report, String> {
    let inputs = Inputs::new(spec, opts);
    let mut report = Report::new(spec.name);
    let modes = if opts.traced {
        vec![false, true]
    } else {
        let reps = spec.reps as f64 * f64::from(opts.seconds) / BASE_SECONDS;
        vec![false; reps.round().max(1.0) as usize]
    };
    let mut reps = Vec::new();
    for &traced in &modes {
        reps.push(run_rep(spec, opts, &inputs, traced)?);
    }
    for tally in reps.iter().flat_map(|r| [&r.tally, &r.check, &r.probe]) {
        report.attempted += tally.attempted;
        report.failed += tally.failed;
        for v in &tally.violations {
            report.violation(v.clone());
        }
    }
    // the LH* bound, over everything this process ever asked for
    let hops_gt2 = MetricsSnapshot::capture()
        .counters
        .get("lh.requests_hops_gt2")
        .copied();
    if hops_gt2.unwrap_or(0) > 0 {
        report.violation("a request took more than two forwarding hops".to_string());
    }
    if reps.iter().any(|r| r.digest != reps[0].digest) {
        report.violation("repetitions of one history disagree on the search digest".to_string());
    }

    let untraced: Vec<&Rep> = reps
        .iter()
        .zip(&modes)
        .filter(|(_, &t)| !t)
        .map(|(r, _)| r)
        .collect();
    end_to_end(&mut report, spec, &untraced);
    client_layer(&mut report, spec, &inputs, &untraced);
    let kernel: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.kernel_us.iter().copied())
        .collect();
    report.set(
        "harness",
        "cpu_kernel_us",
        median(&kernel),
        kernel.len() as u64,
    );
    if opts.traced {
        let (plain, traced) = (&reps[0], &reps[1]);
        program_layers(&mut report, spec, plain);
        traced_layers(&mut report, spec, plain, traced)?;
        let sample = &inputs.corpus[..inputs.corpus.len().min(2000)];
        let patterns: Vec<String> = inputs
            .queries
            .iter()
            .chain(&inputs.digest_queries)
            .map(|q| q.pattern.clone())
            .collect();
        let pipeline = env::pipeline(&inputs.corpus);
        crate::layers::measure(&mut report, spec.alone, &pipeline, sample, &patterns)?;
    }
    report.print_table(END_TO_END);
    report.print_table(PER_LAYER);
    Ok(report)
}

/// The samples a class's metrics rest on, per repetition, and the slices
/// to cut a repetition's into: the streams' own where they issue the
/// class, else those of the end-of-repetition check and probe. With
/// `waiting`, only a caller that waits for each reply counts: an open
/// loop's streams then do not, and its classes come from check and probe
/// like those of a workload that does not issue them.
fn class_samples<'a>(
    spec: &Spec,
    reps: &[&'a Rep],
    class: usize,
    waiting: bool,
) -> (Vec<&'a [f64]>, usize) {
    let streamed = reps.iter().any(|r| !r.tally.classes[class].is_empty())
        && (spec.pacing == Pacing::Closed || !waiting);
    let samples = reps
        .iter()
        .map(|r| {
            let tally = match class {
                _ if streamed => &r.tally,
                SEARCH => &r.check,
                _ => &r.probe,
            };
            tally.classes[class].as_slice()
        })
        .collect();
    (samples, if streamed { spec.slices } else { PROBE_SLICES })
}

/// Fewest samples a slice of a class may hold for a median to be taken
/// of it.
const SLICE_MIN: usize = 30;

/// Per repetition, per slice: the `q`-th percentile of the slice's
/// samples. A repetition is cut into `n` slices, or fewer when it has
/// too few samples of the class.
fn per_slice(reps: &[&[f64]], n: usize, q: f64) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|samples| {
            let n = n.min(samples.len() / SLICE_MIN).max(1);
            slices(samples, n).map(|s| percentile_of(s, q)).collect()
        })
        .collect()
}

fn end_to_end(report: &mut Report, spec: &Spec, reps: &[&Rep]) {
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    report.set("", "setup_s", median(&setups), setups.len() as u64);

    // seconds per unit of work, per slice of a closed loop: the time its
    // operations took (and the slice's reopen, where the store reopens)
    // over the work they did. An open loop completes what its schedule
    // offers, whatever the program does; there the closed loop is the
    // probe the repetition ends with, one waiting caller on the same
    // fabric.
    let (closed, n): (fn(&Rep) -> &Tally, usize) = match spec.pacing {
        Pacing::Closed => (|r| &r.tally, spec.slices),
        Pacing::Open { .. } => (|r| &r.probe, PROBE_SLICES),
    };
    let units: u64 = reps.iter().map(|r| closed(r).units).sum();
    let unit_s: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| {
            let t = closed(r);
            slices(&t.all, n)
                .zip(slices(&t.weights, n))
                .enumerate()
                .map(|(i, (micros, weights))| {
                    let busy: f64 = micros
                        .iter()
                        .zip(weights)
                        .map(|(m, &w)| m * f64::from(w))
                        .sum();
                    let work: f64 = weights.iter().map(|&w| f64::from(w)).sum();
                    (busy / 1e6 + r.reopen_s.get(i).copied().unwrap_or(0.0)) / work
                })
                .collect()
        })
        .collect();
    report.set("", "ops_per_s", 1.0 / quiet(&unit_s), units);

    // The medians under a bound are those of a caller that waits for
    // each reply, on every workload: what an operation costs on that
    // fabric and file. An open loop's own medians are under the `client`
    // layer.
    for (metric, class, scale) in [
        ("get_p50_us", GET, 1.0),
        ("insert_p50_us", INSERT, 1.0),
        ("delete_p50_us", DELETE, 1.0),
        ("search_p50_ms", SEARCH, 1e-3),
    ] {
        let (samples, slices) = class_samples(spec, reps, class, true);
        let n: usize = samples.iter().map(|s| s.len()).sum();
        if n > 0 {
            let p50 = per_slice(&samples, slices, 0.50);
            report.set("", metric, quiet(&p50) * scale, n as u64);
        }
    }
}

/// The public API beyond the medians under a bound: tails, an open
/// loop's medians, and what only one workload has.
fn client_layer(report: &mut Report, spec: &Spec, inputs: &Inputs, reps: &[&Rep]) {
    // From the scheduled arrival, so with the wait a stall imposes on
    // later arrivals and with how cold the machine went in between.
    if matches!(spec.pacing, Pacing::Open { .. }) {
        for (metric, class, scale) in [
            ("open_get_p50_us", GET, 1.0),
            ("open_insert_p50_us", INSERT, 1.0),
            ("open_delete_p50_us", DELETE, 1.0),
            ("open_search_p50_ms", SEARCH, 1e-3),
        ] {
            let (samples, slices) = class_samples(spec, reps, class, false);
            let n: usize = samples.iter().map(|s| s.len()).sum();
            if n > 0 {
                let p50 = per_slice(&samples, slices, 0.50);
                report.set("client", metric, quiet(&p50) * scale, n as u64);
            }
        }
    }
    // a tail percentile is taken per repetition
    for (metric, class, q, scale) in [
        ("get_p99_us", GET, 0.99, 1.0),
        ("insert_p99_us", INSERT, 0.99, 1.0),
        ("search_p95_ms", SEARCH, 0.95, 1e-3),
    ] {
        let (samples, _) = class_samples(spec, reps, class, false);
        let n: usize = samples.iter().map(|s| s.len()).sum();
        if n > 0 {
            let tails = per_slice(&samples, 1, q).concat();
            report.set("client", metric, median(&tails) * scale, n as u64);
        }
    }

    if matches!(spec.stream, Stream::Bulk { .. }) {
        if let Some(rate) = report.get("ops_per_s") {
            let calls: usize = reps.iter().map(|r| r.tally.all.len()).sum();
            report.set("client", "ingest_records_per_s", rate, calls as u64);
        }
    }
    // exact where the ground truth is: over a static file the streams'
    // searches, else those of the check, which sees the final file
    let (truly, reported) = reps.iter().fold((0, 0), |(t, n), rep| {
        let tally = if inputs.static_file && rep.tally.reported > 0 {
            &rep.tally
        } else {
            &rep.check
        };
        (t + tally.true_matches, n + tally.reported)
    });
    if reported > 0 {
        report.set(
            "client",
            "search_precision",
            truly as f64 / reported as f64,
            reported,
        );
    }
    let reopens: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.reopen_s.last().copied())
        .collect();
    if !reopens.is_empty() {
        // the last reopen of a repetition recovers the whole file
        let user: usize = inputs
            .live
            .iter()
            .map(|&i| inputs.corpus[i as usize].rc.len())
            .sum();
        report.set(
            "client",
            "recovery_records_per_s",
            inputs.live.len() as f64 / median(&reopens),
            reopens.len() as u64,
        );
        let stored: Vec<f64> = reps
            .iter()
            .map(|r| r.stored_bytes as f64 / user as f64)
            .collect();
        report.set(
            "client",
            "stored_bytes_per_user_byte",
            median(&stored),
            stored.len() as u64,
        );
        let wal: Vec<f64> = reps
            .iter()
            .map(|r| r.wal_bytes as f64 / user as f64)
            .collect();
        report.set(
            "storage",
            "wal_bytes_per_user_byte",
            median(&wal),
            wal.len() as u64,
        );
    }
}

/// `lh`, `net`, `storage` and the in-program `core` timers: what the
/// program's own registry gained over the untraced measured phase.
fn program_layers(report: &mut Report, spec: &Spec, rep: &Rep) {
    let d = Delta(rep);
    let units = rep.tally.units;
    let scans = d.counter("lh.scans");
    let requests = d.counter("lh.requests");
    let inserts = rep.tally.classes[INSERT].len() as f64;
    let records = d.counter("core.ingest_records");
    let batch_s = d.histogram("lh.insert_batch_seconds").1;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;

    // mean of a program timer, in `scale` units
    let mut mean = |layer, metric, timer, scale: f64| {
        let (n, sum) = d.histogram(timer);
        report.set(layer, metric, ratio(sum * scale, n), n as u64);
    };
    mean("lh", "lookup_rtt_us", "lh.lookup_seconds", 1e6);
    mean("lh", "insert_batch_rtt_us", "lh.insert_batch_seconds", 1e6);
    mean("lh", "delete_batch_rtt_us", "lh.delete_batch_seconds", 1e6);
    mean("lh", "scan_ms", "lh.scan_seconds", 1e3);
    mean("lh", "scan_bucket_us_mean", "lh.scan_bucket_seconds", 1e6);
    mean("lh", "scan_gather_ms_mean", "lh.scan_gather_seconds", 1e3);
    mean("storage", "fsync_us_mean", "storage.fsync_seconds", 1e6);
    // `lh.drain_batch_size` observes sizes, not seconds
    let (wakeups, drained) = d.histogram("lh.drain_batch_size");
    report.set(
        "lh",
        "drain_batch_mean",
        ratio(drained, wakeups),
        wakeups as u64,
    );

    let (dispatches, busy_s) = d.histogram("lh.loop_stall_seconds");
    report.set(
        "lh",
        "loop_busy_share",
        ratio(busy_s, rep.wall_s * cores),
        dispatches as u64,
    );

    // a program counter (or timer sum) per something
    let mut per = |layer, metric, value: f64, per: f64| {
        report.set(layer, metric, ratio(value, per), per as u64);
    };
    let keys = d.counter("lh.insert_batch_items");
    per("lh", "insert_batch_us_per_key", batch_s * 1e6, keys);
    per(
        "lh",
        "scan_fanout_buckets_per_scan",
        d.counter("lh.scan_fanout_buckets"),
        scans,
    );
    per(
        "lh",
        "index_probes_per_scan",
        d.counter("lh.scan_index_probes"),
        scans,
    );
    let candidates = d.counter("lh.scan_index_candidates");
    per("lh", "index_candidates_per_scan", candidates, scans);
    // useful over attempted, where the streams search (the sites count
    // the check's scans too, the clients only their own matches)
    let matched = rep.tally.matched_index_records as f64;
    let stream_scans = rep.tally.classes[SEARCH].len() as f64;
    per(
        "lh",
        "matches_per_candidate",
        matched,
        candidates * ratio(stream_scans, scans),
    );
    per(
        "lh",
        "forwards_per_request",
        d.counter("lh.forwards"),
        requests,
    );
    per("net", "messages_per_op", rep.messages as f64, units as f64);
    per("net", "bytes_per_op", rep.bytes as f64, units as f64);
    per(
        "net",
        "tcp_frames_per_write",
        d.counter("net.tcp.frames_sent"),
        d.counter("net.tcp.writes"),
    );
    per(
        "core",
        "candidates_pruned_per_search",
        d.counter("core.search_candidates_pruned"),
        scans,
    );
    per(
        "core",
        "chunk_us_per_record",
        d.histogram("core.chunk_seconds").1 * 1e6,
        records,
    );
    per(
        "core",
        "encode_us_per_record",
        d.histogram("core.encode_seconds").1 * 1e6,
        records,
    );
    per(
        "core",
        "disperse_us_per_record",
        d.histogram("core.disperse_seconds").1 * 1e6,
        records,
    );
    if spec.storage == Storage::DiskFsyncAlways {
        per(
            "storage",
            "fsyncs_per_acked_insert",
            d.counter("storage.wal_fsyncs"),
            inserts,
        );
    }

    // plain counts over the measured phase
    for (layer, metric, value) in [
        (
            "lh",
            "fallback_linear_scans",
            d.counter("lh.scan_fallback_linear"),
        ),
        ("lh", "buckets", rep.buckets as f64),
        ("lh", "splits", d.counter("lh.splits")),
        ("lh", "iams", d.counter("lh.iams")),
        (
            "lh",
            "retries",
            d.counter("lh.retries") + d.counter("lh.scan_retries"),
        ),
        ("lh", "rejected", d.counter("lh.rejected_total")),
        ("net", "tcp_reconnects", d.counter("net.tcp.reconnects")),
        ("net", "send_failures", d.counter("net.send_failures")),
        ("storage", "compactions", d.counter("storage.compactions")),
    ] {
        report.set(layer, metric, value, 1);
    }
}

/// What only a traced repetition shows: where each operation's time
/// went, what tracing cost, and how punctual the generator was.
fn traced_layers(
    report: &mut Report,
    spec: &Spec,
    plain: &Rep,
    traced: &Rep,
) -> Result<(), String> {
    let unattributed = spans::unattributed_share(&traced.spans);
    let total = |layer, call| spans::total(&traced.spans, layer, call);
    let ops = ["get", "insert", "delete", "search", "ingest"]
        .iter()
        .map(|call| total("op", call).0)
        .sum();
    report.set("harness", "unattributed_share", unattributed, ops);
    if unattributed >= 0.15 {
        report.violation(format!(
            "layer spans leave {:.1}% of operation time unattributed",
            unattributed * 100.0
        ));
    }
    let writes = total("op", "ingest").1 + total("op", "insert").1;
    let transform = total("core", "transform").1
        + total("core", "encrypt_record").1
        + total("core", "index_records").1;
    report.set("core", "transform_share", ratio(transform, writes), ops);
    let (combines, combine_s) = total("core", "combine");
    report.set(
        "core",
        "combine_ms",
        ratio(combine_s * 1e3, combines as f64),
        combines,
    );

    let p50 = |rep: &Rep| quiet(&per_slice(&[&rep.tally.all], spec.slices, 0.50));
    if !plain.tally.all.is_empty() && !traced.tally.all.is_empty() {
        report.set(
            "obs",
            "trace_overhead_pct",
            (p50(traced) / p50(plain) - 1.0) * 100.0,
            traced.tally.all.len() as u64,
        );
    }
    report.set(
        "obs",
        "spans_per_op",
        traced.program_spans as f64 / traced.tally.units.max(1) as f64,
        traced.program_spans,
    );

    report.set(
        "harness",
        "max_schedule_lag_ms",
        plain.tally.max_lag_s * 1e3,
        plain.tally.all.len() as u64,
    );
    let achieved = match spec.pacing {
        Pacing::Closed => 1.0,
        Pacing::Open { rate } => ratio(plain.tally.units as f64 / plain.wall_s, rate),
    };
    report.set(
        "harness",
        "achieved_over_offered",
        achieved,
        plain.tally.units,
    );

    let dir = crate::env::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.jsonl", spec.name));
    spans::write_jsonl(&path, &traced.spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
