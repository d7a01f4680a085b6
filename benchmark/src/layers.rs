//! Single layers measured on their own, through their public functions
//! and on the workload's own records: the numbers that say which layer a
//! change touched when an end-to-end metric moves.

use crate::env::Scratch;
use crate::report::Report;
use crate::spec::Alone;
use crate::stats::median;
use sdds_cipher::{modes, ChunkPrp, KeyMaterial, MasterKey};
use sdds_core::{EncryptedIndexFilter, IndexPipeline, IngestScratch, SchemeConfig};
use sdds_corpus::Record;
use sdds_disperse::{DispersalConfig, Disperser};
use sdds_lh::ScanFilter;
use sdds_net::frame::{encode_envelope, Frame, FrameDecoder};
use sdds_net::{Envelope, NetConfig, Network, SiteId, SiteRegistry};
use sdds_storage::{DiskEngine, DiskOptions, FsyncPolicy, MemEngine, StorageEngine, WriteBatch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes over the sample per timing; the median pass is reported.
const PASSES: usize = 5;

/// Median over [`PASSES`] runs of `f`, in seconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// Measures the layers `alone` names into `report`, each through its
/// public functions. `sample` is a slice of the run's corpus; `queries`
/// its search patterns.
pub fn measure(
    report: &mut Report,
    alone: Alone,
    pipeline: &IndexPipeline,
    sample: &[Record],
    queries: &[String],
) -> Result<(), String> {
    match alone {
        Alone::Transform => {
            transform(report, pipeline, sample);
            stages(report, pipeline.config(), sample);
        }
        Alone::ChannelAndMem => {
            let net = Network::new(NetConfig::default());
            let (client, server) = (net.register(), net.register());
            let rtt = ping_pong(&client, server)?;
            report.set("net", "channel_rtt_us", rtt, PINGS as u64);
            mem_engine(report, sample);
        }
        Alone::QuerySide => query_side(report, pipeline, sample, queries),
        Alone::DiskEngine => disk_engine(report, sample)?,
        Alone::TcpAndFrames => {
            tcp_fabric(report)?;
            frames(report);
        }
    }
    Ok(())
}

/// `core`: the whole record transform and the record-store cipher.
fn transform(report: &mut Report, pipeline: &IndexPipeline, sample: &[Record]) {
    let n = sample.len() as u64;
    let mut scratch = IngestScratch::default();
    let mut out = Vec::new();
    let secs = timed(|| {
        for r in sample {
            pipeline.index_records_into(r.rid, &r.rc, &mut scratch, &mut out);
            black_box(&out);
        }
    });
    report.set(
        "core",
        "index_records_us_per_record",
        secs * 1e6 / n as f64,
        n,
    );

    let secs = timed(|| {
        for r in sample {
            black_box(pipeline.encrypt_record(r.rid, &r.rc));
        }
    });
    report.set("core", "encrypt_record_us", secs * 1e6 / n as f64, n);

    let sealed: Vec<Vec<u8>> = sample
        .iter()
        .map(|r| pipeline.encrypt_record(r.rid, &r.rc))
        .collect();
    let secs = timed(|| {
        for (r, ct) in sample.iter().zip(&sealed) {
            black_box(pipeline.decrypt_record(r.rid, ct).is_ok());
        }
    });
    report.set("core", "decrypt_record_us", secs * 1e6 / n as f64, n);

    let user: usize = sample.iter().map(|r| r.rc.len()).sum();
    let stored: usize = sample
        .iter()
        .zip(&sealed)
        .map(|(r, ct)| {
            let index: usize = pipeline
                .index_records_for(r.rid, &r.rc)
                .iter()
                .map(|i| i.body.len())
                .sum();
            ct.len() + index
        })
        .sum();
    report.set(
        "core",
        "index_bytes_per_user_byte",
        stored as f64 / user as f64,
        n,
    );
}

/// `chunk`, `encode`, `cipher`, `disperse`: each stage crate alone, fed
/// what the stage before it produces for the sample.
fn stages(report: &mut Report, config: &SchemeConfig, sample: &[Record]) {
    let symbols: Vec<Vec<u16>> = sample.iter().map(|r| r.symbols()).collect();
    let s = config.chunking.chunk_size();
    let c = config.chunking.num_chunkings();

    let mut flat = Vec::new();
    let mut chunks = 0u64;
    let secs = timed(|| {
        chunks = 0;
        for sym in &symbols {
            for j in 0..c {
                chunks +=
                    config
                        .chunking
                        .chunk_record_flat(j, sym, config.partial_chunks, &mut flat)
                        as u64;
                black_box(&flat);
            }
        }
    });
    report.set("chunk", "ns_per_chunk", secs * 1e9 / chunks as f64, chunks);

    // every chunk of chunking 0, as one flat symbol stream per record
    let flats: Vec<Vec<u16>> = symbols
        .iter()
        .map(|sym| {
            let mut out = Vec::new();
            config
                .chunking
                .chunk_record_flat(0, sym, config.partial_chunks, &mut out);
            out
        })
        .collect();
    let nchunks: u64 = flats.iter().map(|f| (f.len() / s) as u64).sum();

    if config.encoding.is_some() {
        let book = IndexPipeline::train_codebook(config, sample.iter().map(|r| r.rc.as_str()));
        let secs = timed(|| {
            for f in &flats {
                black_box(book.encode_stream(f, 0));
            }
        });
        report.set(
            "encode",
            "ns_per_chunk",
            secs * 1e9 / nchunks as f64,
            nchunks,
        );
    }

    let keys = KeyMaterial::new(MasterKey::from_passphrase("benchmark"));
    let width = config.chunk_bits() as u32;
    let values: Vec<u128> = (0..nchunks as u128)
        .map(|v| v.wrapping_mul(0x9e37_79b9_7f4a_7c15) & ((1u128 << width) - 1))
        .collect();
    if let Ok(prp) = ChunkPrp::new(&keys.chunk_key(0), width) {
        let secs = timed(|| {
            for &v in &values {
                black_box(prp.encrypt(v));
            }
        });
        report.set(
            "cipher",
            "prp_ns_per_chunk",
            secs * 1e9 / nchunks as f64,
            nchunks,
        );
    }

    let aes = keys.record_cipher();
    let iv = keys.record_iv(1);
    let block = vec![0x5au8; 1 << 20];
    let secs = timed(|| {
        black_box(modes::cbc_encrypt(&aes, &iv, &block));
    });
    report.set(
        "cipher",
        "record_mb_per_s",
        block.len() as f64 / 1e6 / secs,
        PASSES as u64,
    );

    if let Some(k) = config.dispersion {
        if let Ok(dc) = DispersalConfig::new(config.chunk_bits(), k) {
            let disperser = Disperser::from_seed(dc, keys.dispersion_seed());
            let mut planes = Vec::new();
            let per_record = (nchunks as usize / sample.len()).max(1);
            let secs = timed(|| {
                for record in values.chunks(per_record) {
                    disperser.disperse_record_into(record, &mut planes);
                    black_box(&planes);
                }
            });
            report.set(
                "disperse",
                "ns_per_chunk",
                secs * 1e9 / nchunks as f64,
                nchunks,
            );
        }
    }
}

/// `core`, query side: building a query, and what one bucket does with
/// it per scan and per stored index record.
fn query_side(
    report: &mut Report,
    pipeline: &IndexPipeline,
    sample: &[Record],
    queries: &[String],
) {
    let nq = queries.len() as u64;
    let secs = timed(|| {
        for q in queries {
            if let Ok(query) = pipeline.build_query(q) {
                black_box(query.encode());
            }
        }
    });
    report.set("core", "build_query_us", secs * 1e6 / nq as f64, nq);

    let config = pipeline.config();
    let filter = EncryptedIndexFilter::new(config.element_bytes(), config.tag_bits());
    let payloads: Vec<Vec<u8>> = queries
        .iter()
        .filter_map(|q| pipeline.build_query(q).ok())
        .map(|q| q.encode())
        .collect();
    let secs = timed(|| {
        for p in &payloads {
            black_box(filter.prepare(p).probes().map(<[_]>::len));
        }
    });
    report.set("core", "filter_prepare_us", secs * 1e6 / nq as f64, nq);

    let stored: Vec<(u64, Vec<u8>)> = sample
        .iter()
        .flat_map(|r| {
            pipeline
                .index_records_for(r.rid, &r.rc)
                .into_iter()
                .map(|i| {
                    (
                        pipeline.lh_key(r.rid, pipeline.tag(i.chunking, i.site)),
                        i.body,
                    )
                })
        })
        .collect();
    let shown = payloads.len().min(8);
    let evaluations = (stored.len() * shown) as u64;
    let secs = timed(|| {
        for p in &payloads[..shown] {
            let prepared = filter.prepare(p);
            for (key, body) in &stored {
                black_box(prepared.matches(*key, body));
            }
        }
    });
    report.set(
        "core",
        "filter_match_ns_per_record",
        secs * 1e9 / evaluations as f64,
        evaluations,
    );
}

/// Round trips timed per fabric.
const PINGS: usize = 2000;

/// Median round trip in µs of [`PINGS`] 256-byte messages from `client`
/// to an echoing `server`, nothing else running.
fn ping_pong(client: &sdds_net::Endpoint, server: sdds_net::Endpoint) -> Result<f64, String> {
    let to = server.id();
    let echo = std::thread::spawn(move || {
        while let Ok(env) = server.recv_timeout(Duration::from_secs(2)) {
            if env.payload.is_empty() || server.send(env.from, env.payload).is_err() {
                break;
            }
        }
    });
    let payload = bytes::Bytes::from(vec![7u8; 256]);
    let mut rtts = Vec::with_capacity(PINGS);
    let mut failure = None;
    // the first tenth warms the path (TCP: the dial) and is not counted
    for i in 0..PINGS + PINGS / 10 {
        let t = Instant::now();
        let result = client
            .send(to, payload.clone())
            .and_then(|()| client.recv_timeout(Duration::from_secs(2)));
        if let Err(e) = result {
            failure = Some(format!("ping failed: {e}"));
            break;
        }
        if i >= PINGS / 10 {
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = client.send(to, bytes::Bytes::new());
    let _ = echo.join();
    match failure {
        Some(f) => Err(f),
        None => Ok(median(&rtts)),
    }
}

/// `net`: one message there and back over the host's loopback
/// interface, not a link (the channel number beside it is an in-process
/// handoff).
fn tcp_fabric(report: &mut Report) -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    drop(listener);
    let registry = SiteRegistry::from_addrs(vec![addr])?;
    let serving = Network::tcp_serve(registry.clone(), 0, NetConfig::default())
        .map_err(|e| format!("tcp bind: {e}"))?;
    let server = serving
        .register_with_id(SiteId(1))
        .ok_or("site id 1 taken")?;
    let dialing = Network::tcp_client(registry, NetConfig::default());
    let client = dialing.register();
    let rtt = ping_pong(&client, server)?;
    report.set("net", "tcp_rtt_us", rtt, PINGS as u64);
    Ok(())
}

/// `net`: the frame codec alone, on a 254-byte traced envelope.
fn frames(report: &mut Report) {
    const FRAMES: usize = 100_000;
    let env = Envelope {
        from: SiteId(sdds_net::DYN_BASE + 0x1001),
        to: SiteId(7),
        payload: bytes::Bytes::from(
            (0..220u32)
                .map(|i| b' ' + (i % 90) as u8)
                .collect::<Vec<u8>>(),
        ),
        ctx: Some(sdds_obs::trace::TraceContext {
            trace_id: 0x1234_5678_9abc_def0,
            parent_span_id: 42,
        }),
    };
    let mut out = Vec::new();
    let secs = timed(|| {
        for _ in 0..FRAMES {
            out.clear();
            encode_envelope(black_box(&env), &mut out);
        }
    });
    report.set(
        "net",
        "frame_encode_ns",
        secs * 1e9 / FRAMES as f64,
        FRAMES as u64,
    );

    // 64 frames at a time, as a reader sees them after one coalesced write
    let mut wire = Vec::new();
    for _ in 0..64 {
        encode_envelope(&env, &mut wire);
    }
    let mut decoded = 0usize;
    let secs = timed(|| {
        let mut decoder = FrameDecoder::new();
        decoded = 0;
        while decoded < FRAMES {
            decoder.extend(&wire);
            while let Ok(Some(frame)) = decoder.next_frame() {
                decoded += usize::from(matches!(frame, Frame::Envelope(_)));
            }
        }
    });
    report.set(
        "net",
        "frame_decode_ns",
        secs * 1e9 / decoded as f64,
        decoded as u64,
    );
}

/// The 7-entry batches one record insert produces, one per record.
fn insert_batches(sample: &[Record]) -> Vec<WriteBatch> {
    sample
        .iter()
        .map(|r| {
            let mut b = WriteBatch::new();
            for tag in 0..7u64 {
                b.put(r.rid << 3 | tag, r.rc.as_bytes().to_vec());
            }
            b
        })
        .collect()
}

/// `storage`: a bucket's in-memory engine alone.
fn mem_engine(report: &mut Report, sample: &[Record]) {
    let batches = insert_batches(sample);
    let ops = (batches.len() * 7) as u64;
    let secs = timed(|| {
        let mut engine = MemEngine::new();
        for b in &batches {
            let _ = engine.apply_batch(b);
        }
        black_box(engine.len());
    });
    report.set(
        "storage",
        "mem_apply_ns_per_op",
        secs * 1e9 / ops as f64,
        ops,
    );
}

/// `storage`: a bucket's disk engine alone. It runs without fsync here,
/// so the number is the append path; fsync cost shows in the `durable`
/// workload's own counters.
fn disk_engine(report: &mut Report, sample: &[Record]) -> Result<(), String> {
    let batches = insert_batches(sample);
    let ops = (batches.len() * 7) as u64;
    let dir = Scratch::new("engine").map_err(|e| e.to_string())?;
    let options = DiskOptions {
        fsync: FsyncPolicy::Never,
        ..DiskOptions::default()
    };
    let mut engine = DiskEngine::open(dir.path(), options.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for b in &batches {
        engine.apply_batch(b).map_err(|e| e.to_string())?;
    }
    engine.flush().map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    report.set(
        "storage",
        "wal_append_us_per_batch",
        secs * 1e6 / batches.len() as f64,
        batches.len() as u64,
    );
    drop(engine);
    let mut replayed = 0;
    let secs = timed(|| {
        if let Ok(engine) = DiskEngine::open(dir.path(), options.clone()) {
            replayed = engine.len();
        }
    });
    if replayed as u64 != ops {
        return Err(format!("replay found {replayed} of {ops} records"));
    }
    report.set("storage", "replay_records_per_s", ops as f64 / secs, ops);
    Ok(())
}
