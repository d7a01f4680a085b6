//! Everything a repetition is fed, built once per run from the seed.

use crate::env::TRAIN;
use crate::gen::{self, Op, Rng};
use crate::spec::{
    Options, Pacing, Spec, Stream, DIGEST_PATTERNS, PROBE_MIX, PROBE_OPS, PROBE_WARMUP,
};
use sdds_corpus::Record;
use std::ops::Range;

/// A search pattern with its plaintext ground truth: over the preloaded
/// records, which no stream deletes, or over the final file.
pub struct Query {
    pub pattern: String,
    pub expect: Vec<u64>,
}

fn with_truth(patterns: Vec<String>, records: &[Record]) -> Vec<Query> {
    patterns
        .into_iter()
        .map(|pattern| Query {
            expect: gen::oracle(records.iter(), &pattern),
            pattern,
        })
        .collect()
}

/// Everything a repetition is fed; built once per run from the seed.
pub struct Inputs {
    pub corpus: Vec<Record>,
    pub preload: Range<u32>,
    pub warmup: Vec<Vec<Op>>,
    pub measured: Vec<Vec<Op>>,
    /// Per client, seconds from the start of the measured phase.
    pub arrivals: Vec<Vec<f64>>,
    pub queries: Vec<Query>,
    /// Records in the file when the repetition ends, and the digest
    /// patterns with their ground truth over exactly those.
    pub live: Vec<u32>,
    pub digest_queries: Vec<Query>,
    /// The probe stream the repetition ends with, over `live`: what is
    /// not measured of it, and what is.
    pub probe: (Vec<Op>, Vec<Op>),
    /// No stream writes: ground truth is exact, precision is defined.
    pub static_file: bool,
}

impl Inputs {
    pub fn new(spec: &Spec, opts: &Options) -> Inputs {
        let size = |n: usize| if opts.quick { n.div_ceil(20) } else { n };
        let preload = size(spec.preload);
        let warmup = size(spec.warmup);
        let ops = size(spec.ops);
        let clients = spec.clients;
        let per_client = ops.div_ceil(clients);
        let probe_ops = size(PROBE_WARMUP) + size(PROBE_OPS);
        // the probe's inserts: about a sixth of its operations
        let streamed = preload + warmup + per_client * clients;
        let probe_fresh = streamed as u32..(streamed + probe_ops / 2) as u32;
        let corpus_len = (probe_fresh.end as usize).max(TRAIN);
        let corpus = gen::corpus(opts.seed, corpus_len);
        let preload = 0..preload as u32;
        let stored = &corpus[..preload.end as usize];

        let queries = with_truth(
            gen::queries(&corpus, stored, spec.hits, spec.misses, opts.seed),
            stored,
        );

        let mut rng = Rng::new(opts.seed ^ 0x5dd5_b0a7);
        let (mut warm, mut measured, mut arrivals) = (Vec::new(), Vec::new(), Vec::new());
        let measured_base = preload.end + warmup as u32;
        for c in 0..clients as u32 {
            let warm_share = (warmup / clients) as u32;
            let warm_fresh = preload.end + c * warm_share..preload.end + (c + 1) * warm_share;
            let fresh =
                measured_base + c * per_client as u32..measured_base + (c + 1) * per_client as u32;
            match spec.stream {
                Stream::Mixed(mix) => {
                    warm.push(gen::mixed_stream(
                        &mut rng,
                        warm_share as usize,
                        mix,
                        preload.clone().collect(),
                        warm_fresh,
                        queries.len(),
                    ));
                    measured.push(gen::mixed_stream(
                        &mut rng,
                        per_client,
                        mix,
                        preload.clone().collect(),
                        fresh,
                        queries.len(),
                    ));
                }
                Stream::Bulk { batch } => {
                    warm.push(vec![Op::Bulk(warm_fresh)]);
                    measured.push(gen::bulk_stream(fresh, batch));
                }
            }
            arrivals.push(match spec.pacing {
                Pacing::Closed => Vec::new(),
                Pacing::Open { rate } => {
                    gen::poisson_arrivals(&mut rng, rate / clients as f64, per_client)
                }
            });
        }

        let all: Vec<Vec<Op>> = warm.iter().chain(&measured).cloned().collect();
        let live = gen::live_after(preload.clone(), &all);
        let static_file = all
            .iter()
            .flatten()
            .all(|op| matches!(op, Op::Get(_) | Op::Search(_)));
        let live_records: Vec<Record> = live.iter().map(|&i| corpus[i as usize].clone()).collect();
        let digest_queries = with_truth(
            gen::queries(&corpus, &live_records, DIGEST_PATTERNS, 0, opts.seed + 1),
            &live_records,
        );
        let mut probe =
            gen::mixed_stream(&mut rng, probe_ops, PROBE_MIX, live.clone(), probe_fresh, 0);
        let probe_measured = probe.split_off(size(PROBE_WARMUP));
        let probe = (probe, probe_measured);
        Inputs {
            corpus,
            preload,
            warmup: warm,
            measured,
            arrivals,
            queries,
            live,
            digest_queries,
            probe,
            static_file,
        }
    }
}
