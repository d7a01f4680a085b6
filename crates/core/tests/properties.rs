//! Property tests of the core pipeline, exercised without a cluster:
//! the completeness invariant (a true substring is always found by the
//! encrypted matcher) must hold for every stage combination, and the
//! key layout must round-trip.

use proptest::prelude::*;
use sdds_chunk::CombinationRule;
use sdds_cipher::{KeyMaterial, MasterKey};
use sdds_core::{EncodingConfig, IndexPipeline, SchemeConfig};
use std::collections::HashMap;

/// The client-side combination logic, re-implemented over raw pipeline
/// output (mirrors `EncryptedSearchStore::search_detailed` without LH\*).
fn local_search(pipeline: &IndexPipeline, rid: u64, rc: &str, pattern: &str) -> Option<bool> {
    let query = pipeline.build_query(pattern).ok()?;
    let records = pipeline.index_records_for(rid, rc);
    let mut bodies: HashMap<(usize, usize), Vec<u8>> = HashMap::new();
    for r in records {
        bodies.insert((r.chunking, r.site), r.body);
    }
    let cfg = pipeline.config();
    let c = cfg.chunking.num_chunkings();
    let k = cfg.k();
    let mut hits = Vec::with_capacity(c);
    for j in 0..c {
        let tag0 = pipeline.tag(j, 0);
        let nseries = query.series_for(tag0).map(|s| s.len()).unwrap_or(0);
        let mut chunking_hit = false;
        'series: for d in 0..nseries {
            let mut common: Option<Vec<usize>> = None;
            for site in 0..k {
                let tag = pipeline.tag(j, site);
                let series = &query.series_for(tag).unwrap()[d];
                let body = &bodies[&(j, site)];
                let positions = query.match_positions(body, series);
                common = Some(match common {
                    None => positions,
                    Some(prev) => prev.into_iter().filter(|p| positions.contains(p)).collect(),
                });
                if common.as_ref().is_some_and(|c| c.is_empty()) {
                    continue 'series;
                }
            }
            if common.is_some_and(|c| !c.is_empty()) {
                chunking_hit = true;
                break;
            }
        }
        hits.push(chunking_hit);
    }
    Some(match cfg.search_mode.combination() {
        CombinationRule::All => hits.iter().all(|&h| h),
        CombinationRule::Any => hits.iter().any(|&h| h),
    })
}

fn configs() -> Vec<SchemeConfig> {
    let mut v = vec![
        SchemeConfig::basic(4, 4).unwrap(),
        SchemeConfig::basic(4, 2).unwrap(),
        SchemeConfig::basic(2, 2).unwrap(),
        SchemeConfig::basic(8, 4).unwrap(),
    ];
    let mut dispersed = SchemeConfig::basic(4, 2).unwrap();
    dispersed.dispersion = Some(4);
    v.push(dispersed.validated().unwrap());
    let mut encoded = SchemeConfig::basic(2, 2).unwrap();
    encoded.encoding = Some(EncodingConfig::whole_chunk(256));
    v.push(encoded.validated().unwrap());
    let mut per_symbol = SchemeConfig::basic(4, 2).unwrap();
    per_symbol.encoding = Some(EncodingConfig::per_symbol(32));
    v.push(per_symbol.validated().unwrap());
    v.push(SchemeConfig::paper_recommended());
    v
}

fn pipeline_for(cfg: SchemeConfig, training: &[String]) -> IndexPipeline {
    let keys = KeyMaterial::new(MasterKey::new([42; 16]));
    let book = cfg
        .encoding
        .map(|_| IndexPipeline::train_codebook(&cfg, training.iter().map(|s| s.as_str())));
    IndexPipeline::new(cfg, keys, book).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn completeness_across_all_configurations(
        seed in any::<u64>(),
        cfg_idx in 0usize..8,
        start_frac in 0.0f64..1.0,
        rid in 1u64..1000,
    ) {
        let cfg = configs()[cfg_idx];
        // random capital-letter record of 24..40 symbols
        let len = 24 + (seed % 17) as usize;
        let rc: String = (0..len)
            .map(|i| {
                let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 97);
                char::from(b'A' + ((x >> 33) % 26) as u8)
            })
            .collect();
        let training = vec![rc.clone()];
        let pipeline = pipeline_for(cfg, &training);
        let min = cfg.chunking.min_search_len(cfg.search_mode);
        prop_assume!(rc.len() >= min + 2);
        let start = ((rc.len() - min - 1) as f64 * start_frac) as usize;
        let qlen = min + (seed % 3) as usize;
        prop_assume!(start + qlen <= rc.len());
        let pattern = &rc[start..start + qlen];
        prop_assert_eq!(
            local_search(&pipeline, rid, &rc, pattern),
            Some(true),
            "missed {} in {} (cfg {:?})", pattern, rc, cfg
        );
    }

    #[test]
    fn key_layout_roundtrip(rid in 0u64..(1 << 50), cfg_idx in 0usize..8) {
        let cfg = configs()[cfg_idx];
        let training = vec!["ABCDEFAB".to_string()];
        let pipeline = pipeline_for(cfg, &training);
        for tag in 0..=(cfg.index_records_per_record() as u32) {
            let key = pipeline.lh_key(rid, tag);
            prop_assert_eq!(pipeline.parse_key(key), (rid, tag));
        }
    }

    #[test]
    fn record_encryption_roundtrip_any_content(
        rid in any::<u64>(),
        rc in "[A-Z &.']{0,60}",
    ) {
        let pipeline = pipeline_for(SchemeConfig::basic(4, 2).unwrap(), &[]);
        let ct = pipeline.encrypt_record(rid, &rc);
        prop_assert_eq!(pipeline.decrypt_record(rid, &ct).unwrap(), rc);
    }

    #[test]
    fn index_bodies_have_config_width(
        seed in any::<u64>(),
        cfg_idx in 0usize..8,
    ) {
        let cfg = configs()[cfg_idx];
        let rc: String = (0..30)
            .map(|i| char::from(b'A' + ((seed.wrapping_add(i * 13)) % 26) as u8))
            .collect();
        let pipeline = pipeline_for(cfg, std::slice::from_ref(&rc));
        for rec in pipeline.index_records_for(7, &rc) {
            prop_assert_eq!(
                rec.body.len() % cfg.element_bytes(),
                0,
                "ragged body for {:?}",
                cfg
            );
        }
    }
}
