//! The record → index-record transformation pipeline (Stages 1–3) and its
//! query-side mirror.

use crate::config::{ConfigError, EncodingGranularity, SchemeConfig};
use crate::pack::{pack_chunk, value_to_bytes};
use crate::query::EncryptedQuery;
use sdds_chunk::ChunkError;
use sdds_cipher::{modes, Aes128, ChunkPrp, CipherError, KeyMaterial, RecordIvs};
use sdds_disperse::{DispersalConfig, Disperser};
use sdds_encode::{Codebook, GramCounter};
use std::fmt;

/// One index record produced from an RC: the body destined for dispersion
/// site `site` of chunking `chunking`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRecord {
    /// Chunking (offset family) index, `0..c`.
    pub chunking: usize,
    /// Dispersion site index, `0..k`.
    pub site: usize,
    /// Concatenated fixed-width elements (one per chunk).
    pub body: Vec<u8>,
}

/// Reusable intermediate buffers for the ingest hot path. One instance per
/// long-lived caller makes steady-state ingest allocate only the index
/// bodies it hands out — see
/// [`index_records_into`](IndexPipeline::index_records_into).
#[derive(Debug, Default)]
pub struct IngestScratch {
    /// The record's Stage-1 symbol stream.
    symbols: Vec<u16>,
    /// Flat chunk buffer: chunk `m` of the current chunking occupies
    /// `chunks[m*s..(m+1)*s]`.
    chunks: Vec<u16>,
    /// Encrypted (and possibly encoded) chunk values.
    values: Vec<u128>,
    /// Site-major dispersal planes (`planes[site * nchunks + m]`).
    planes: Vec<u16>,
}

/// Pipeline errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Query shorter than the scheme's minimum searchable length.
    Query(ChunkError),
    /// Record decryption failed (wrong key or corrupt ciphertext).
    Decrypt(CipherError),
    /// Decrypted bytes are not valid UTF-8.
    NotUtf8,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Query(e) => write!(f, "query: {e}"),
            PipelineError::Decrypt(e) => write!(f, "decrypt: {e}"),
            PipelineError::NotUtf8 => write!(f, "decrypted record is not UTF-8"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The owner-side engine: holds the ciphers derived from the key hierarchy
/// (never the master key itself), the per-chunking chunk PRPs, the
/// optional Stage-2 codebook and the Stage-3 disperser.
pub struct IndexPipeline {
    config: SchemeConfig,
    record_cipher: Aes128,
    record_ivs: RecordIvs,
    prps: Vec<ChunkPrp>,
    codebook: Option<Codebook>,
    /// Per-symbol encoding only: the code of every symbol below
    /// `2^symbol_bits`, so a chunk costs no map probes.
    symbol_codes: Vec<u16>,
    disperser: Option<Disperser>,
}

impl fmt::Debug for IndexPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexPipeline")
            .field("config", &self.config)
            .field("trained", &self.codebook.is_some())
            .finish()
    }
}

impl IndexPipeline {
    /// Builds the pipeline. When the config enables Stage-2 compression, a
    /// codebook trained via [`train_codebook`](Self::train_codebook) must
    /// be supplied.
    pub fn new(
        config: SchemeConfig,
        keys: KeyMaterial,
        codebook: Option<Codebook>,
    ) -> Result<IndexPipeline, ConfigError> {
        let config = config.validated()?;
        if config.encoding.is_some() {
            assert!(
                codebook.is_some(),
                "encoding enabled but no codebook supplied; train one first"
            );
        }
        let width = config.chunk_bits() as u32;
        let prps = (0..config.chunking.num_chunkings())
            // lint: allow(panic-freedom) -- `config.validated()?` above already bounds chunk_bits to the PRP's accepted widths
            .map(|j| ChunkPrp::new(&keys.chunk_key(j as u32), width).expect("validated width"))
            .collect();
        let disperser = config.dispersion.map(|k| {
            // lint: allow(panic-freedom) -- `config.validated()?` above already checked chunk_bits/k compatibility
            let dc = DispersalConfig::new(config.chunk_bits(), k).expect("validated");
            Disperser::from_seed(dc, keys.dispersion_seed())
        });
        let symbol_codes = match (&codebook, config.encoding.map(|e| e.granularity)) {
            (Some(book), Some(EncodingGranularity::PerSymbol)) => {
                let symbols = 1usize << config.symbol_bits.min(16);
                (0..symbols)
                    .map(|sym| book.encode_gram(&[sym as u16]))
                    .collect()
            }
            _ => Vec::new(),
        };
        Ok(IndexPipeline {
            config,
            record_cipher: keys.record_cipher(),
            record_ivs: keys.record_ivs(),
            prps,
            codebook,
            symbol_codes,
            disperser,
        })
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// Trains the Stage-2 codebook on a representative sample ("we can
    /// preprocess a representative part of the database and count the
    /// occurrence of each chunk", §3). Counts chunks of *all* chunkings.
    pub fn train_codebook<'a, I>(config: &SchemeConfig, sample: I) -> Codebook
    where
        I: IntoIterator<Item = &'a str>,
    {
        let streams: Vec<Vec<u16>> = sample.into_iter().map(rc_symbols).collect();
        let enc = config
            .encoding
            // lint: allow(panic-freedom) -- documented precondition of this training entry point; misuse is a caller bug, not a data-dependent path
            .expect("training requires an encoding config");
        match enc.granularity {
            EncodingGranularity::WholeChunk => {
                let s = config.chunking.chunk_size();
                let mut counter = GramCounter::new(s);
                for symbols in &streams {
                    for j in 0..config.chunking.num_chunkings() {
                        for chunk in config
                            .chunking
                            .chunk_record(j, symbols, config.partial_chunks)
                        {
                            counter.add_record(&chunk, 0);
                        }
                    }
                }
                Codebook::build_equalized(&counter, enc.num_codes)
            }
            EncodingGranularity::PerSymbol => {
                // §3's large-chunk fallback: equalise single symbols
                let mut counter = GramCounter::new(1);
                for symbols in &streams {
                    counter.add_record(symbols, 0);
                }
                Codebook::build_equalized(&counter, enc.num_codes)
            }
        }
    }

    /// Chunk → (compress) → pack, before any encryption.
    fn chunk_plain_value(&self, chunk: &[u16]) -> u128 {
        match (&self.codebook, self.config.encoding.map(|e| e.granularity)) {
            (Some(book), Some(EncodingGranularity::WholeChunk)) => {
                u128::from(book.encode_gram(chunk))
            }
            (Some(book), Some(EncodingGranularity::PerSymbol)) => {
                // each symbol's code, concatenated MSB-first (the paper's
                // Table-4 preprocessing applied under the ECB layer)
                // lint: allow(panic-freedom) -- the match arm above only selects when `encoding.map(..)` was Some
                let bits = self.config.encoding.expect("checked").code_bits();
                chunk.iter().fold(0u128, |acc, &sym| {
                    let code = match self.symbol_codes.get(usize::from(sym)) {
                        Some(&code) => code,
                        None => book.encode_gram(&[sym]),
                    };
                    (acc << bits) | u128::from(code)
                })
            }
            _ => pack_chunk(chunk, self.config.symbol_bits),
        }
    }

    /// Produces all `c·k` index records of an RC. The RID does not enter
    /// the bodies; it only matters to the key layout.
    pub fn index_records_for(&self, rid: u64, rc: &str) -> Vec<IndexRecord> {
        let mut scratch = IngestScratch::default();
        let mut out = Vec::new();
        self.index_records_into(rid, rc, &mut scratch, &mut out);
        out
    }

    /// [`index_records_for`](Self::index_records_for) with caller-owned
    /// buffers: `out` receives the records (cleared first) and `scratch`
    /// holds the intermediate symbol/chunk/value/plane buffers, so a
    /// caller looping over a corpus allocates only the bodies. The
    /// produced records are byte-identical to the allocating path.
    pub fn index_records_into(
        &self,
        _rid: u64,
        rc: &str,
        scratch: &mut IngestScratch,
        out: &mut Vec<IndexRecord>,
    ) {
        out.clear();
        scratch.symbols.clear();
        scratch.symbols.extend(rc.bytes().map(u16::from));
        let c = self.config.chunking.num_chunkings();
        let k = self.config.k();
        let s = self.config.chunking.chunk_size();
        let element_bytes = self.config.element_bytes();
        out.reserve(c * k);
        for j in 0..c {
            let chunk_timer = sdds_obs::histogram("core.chunk_seconds").start_timer();
            let nchunks = self.config.chunking.chunk_record_flat(
                j,
                &scratch.symbols,
                self.config.partial_chunks,
                &mut scratch.chunks,
            );
            drop(chunk_timer);
            let encode_timer = sdds_obs::histogram("core.encode_seconds").start_timer();
            scratch.values.clear();
            scratch.values.extend(
                scratch
                    .chunks
                    .chunks_exact(s)
                    .map(|ch| self.chunk_plain_value(ch)),
            );
            self.prps[j].encrypt_many(&mut scratch.values);
            drop(encode_timer);
            match &self.disperser {
                Some(d) => {
                    let _disperse_timer =
                        sdds_obs::histogram("core.disperse_seconds").start_timer();
                    d.disperse_record_into(&scratch.values, &mut scratch.planes);
                    for site in 0..k {
                        let plane = &scratch.planes[site * nchunks..(site + 1) * nchunks];
                        let mut body = Vec::with_capacity(nchunks * element_bytes);
                        for &share in plane {
                            body.extend_from_slice(
                                &u128::from(share).to_le_bytes()[..element_bytes],
                            );
                        }
                        out.push(IndexRecord {
                            chunking: j,
                            site,
                            body,
                        });
                    }
                }
                None => {
                    let mut body = Vec::with_capacity(nchunks * element_bytes);
                    for &v in &scratch.values {
                        body.extend_from_slice(&v.to_le_bytes()[..element_bytes]);
                    }
                    out.push(IndexRecord {
                        chunking: j,
                        site: 0,
                        body,
                    });
                }
            }
        }
        self.count_ingest(out);
    }

    /// Ingest-side counters of one transformed record.
    fn count_ingest(&self, records: &[IndexRecord]) {
        let element_bytes = self.config.element_bytes();
        let bytes: usize = records.iter().map(|r| r.body.len()).sum();
        sdds_obs::counter("core.ingest_records").inc();
        sdds_obs::counter("core.ingest_index_records").add(records.len() as u64);
        sdds_obs::counter("core.ingest_chunks").add((bytes / element_bytes.max(1)) as u64);
        sdds_obs::counter("core.ingest_index_bytes").add(bytes as u64);
    }

    /// Strong encryption of the record store copy (AES-CBC, per-RID IV).
    pub fn encrypt_record(&self, rid: u64, rc: &str) -> Vec<u8> {
        let iv = self.record_ivs.iv(rid);
        // lint: allow(determinism) -- record-store copy (§5), not the Stage-1 index path; CBC is the point here
        modes::cbc_encrypt(&self.record_cipher, &iv, rc.as_bytes())
    }

    /// Decrypts a record store copy.
    pub fn decrypt_record(&self, rid: u64, ciphertext: &[u8]) -> Result<String, PipelineError> {
        let iv = self.record_ivs.iv(rid);
        // lint: allow(determinism) -- record-store copy (§5), not the Stage-1 index path; CBC is the point here
        let bytes = modes::cbc_decrypt(&self.record_cipher, &iv, ciphertext)
            .map_err(PipelineError::Decrypt)?;
        String::from_utf8(bytes).map_err(|_| PipelineError::NotUtf8)
    }

    /// Builds the encrypted multi-alignment query for a search pattern.
    pub fn build_query(&self, pattern: &str) -> Result<EncryptedQuery, PipelineError> {
        let _timer = sdds_obs::histogram("core.query_build_seconds").start_timer();
        let series = self
            .config
            .chunking
            .search_series(&rc_symbols(pattern), self.config.search_mode)
            .map_err(PipelineError::Query)?;
        let series_drops: Vec<usize> = series.iter().map(|s| s.drop).collect();
        let c = self.config.chunking.num_chunkings();
        let k = self.config.k();
        let element_bytes = self.config.element_bytes();
        let mut per_tag: Vec<(u32, Vec<Vec<u8>>)> = Vec::with_capacity(c * k);
        for j in 0..c {
            // encrypt every series under chunking j's key
            let encrypted_series: Vec<Vec<u128>> = series
                .iter()
                .map(|ser| {
                    let mut vals: Vec<u128> = ser
                        .chunks
                        .iter()
                        .map(|ch| self.chunk_plain_value(ch))
                        .collect();
                    self.prps[j].encrypt_many(&mut vals);
                    vals
                })
                .collect();
            match &self.disperser {
                Some(d) => {
                    // per site: the site's share stream of each series
                    for site in 0..k {
                        let bodies: Vec<Vec<u8>> = encrypted_series
                            .iter()
                            .map(|vals| {
                                let mut body = Vec::with_capacity(vals.len() * element_bytes);
                                for &v in vals {
                                    let share = d.disperse(v)[site];
                                    body.extend_from_slice(&value_to_bytes(
                                        share.into(),
                                        element_bytes,
                                    ));
                                }
                                body
                            })
                            .collect();
                        per_tag.push((self.tag(j, site), bodies));
                    }
                }
                None => {
                    let bodies: Vec<Vec<u8>> = encrypted_series
                        .iter()
                        .map(|vals| {
                            let mut body = Vec::with_capacity(vals.len() * element_bytes);
                            for &v in vals {
                                body.extend_from_slice(&value_to_bytes(v, element_bytes));
                            }
                            body
                        })
                        .collect();
                    per_tag.push((self.tag(j, 0), bodies));
                }
            }
        }
        Ok(EncryptedQuery {
            tag_bits: self.config.tag_bits(),
            element_bytes,
            series_drops,
            per_tag,
        })
    }

    // ---- LH* key layout (§5) ----

    /// Tag of the index record for (chunking, site); tag 0 is the record
    /// store copy.
    pub fn tag(&self, chunking: usize, site: usize) -> u32 {
        (1 + chunking * self.config.k() + site) as u32
    }

    /// The LH\* key of a record-store or index record: the RID with the
    /// tag appended as least significant bits.
    pub fn lh_key(&self, rid: u64, tag: u32) -> u64 {
        (rid << self.config.tag_bits()) | u64::from(tag)
    }

    /// Inverse of [`lh_key`](Self::lh_key).
    pub fn parse_key(&self, key: u64) -> (u64, u32) {
        let bits = self.config.tag_bits();
        (key >> bits, (key & ((1 << bits) - 1)) as u32)
    }
}

/// RC string → symbol stream (one `u16` per byte).
pub(crate) fn rc_symbols(rc: &str) -> Vec<u16> {
    rc.bytes().map(u16::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncodingConfig;
    use sdds_cipher::MasterKey;

    fn keys() -> KeyMaterial {
        KeyMaterial::new(MasterKey::new([7; 16]))
    }

    fn basic_pipeline() -> IndexPipeline {
        IndexPipeline::new(SchemeConfig::basic(4, 4).unwrap(), keys(), None).unwrap()
    }

    #[test]
    fn index_record_count_and_shape() {
        let p = basic_pipeline();
        let recs = p.index_records_for(0, "ABCDEFGHIJKL");
        assert_eq!(recs.len(), 4); // 4 chunkings × k=1
                                   // chunking 0: 3 chunks of 4 bytes each → 12-byte body (4B elements)
        assert_eq!(recs[0].body.len(), 3 * 4);
        // chunking 1 pads by 1 → 4 chunks
        assert_eq!(recs[1].body.len(), 4 * 4);
    }

    #[test]
    fn equal_chunks_produce_equal_elements_within_a_chunking() {
        let p = basic_pipeline();
        let recs = p.index_records_for(0, "ABCDABCD");
        let body = &recs[0].body; // chunking 0: two identical chunks "ABCD"
        assert_eq!(&body[0..4], &body[4..8], "deterministic ECB property");
    }

    #[test]
    fn different_chunkings_use_different_keys() {
        let p = basic_pipeline();
        // chunk "ABCD" appears aligned in chunking 0 of "ABCD" and in
        // chunking 0 vs chunking 4-pad variants; compare the raw encrypt:
        let chunk: Vec<u16> = "ABCD".bytes().map(u16::from).collect();
        let plain = p.chunk_plain_value(&chunk);
        let v0 = p.prps[0].encrypt(plain);
        let v1 = p.prps[1].encrypt(plain);
        assert_ne!(v0, v1, "per-chunking keys must differ");
    }

    #[test]
    fn record_encryption_roundtrip() {
        let p = basic_pipeline();
        let ct = p.encrypt_record(42, "SCHWARZ THOMAS");
        assert_ne!(ct, b"SCHWARZ THOMAS".to_vec());
        assert_eq!(p.decrypt_record(42, &ct).unwrap(), "SCHWARZ THOMAS");
        // per-RID IVs: same plaintext, different rid, different ciphertext
        assert_ne!(p.encrypt_record(43, "SCHWARZ THOMAS"), ct);
        // wrong rid cannot decrypt
        assert!(p.decrypt_record(43, &ct).is_err());
    }

    #[test]
    fn key_layout_roundtrip() {
        let p = basic_pipeline();
        for rid in [0u64, 1, 12345, 1 << 40] {
            for tag in 0..=p.config().index_records_per_record() as u32 {
                let key = p.lh_key(rid, tag);
                assert_eq!(p.parse_key(key), (rid, tag));
            }
        }
    }

    #[test]
    fn sibling_index_records_differ_in_lsbs_only() {
        // §5: "index records belonging to the same original record will be
        // stored in different LH* buckets if the number of buckets > 8"
        let p = basic_pipeline();
        let keys: Vec<u64> = (0..=4u32).map(|tag| p.lh_key(99, tag)).collect();
        for w in keys.windows(2) {
            assert_eq!(w[1] - w[0], 1, "tags occupy consecutive keys");
        }
        // so mod 2^i addressing separates them once the file has >= 8 buckets
        let distinct: std::collections::HashSet<u64> = keys.iter().map(|k| k % 8).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn dispersed_pipeline_produces_k_bodies_per_chunking() {
        let mut cfg = SchemeConfig::basic(4, 2).unwrap(); // 32-bit chunks
        cfg.dispersion = Some(4); // 8-bit shares
        let cfg = cfg.validated().unwrap();
        let p = IndexPipeline::new(cfg, keys(), None).unwrap();
        let recs = p.index_records_for(0, "ABCDEFGH");
        assert_eq!(recs.len(), 8); // 2 chunkings × 4 sites
        for r in &recs {
            // chunking 0: 2 aligned chunks; chunking 1 (2 pad symbols): 3
            let expect = if r.chunking == 0 { 2 } else { 3 };
            assert_eq!(r.body.len(), expect, "chunks × 1-byte shares");
        }
        // share streams across sites differ
        assert_ne!(recs[0].body, recs[1].body);
    }

    #[test]
    fn encoded_pipeline_uses_code_width() {
        let mut cfg = SchemeConfig::basic(2, 2).unwrap();
        cfg.encoding = Some(EncodingConfig::whole_chunk(16));
        let cfg = cfg.validated().unwrap();
        let sample = ["ABAB", "CDCD", "ABCD"];
        let book = IndexPipeline::train_codebook(&cfg, sample);
        let p = IndexPipeline::new(cfg, keys(), Some(book)).unwrap();
        let recs = p.index_records_for(0, "ABCD");
        // 4-bit codes → 1-byte elements, 2 chunks in chunking 0
        assert_eq!(recs[0].body.len(), 2);
        for r in &recs {
            for &b in &r.body {
                assert!(b < 16, "element exceeds code width: {b:#x}");
            }
        }
    }

    #[test]
    fn per_symbol_table_matches_encode_gram_for_every_symbol() {
        let cfg = SchemeConfig::paper_recommended();
        // a sample that leaves most of the 256 symbols unseen, so the
        // table holds FNV fallback codes as well as trained ones
        let book = IndexPipeline::train_codebook(&cfg, ["SCHWARZ", "LITWIN", "MARTINEZ"]);
        let p = IndexPipeline::new(cfg, keys(), Some(book.clone())).unwrap();
        assert_eq!(p.symbol_codes.len(), 256);
        for sym in 0..=u8::MAX {
            let sym = u16::from(sym);
            assert_eq!(
                p.symbol_codes[usize::from(sym)],
                book.encode_gram(&[sym]),
                "{sym}"
            );
        }
        // a symbol past the table still gets its encode_gram code
        let bits = cfg.encoding.unwrap().code_bits();
        let wide = [300u16; 6];
        let want = (0..6).fold(0u128, |acc, _| {
            (acc << bits) | u128::from(book.encode_gram(&[300]))
        });
        assert_eq!(p.chunk_plain_value(&wide), want);
    }

    #[test]
    fn query_generation_matches_config_shape() {
        let p = basic_pipeline();
        let q = p.build_query("ABCDEFGH").unwrap();
        assert_eq!(q.tag_bits, p.config().tag_bits());
        assert_eq!(q.per_tag.len(), 4); // 4 chunkings × k=1
                                        // Minimal mode on full scheme: t = 1 drop → 1 series per tag
        for (_, series) in &q.per_tag {
            assert_eq!(series.len(), 1);
        }
    }

    #[test]
    fn too_short_query_rejected() {
        let p = basic_pipeline();
        let err = p.build_query("ABC").unwrap_err();
        assert!(matches!(err, PipelineError::Query(_)));
    }
}
