//! Scheme parameters and their validation.

use sdds_chunk::{ChunkingScheme, PartialChunkPolicy, SearchMode};
use sdds_disperse::DispersalConfig;
use std::fmt;

/// What Stage 2 assigns codes to.
///
/// §3: the chunk-frequency procedure "becomes impossible for larger chunk
/// sizes simply because there are just too many possible chunks. In this
/// case we can at least preprocess the records encoding each symbol into a
/// smaller one" — that is [`PerSymbol`](EncodingGranularity::PerSymbol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingGranularity {
    /// One code per whole chunk (`s`-gram) — maximal flattening, needs the
    /// chunk population to be learnable from a sample.
    #[default]
    WholeChunk,
    /// One code per symbol; a chunk's image is the concatenation of its
    /// symbol codes — the paper's fallback for large chunks (and the setup
    /// of its Table-4 experiments).
    PerSymbol,
}

/// Stage-2 (redundancy removal) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingConfig {
    /// Size of the code alphabet; must be a power of two so codes pack
    /// into whole bits (the paper sweeps 8..128).
    pub num_codes: usize,
    /// Whole-chunk or per-symbol assignment.
    pub granularity: EncodingGranularity,
}

impl EncodingConfig {
    /// Whole-chunk codes (§3's primary procedure).
    pub fn whole_chunk(num_codes: usize) -> EncodingConfig {
        EncodingConfig {
            num_codes,
            granularity: EncodingGranularity::WholeChunk,
        }
    }

    /// Per-symbol codes (§3's large-chunk fallback).
    pub fn per_symbol(num_codes: usize) -> EncodingConfig {
        EncodingConfig {
            num_codes,
            granularity: EncodingGranularity::PerSymbol,
        }
    }

    /// Bits per code.
    pub fn code_bits(&self) -> u32 {
        self.num_codes.trailing_zeros()
    }
}

/// Errors from scheme configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Stage-1 chunking parameters invalid.
    Chunking(sdds_chunk::ChunkError),
    /// `num_codes` must be a power of two in `2..=65536`.
    BadCodeCount(usize),
    /// Chunk width in bits exceeds the 128-bit PRP limit.
    ChunkTooWide(usize),
    /// Dispersion parameters invalid for the effective chunk width.
    Dispersion(sdds_disperse::DisperseError),
    /// Symbol width must be 1..=16 bits.
    BadSymbolBits(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Chunking(e) => write!(f, "chunking: {e}"),
            ConfigError::BadCodeCount(n) => {
                write!(f, "num_codes {n} must be a power of two in 2..=65536")
            }
            ConfigError::ChunkTooWide(b) => {
                write!(f, "chunk width {b} bits exceeds the 128-bit limit")
            }
            ConfigError::Dispersion(e) => write!(f, "dispersion: {e}"),
            ConfigError::BadSymbolBits(b) => write!(f, "symbol width {b} outside 1..=16"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<sdds_chunk::ChunkError> for ConfigError {
    fn from(e: sdds_chunk::ChunkError) -> Self {
        ConfigError::Chunking(e)
    }
}

impl From<sdds_disperse::DisperseError> for ConfigError {
    fn from(e: sdds_disperse::DisperseError) -> Self {
        ConfigError::Dispersion(e)
    }
}

/// Full parameterisation of the scheme: one record store copy plus
/// `num_chunkings × dispersion` index records per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Stage-1 chunking family (chunk size `s`, `c` chunkings).
    pub chunking: ChunkingScheme,
    /// Bits per plaintext symbol (`f`; 8 for ASCII).
    pub symbol_bits: u32,
    /// Stage-2 lossy compression; `None` stores raw encrypted chunks.
    pub encoding: Option<EncodingConfig>,
    /// Stage-3 dispersion degree `k`; `None` keeps index records whole
    /// (equivalent to `k = 1`).
    pub dispersion: Option<usize>,
    /// Whether padded boundary chunks are stored (§2.1 trade-off).
    pub partial_chunks: PartialChunkPolicy,
    /// How many query alignments are sent and how verdicts combine.
    pub search_mode: SearchMode,
}

impl SchemeConfig {
    /// A plain configuration: chunk size `s`, `c` chunkings, 8-bit
    /// symbols, no compression, no dispersion.
    pub fn basic(chunk_size: usize, num_chunkings: usize) -> Result<SchemeConfig, ConfigError> {
        SchemeConfig {
            chunking: ChunkingScheme::new(chunk_size, num_chunkings)?,
            symbol_bits: 8,
            encoding: None,
            dispersion: None,
            partial_chunks: PartialChunkPolicy::Store,
            search_mode: SearchMode::Minimal,
        }
        .validated()
    }

    /// The configuration the paper's conclusion recommends: chunks of six
    /// ASCII characters, two chunkings, modest compression, dispersion
    /// over three sites ("a chunk size of 6 ASCII characters together with
    /// dispersing index records into 3 records might already result in a
    /// reasonable secure code", §8).
    pub fn paper_recommended() -> SchemeConfig {
        SchemeConfig {
            // lint: allow(panic-freedom) -- compile-time constants (6 symbols, 2 chunkings) are always a valid scheme
            chunking: ChunkingScheme::new(6, 2).expect("6/2 valid"),
            symbol_bits: 8,
            // "modest preprocessing": 6 bits per symbol, per the paper's
            // large-chunk fallback — 6-symbol chunks have 2^48 possible
            // values, far too many for whole-chunk frequency counting
            encoding: Some(EncodingConfig::per_symbol(64)),
            dispersion: Some(3),
            partial_chunks: PartialChunkPolicy::Store,
            search_mode: SearchMode::Minimal,
        }
        .validated()
        // lint: allow(panic-freedom) -- the §8 constants above are a fixed, known-valid configuration
        .expect("paper configuration is valid")
    }

    /// Validates the interplay of all parameters.
    pub fn validated(self) -> Result<SchemeConfig, ConfigError> {
        if !(1..=16).contains(&self.symbol_bits) {
            return Err(ConfigError::BadSymbolBits(self.symbol_bits));
        }
        if let Some(enc) = &self.encoding {
            if !(2..=65536).contains(&enc.num_codes) || !enc.num_codes.is_power_of_two() {
                return Err(ConfigError::BadCodeCount(enc.num_codes));
            }
        }
        let width = self.chunk_bits();
        if width > 128 || width == 0 {
            return Err(ConfigError::ChunkTooWide(width));
        }
        if let Some(k) = self.dispersion {
            // validates divisibility and share width
            DispersalConfig::new(width, k)?;
        }
        Ok(self)
    }

    /// Effective chunk width in bits after Stage 2 (`s·f` raw, or the code
    /// width when compression is on).
    pub fn chunk_bits(&self) -> usize {
        match &self.encoding {
            Some(enc) => match enc.granularity {
                EncodingGranularity::WholeChunk => enc.code_bits() as usize,
                EncodingGranularity::PerSymbol => {
                    self.chunking.chunk_size() * enc.code_bits() as usize
                }
            },
            None => self.chunking.chunk_size() * self.symbol_bits as usize,
        }
    }

    /// Dispersion degree (1 = no dispersion).
    pub fn k(&self) -> usize {
        self.dispersion.unwrap_or(1)
    }

    /// Index records per stored record: chunkings × dispersion sites.
    pub fn index_records_per_record(&self) -> usize {
        self.chunking.num_chunkings() * self.k()
    }

    /// Bits of tag appended to the RID in LH\* keys: enough for the record
    /// store copy plus every index record.
    pub fn tag_bits(&self) -> u32 {
        let variants = 1 + self.index_records_per_record();
        usize::BITS - (variants - 1).leading_zeros()
    }

    /// Bytes used to encode one element (share or whole encrypted chunk)
    /// in an index record body.
    pub fn element_bytes(&self) -> usize {
        let bits = self.chunk_bits() / self.k();
        bits.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_configs_validate() {
        assert!(SchemeConfig::basic(4, 4).is_ok());
        assert!(SchemeConfig::basic(8, 2).is_ok());
        assert!(SchemeConfig::basic(1, 1).is_ok());
    }

    #[test]
    fn paper_recommended_is_valid() {
        let cfg = SchemeConfig::paper_recommended();
        assert_eq!(cfg.chunking.chunk_size(), 6);
        assert_eq!(cfg.k(), 3);
        assert_eq!(cfg.chunk_bits(), 36); // 6 symbols x 6-bit codes
        assert_eq!(cfg.index_records_per_record(), 6);
    }

    #[test]
    fn rejects_wide_raw_chunks() {
        // 32 symbols × 8 bits = 256 bits > 128
        let err = SchemeConfig::basic(32, 2).unwrap_err();
        assert_eq!(err, ConfigError::ChunkTooWide(256));
    }

    #[test]
    fn rejects_non_power_of_two_codes() {
        let mut cfg = SchemeConfig::basic(4, 2).unwrap();
        cfg.encoding = Some(EncodingConfig::whole_chunk(100));
        assert_eq!(cfg.validated().unwrap_err(), ConfigError::BadCodeCount(100));
    }

    #[test]
    fn rejects_bad_dispersion() {
        let mut cfg = SchemeConfig::basic(4, 2).unwrap(); // 32-bit chunks
        cfg.dispersion = Some(3); // 3 does not divide 32
        assert!(matches!(
            cfg.validated().unwrap_err(),
            ConfigError::Dispersion(_)
        ));
    }

    #[test]
    fn tag_bits_cover_all_variants() {
        let cfg = SchemeConfig::basic(4, 2).unwrap(); // 1 + 2 index = 3 variants
        assert_eq!(cfg.tag_bits(), 2);
        let paper = SchemeConfig::paper_recommended(); // 1 + 6 = 7 variants
        assert_eq!(paper.tag_bits(), 3); // matches Figure 3's "3 bits"
    }

    #[test]
    fn element_bytes_rounding() {
        let cfg = SchemeConfig::basic(4, 2).unwrap(); // 32-bit chunks, k=1
        assert_eq!(cfg.element_bytes(), 4);
        let mut cfg = cfg;
        cfg.dispersion = Some(4); // 8-bit shares
        let cfg = cfg.validated().unwrap();
        assert_eq!(cfg.element_bytes(), 1);
        let paper = SchemeConfig::paper_recommended(); // 36/3 = 12 bits
        assert_eq!(paper.element_bytes(), 2);
    }

    #[test]
    fn encoding_overrides_chunk_width() {
        let mut cfg = SchemeConfig::basic(6, 2).unwrap();
        assert_eq!(cfg.chunk_bits(), 48);
        cfg.encoding = Some(EncodingConfig::whole_chunk(16));
        let cfg = cfg.validated().unwrap();
        assert_eq!(cfg.chunk_bits(), 4);
        // per-symbol: 6 symbols x 4 bits
        let mut cfg = SchemeConfig::basic(6, 2).unwrap();
        cfg.encoding = Some(EncodingConfig::per_symbol(16));
        let cfg = cfg.validated().unwrap();
        assert_eq!(cfg.chunk_bits(), 24);
    }
}
