//! The fetch-decrypt-scan baseline.
//!
//! Strong encryption only: records are AES-CBC ciphertexts at the sites
//! and cannot be searched there. A search must ship **every** record to
//! the client, decrypt, and scan locally — the approach the paper rules
//! out for any real database size (§1). The store exists so benches can
//! put numbers (bytes moved, time spent) behind that sentence.

use sdds_cipher::{modes, Aes128, CipherError, KeyMaterial, MasterKey, RecordIvs};
use sdds_lh::{ClusterConfig, LhClient, LhCluster, LhError, PreparedQuery, ScanFilter};
use std::sync::Arc;

/// A filter that matches everything — the "search" of a naive store is a
/// full download.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatchAllFilter;

impl ScanFilter for MatchAllFilter {
    fn prepare(&self, _query: &[u8]) -> Box<dyn PreparedQuery> {
        Box::new(*self)
    }
}

impl PreparedQuery for MatchAllFilter {
    fn matches(&self, _key: u64, _value: &[u8]) -> bool {
        true
    }
}

/// Errors of the naive store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaiveError {
    /// LH\* failure.
    Lh(LhError),
    /// A downloaded record failed to decrypt.
    Decrypt(CipherError),
}

impl std::fmt::Display for NaiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NaiveError::Lh(e) => write!(f, "lh*: {e}"),
            NaiveError::Decrypt(e) => write!(f, "decrypt: {e}"),
        }
    }
}

impl std::error::Error for NaiveError {}

impl From<LhError> for NaiveError {
    fn from(e: LhError) -> Self {
        NaiveError::Lh(e)
    }
}

/// Strong-encryption-only store: full confidentiality, no server-side
/// search.
pub struct NaiveStore {
    cipher: Aes128,
    ivs: RecordIvs,
    cluster: LhCluster,
    client: LhClient,
}

impl NaiveStore {
    /// Starts the store.
    pub fn start(master: &MasterKey, bucket_capacity: usize) -> NaiveStore {
        let keys = KeyMaterial::new(master.clone());
        let cluster = LhCluster::start(ClusterConfig {
            bucket_capacity,
            filter: Arc::new(MatchAllFilter),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        NaiveStore {
            cipher: keys.record_cipher(),
            ivs: keys.record_ivs(),
            cluster,
            client,
        }
    }

    /// Inserts a record (strongly encrypted).
    pub fn insert(&self, rid: u64, rc: &str) -> Result<(), NaiveError> {
        let iv = self.ivs.iv(rid);
        let ct = modes::cbc_encrypt(&self.cipher, &iv, rc.as_bytes());
        self.client.insert(rid, ct)?;
        Ok(())
    }

    /// Searches by downloading the whole file, decrypting, and scanning —
    /// the pattern can be arbitrary, but every byte crosses the network.
    pub fn search(&self, pattern: &str) -> Result<Vec<u64>, NaiveError> {
        let all = self.client.scan(&[], false)?;
        let mut hits = Vec::new();
        for m in all {
            let Some(ct) = m.value else { continue };
            let iv = self.ivs.iv(m.key);
            let pt = modes::cbc_decrypt(&self.cipher, &iv, &ct).map_err(NaiveError::Decrypt)?;
            let matched =
                pattern.is_empty() || pt.windows(pattern.len()).any(|w| w == pattern.as_bytes());
            if matched {
                hits.push(m.key);
            }
        }
        hits.sort_unstable();
        Ok(hits)
    }

    /// The cluster, for traffic accounting.
    pub fn cluster(&self) -> &LhCluster {
        &self.cluster
    }

    /// Stops the cluster.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_arbitrary_substrings_but_moves_everything() {
        let store = NaiveStore::start(&MasterKey::new([1; 16]), 16);
        store.insert(1, "SCHWARZ THOMAS").unwrap();
        store.insert(2, "LITWIN WITOLD").unwrap();
        store.insert(3, "TSUI PETER").unwrap();
        store.cluster().network().stats().reset();
        // arbitrary substring search works…
        assert_eq!(store.search("CHWAR").unwrap(), vec![1]);
        // …but the download is the whole file
        let bytes = store.cluster().network().stats().bytes();
        let all_ct: usize = 3 * 16; // at least one AES block per record
        assert!(
            bytes as usize > all_ct,
            "naive search must move at least every ciphertext: {bytes}"
        );
        store.shutdown();
    }

    #[test]
    fn empty_pattern_matches_all() {
        let store = NaiveStore::start(&MasterKey::new([1; 16]), 16);
        store.insert(5, "ANYTHING").unwrap();
        assert_eq!(store.search("").unwrap(), vec![5]);
        store.shutdown();
    }

    #[test]
    fn confidentiality_at_rest() {
        let store = NaiveStore::start(&MasterKey::new([1; 16]), 16);
        store.insert(9, "SECRET NAME").unwrap();
        // peek at what the site actually stores via a raw LH* client
        let raw = store.cluster().client();
        let ct = raw.lookup(9).unwrap().unwrap();
        assert!(!ct.windows(6).any(|w| w == b"SECRET"));
        store.shutdown();
    }
}
