//! The Song–Wagner–Perrig sequential-scan searchable encryption \[SWP00\].
//!
//! Scheme (their "final scheme", word-granular):
//!
//! * every word `w` is canonicalised to a 16-byte block and pre-encrypted,
//!   `X_i = E_{k''}(w_i)`, split into `X_i = ⟨L_i, R_i⟩` (8 + 8 bytes);
//! * the owner draws a pseudorandom `S_i` (8 bytes) per position and forms
//!   the checkable stream word `T_i = ⟨S_i, F_{k_i}(S_i)⟩` where
//!   `k_i = f_{k'}(L_i)` depends on the word;
//! * the stored ciphertext is `C_i = X_i ⊕ T_i`.
//!
//! To search for `w`, the client reveals the trapdoor `(X, k_w)`; a site
//! scans its positions computing `⟨s, t⟩ = C_i ⊕ X` and reports a match
//! when `t = F_{k_w}(s)` — correct with false-positive probability 2⁻⁶⁴,
//! but **only for whole words**: a substring of a word has a different
//! `X`, which is precisely the limitation the ICDE'06 scheme removes.

use sdds_cipher::{Aes128, MasterKey};
use sdds_lh::{ClusterConfig, LhClient, LhCluster, LhError, PreparedQuery, ScanFilter};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One encrypted word position: `C_i = ⟨L ⊕ S, R ⊕ F(S)⟩`.
pub type CipherWord = [u8; 16];

/// The word-level searchable encryption scheme.
pub struct SwpScheme {
    /// E — word pre-encryption.
    word_cipher: Aes128,
    /// f — derives the per-word check key from L.
    key_derive: Aes128,
    /// source of the per-record pseudorandom stream S.
    stream: Aes128,
}

/// A search trapdoor: reveals the word's pre-encryption and check key,
/// nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trapdoor {
    /// `X = E(w)`.
    pub x: [u8; 16],
    /// `k_w = f(L)`.
    pub kw: [u8; 16],
}

impl SwpScheme {
    /// Derives the scheme's sub-keys from a master key.
    pub fn new(master: &MasterKey) -> SwpScheme {
        SwpScheme {
            word_cipher: Aes128::new(&master.derive("swp-word", 0)),
            key_derive: Aes128::new(&master.derive("swp-kd", 0)),
            stream: Aes128::new(&master.derive("swp-stream", 0)),
        }
    }

    /// Canonicalises a word into its 16-byte block (hash-pad, as SWP
    /// suggest for variable-length words).
    fn word_block(&self, word: &str) -> [u8; 16] {
        self.word_cipher.prf(word.as_bytes())
    }

    fn pre_encrypt(&self, word: &str) -> [u8; 16] {
        let mut x = self.word_block(word);
        self.word_cipher.encrypt_block(&mut x);
        x
    }

    fn check_key(&self, left: &[u8]) -> [u8; 16] {
        self.key_derive.prf(left)
    }

    /// Encrypts a record's words into its searchable stream.
    pub fn index_record(&self, rid: u64, rc: &str) -> Vec<CipherWord> {
        rc.split_whitespace()
            .enumerate()
            .map(|(i, word)| {
                let x = self.pre_encrypt(word);
                let (l, r) = x.split_at(8);
                // S_i: pseudorandom, reproducible by the owner only
                let mut seed = Vec::with_capacity(16);
                seed.extend_from_slice(&rid.to_le_bytes());
                seed.extend_from_slice(&(i as u64).to_le_bytes());
                let s = &self.stream.prf(&seed)[..8];
                let ki = self.check_key(l);
                let f = &Aes128::new(&ki).prf(s)[..8];
                let mut c = [0u8; 16];
                for b in 0..8 {
                    c[b] = l[b] ^ s[b];
                    c[8 + b] = r[b] ^ f[b];
                }
                c
            })
            .collect()
    }

    /// Builds the trapdoor for a word.
    pub fn trapdoor(&self, word: &str) -> Trapdoor {
        let x = self.pre_encrypt(word);
        let kw = self.check_key(&x[..8]);
        Trapdoor { x, kw }
    }

    /// The site-side check: does position `c` hold the trapdoor's word?
    pub fn matches(c: &CipherWord, t: &Trapdoor) -> bool {
        let mut s = [0u8; 8];
        let mut tt = [0u8; 8];
        for b in 0..8 {
            s[b] = c[b] ^ t.x[b];
            tt[b] = c[8 + b] ^ t.x[8 + b];
        }
        let f = Aes128::new(&t.kw).prf(&s);
        f[..8] == tt
    }
}

/// Scan filter evaluating SWP trapdoors at bucket sites.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwpFilter;

impl ScanFilter for SwpFilter {
    fn prepare(&self, query: &[u8]) -> Box<dyn PreparedQuery> {
        Box::new(PreparedTrapdoor(serde_json::from_slice(query).ok()))
    }
}

/// A trapdoor off the wire; bytes that are none match nothing.
struct PreparedTrapdoor(Option<Trapdoor>);

impl PreparedQuery for PreparedTrapdoor {
    fn matches(&self, _key: u64, value: &[u8]) -> bool {
        let Some(trapdoor) = &self.0 else {
            return false;
        };
        value.chunks_exact(16).any(|c| {
            let mut cw = [0u8; 16];
            cw.copy_from_slice(c);
            SwpScheme::matches(&cw, trapdoor)
        })
    }
}

/// The SWP baseline running over the same LH\* substrate as the main
/// scheme: one searchable word-stream record per `(RID, RC)`.
pub struct SwpStore {
    scheme: SwpScheme,
    cluster: LhCluster,
    client: LhClient,
}

impl SwpStore {
    /// Starts a store with the given master key.
    pub fn start(master: &MasterKey, bucket_capacity: usize) -> SwpStore {
        let cluster = LhCluster::start(ClusterConfig {
            bucket_capacity,
            filter: Arc::new(SwpFilter),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        SwpStore {
            scheme: SwpScheme::new(master),
            cluster,
            client,
        }
    }

    /// Inserts a record's searchable word stream.
    pub fn insert(&self, rid: u64, rc: &str) -> Result<(), LhError> {
        let stream = self.scheme.index_record(rid, rc);
        let body: Vec<u8> = stream.iter().flatten().copied().collect();
        self.client.insert(rid, body)?;
        Ok(())
    }

    /// Word search: returns RIDs whose stream contains the word.
    pub fn search_word(&self, word: &str) -> Result<Vec<u64>, LhError> {
        let t = self.scheme.trapdoor(word);
        let query = serde_json::to_vec(&t).expect("trapdoor serializes");
        let matches = self.client.scan(&query, true)?;
        Ok(matches.into_iter().map(|m| m.key).collect())
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

    fn scheme() -> SwpScheme {
        SwpScheme::new(&MasterKey::new([3; 16]))
    }

    #[test]
    fn word_found_in_stream() {
        let s = scheme();
        let stream = s.index_record(1, "SCHWARZ THOMAS J");
        let t = s.trapdoor("THOMAS");
        assert!(stream.iter().any(|c| SwpScheme::matches(c, &t)));
    }

    #[test]
    fn absent_word_not_found() {
        let s = scheme();
        let stream = s.index_record(1, "SCHWARZ THOMAS");
        let t = s.trapdoor("LITWIN");
        assert!(!stream.iter().any(|c| SwpScheme::matches(c, &t)));
    }

    #[test]
    fn substring_of_word_not_found_word_granularity() {
        // the limitation the ICDE'06 scheme overcomes
        let s = scheme();
        let stream = s.index_record(1, "SCHWARZ");
        for fragment in ["SCHWAR", "CHWARZ", "WAR"] {
            let t = s.trapdoor(fragment);
            assert!(
                !stream.iter().any(|c| SwpScheme::matches(c, &t)),
                "SWP must not find fragment {fragment:?}"
            );
        }
    }

    #[test]
    fn same_word_different_positions_encrypts_differently() {
        // the stream hides word-equality across positions (unlike ECB)
        let s = scheme();
        let stream = s.index_record(1, "YU YU");
        assert_ne!(stream[0], stream[1]);
        // but the trapdoor finds both
        let t = s.trapdoor("YU");
        assert!(SwpScheme::matches(&stream[0], &t));
        assert!(SwpScheme::matches(&stream[1], &t));
    }

    #[test]
    fn different_keys_do_not_cross_match() {
        let s1 = scheme();
        let s2 = SwpScheme::new(&MasterKey::new([4; 16]));
        let stream = s1.index_record(1, "THOMAS");
        let t = s2.trapdoor("THOMAS");
        assert!(!stream.iter().any(|c| SwpScheme::matches(c, &t)));
    }

    #[test]
    fn store_end_to_end() {
        let master = MasterKey::new([9; 16]);
        let store = SwpStore::start(&master, 16);
        store.insert(1, "SCHWARZ THOMAS").unwrap();
        store.insert(2, "LITWIN WITOLD").unwrap();
        store.insert(3, "TSUI PETER THOMAS").unwrap();
        let mut hits = store.search_word("THOMAS").unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 3]);
        assert!(store.search_word("NOBODY").unwrap().is_empty());
        assert!(
            store.search_word("THOMA").unwrap().is_empty(),
            "word granularity"
        );
        store.shutdown();
    }
}
