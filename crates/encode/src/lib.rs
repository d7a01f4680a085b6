//! Stage 2 of the ICDE'06 scheme: redundancy removal by lossy,
//! frequency-equalising compression.
//!
//! §3: "we preprocess the symbols by placing them into a smaller number of
//! buckets and encode them by bucket number. … we can preprocess a
//! representative part of the database and count the occurrence of each
//! chunk. We then place these characters into buckets, one for each encoded
//! symbol, in order of frequency of occurrence."
//!
//! [`GramCounter`] counts fixed-size grams; [`Codebook::build_equalized`]
//! performs the greedy lightest-bucket assignment (which reproduces the
//! paper's Figure 5 exactly — see the tests); encoding a stream maps each
//! gram to its bucket number, deliberately conflating grams (that is the
//! *lossy* part that flattens frequencies and creates false positives).
//!
//! ```
//! use sdds_encode::{Codebook, GramCounter};
//!
//! let mut counter = GramCounter::new(1);
//! counter.add_record(&"AABAC".bytes().map(u16::from).collect::<Vec<_>>(), 0);
//! let book = Codebook::build_equalized(&counter, 2);
//! // 'A' (most frequent) gets code 0; B and C share the other bucket.
//! let code_a = book.encode_gram(&[u16::from(b'A')]);
//! let code_b = book.encode_gram(&[u16::from(b'B')]);
//! let code_c = book.encode_gram(&[u16::from(b'C')]);
//! assert_ne!(code_a, code_b);
//! assert_eq!(code_b, code_c); // lossy conflation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codebook;
mod counter;

pub use codebook::Codebook;
pub use counter::GramCounter;
