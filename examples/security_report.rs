//! Security evaluation in the paper's style (§6): how close do the index
//! records get to random bits as Stages 2 and 3 are added?
//!
//! Prints χ² of what an attacker at an index site sees, Shannon entropy
//! estimates, and the NIST-style randomness battery on the stored bodies.
//!
//! ```sh
//! cargo run --release --example security_report
//! ```

use sdds_repro::cipher::{KeyMaterial, MasterKey};
use sdds_repro::core::{EncodingConfig, IndexPipeline, SchemeConfig};
use sdds_repro::corpus::DirectoryGenerator;
use sdds_repro::stats::{chi2::Chi2Report, randomness::RandomnessReport, shannon_entropy};

fn pipeline(encoding: bool, dispersion: Option<usize>, rcs: &[String]) -> IndexPipeline {
    let mut cfg = SchemeConfig::basic(4, 2).expect("valid");
    if encoding {
        cfg.encoding = Some(EncodingConfig::whole_chunk(4096));
    }
    cfg.dispersion = dispersion;
    let cfg = cfg.validated().expect("valid");
    let book = cfg
        .encoding
        .map(|_| IndexPipeline::train_codebook(&cfg, rcs.iter().map(|s| s.as_str())));
    IndexPipeline::new(cfg, KeyMaterial::new(MasterKey::new([7; 16])), book).expect("pipeline")
}

/// What one index site stores for site (chunking 0, dispersion site 0),
/// decoded into its element alphabet: per-record element streams, the
/// element width in bits, and the elements packed into a bit stream for
/// the NIST battery.
fn site_view(p: &IndexPipeline, rcs: &[String]) -> (Vec<Vec<u64>>, u32, Vec<u8>) {
    let cfg = p.config();
    let element_bits = (cfg.chunk_bits() / cfg.k()) as u32;
    let element_bytes = cfg.element_bytes();
    let mut streams = Vec::new();
    let mut bits: Vec<bool> = Vec::new();
    for rc in rcs {
        let recs = p.index_records_for(0, rc);
        let body = &recs[0].body;
        let elements: Vec<u64> = body
            .chunks(element_bytes)
            .map(|e| {
                let mut v = 0u64;
                for (i, &b) in e.iter().enumerate() {
                    v |= (b as u64) << (8 * i); // little-endian
                }
                v
            })
            .collect();
        for &e in &elements {
            for bit in (0..element_bits).rev() {
                bits.push((e >> bit) & 1 == 1);
            }
        }
        streams.push(elements);
    }
    // pack bits MSB-first into bytes
    let mut packed = vec![0u8; bits.len() / 8];
    for (i, byte) in packed.iter_mut().enumerate() {
        for j in 0..8 {
            *byte = (*byte << 1) | u8::from(bits[i * 8 + j]);
        }
    }
    (streams, element_bits, packed)
}

fn main() {
    let rcs: Vec<String> = DirectoryGenerator::new(7)
        .generate(3_000)
        .into_iter()
        .map(|r| r.rc)
        .collect();

    println!("What does a single index-storage site learn? (3,000 records)\n");
    println!(
        "{:<28} {:>14} {:>14} {:>10} {:>8}",
        "variant", "chi2 single", "chi2 double", "H (bits)", "NIST"
    );

    let raw_chi2 = Chi2Report::from_records(
        rcs.iter()
            .map(|r| r.bytes().map(u16::from).collect::<Vec<u16>>())
            .collect::<Vec<_>>()
            .iter()
            .map(|v| v.as_slice()),
        256,
    );
    println!(
        "{:<28} {:>14.0} {:>14.0} {:>10} {:>8}",
        "plaintext (for reference)", raw_chi2.single, raw_chi2.double, "-", "-"
    );

    for (name, encoding, dispersion) in [
        ("stage 1 (ECB only)", false, None),
        ("stages 1+2 (compressed)", true, None),
        ("stages 1+3 (dispersed k=4)", false, Some(4)),
        ("stages 1+2+3 (full, k=4)", true, Some(4)),
    ] {
        let p = pipeline(encoding, dispersion, &rcs);
        let (wide_streams, mut element_bits, packed) = site_view(&p, &rcs);
        let streams: Vec<Vec<u16>> = if element_bits > 14 {
            // wide (byte-aligned) elements: analyse at byte granularity so
            // the histogram stays tractable
            assert_eq!(element_bits % 8, 0, "wide elements must be byte-aligned");
            let nbytes = (element_bits / 8) as usize;
            element_bits = 8;
            wide_streams
                .iter()
                .map(|s| {
                    s.iter()
                        .flat_map(|&e| e.to_le_bytes().into_iter().take(nbytes))
                        .map(u16::from)
                        .collect()
                })
                .collect()
        } else {
            wide_streams
                .iter()
                .map(|s| s.iter().map(|&e| e as u16).collect())
                .collect()
        };
        let alphabet = 1usize << element_bits;
        let report = Chi2Report::from_records(streams.iter().map(|v| v.as_slice()), alphabet);
        let mut hist = vec![0u64; alphabet];
        for s in &streams {
            for &e in s {
                hist[e as usize] += 1;
            }
        }
        // normalise entropy to bits per 8 bits of storage for comparability
        let entropy = shannon_entropy(hist) * 8.0 / element_bits as f64;
        let rand = RandomnessReport::run(&packed);
        println!(
            "{:<28} {:>14.0} {:>14.0} {:>10.3} {:>5}/{}",
            name,
            report.single,
            report.double,
            entropy,
            rand.passed(0.01),
            rand.tests.len()
        );
    }

    println!("\nNIST battery detail for the full scheme:");
    let p = pipeline(true, Some(4), &rcs);
    let (_, _, packed) = site_view(&p, &rcs);
    for t in RandomnessReport::run(&packed).tests {
        println!(
            "  {:<16} statistic {:>12.4}  p = {:.4}  {}",
            t.name,
            t.statistic,
            t.p_value,
            if t.passes(0.01) { "pass" } else { "FAIL" }
        );
    }

    println!(
        "\nReading: higher χ² / lower entropy = more structure leaked to the \
         site. Stage 2 flattens single-chunk frequencies; Stage 3 leaves \
         each site a fraction of each chunk; the paper's conclusion — \
         compression plus dispersion approaches, but does not reach, \
         randomness — shows in the residual doublet χ².",
    );
}
