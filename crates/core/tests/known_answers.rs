//! Known answers that pin the bytes of the client transform.
//!
//! Every constant below was computed by the byte-oriented software AES
//! before any faster path existed. Any AES backend, any batching of the
//! chunk PRP, any caching of derived ciphers or code tables must leave
//! these bytes unchanged: a PRP that is wrong but still a permutation would
//! keep every equality-count table in `results/` intact, and only a test
//! like this one notices.

use sdds_cipher::{ChunkPrp, KeyMaterial, MasterKey};
use sdds_core::{IndexPipeline, SchemeConfig};

const RECORDS: [(u64, &str); 3] = [
    (1, "SCHWARZ THOMAS 408-555-0100"),
    (42, "MARTINEZ ANA 212-555-0199 NEW YORK"),
    (9_000_001, "LITWIN WITOLD"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn keys() -> KeyMaterial {
    KeyMaterial::new(MasterKey::from_passphrase("known answers"))
}

fn paper_pipeline() -> IndexPipeline {
    let cfg = SchemeConfig::paper_recommended();
    let book = IndexPipeline::train_codebook(&cfg, RECORDS.iter().map(|(_, rc)| *rc));
    IndexPipeline::new(cfg, keys(), Some(book)).unwrap()
}

fn basic_pipeline() -> IndexPipeline {
    IndexPipeline::new(SchemeConfig::basic(4, 4).unwrap(), keys(), None).unwrap()
}

/// `rid chunking/site:body …` for every record, one line per record.
fn index_lines(p: &IndexPipeline) -> Vec<String> {
    RECORDS
        .iter()
        .map(|&(rid, rc)| {
            let bodies: Vec<String> = p
                .index_records_for(rid, rc)
                .iter()
                .map(|r| format!("{}/{}:{}", r.chunking, r.site, hex(&r.body)))
                .collect();
            format!("{rid} {}", bodies.join(" "))
        })
        .collect()
}

fn assert_lines(what: &str, got: &[String], want: &[&str]) {
    assert_eq!(
        got,
        want,
        "{what} changed; the bytes now are:\n{}",
        got.iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn chunk_prp_outputs_are_pinned() {
    let got: Vec<String> = [1u32, 3, 16, 36, 48, 64, 128]
        .iter()
        .map(|&w| {
            let prp = ChunkPrp::new(&keys().chunk_key(0), w).unwrap();
            let mask = if w == 128 {
                u128::MAX
            } else {
                (1u128 << w) - 1
            };
            let outs: Vec<String> = [0u128, 1, 0x5343_4857_4152, u128::MAX]
                .iter()
                .map(|&x| format!("{:x}", prp.encrypt(x & mask)))
                .collect();
            format!("w{w} {}", outs.join(" "))
        })
        .collect();
    // width 1 is a keyed choice between identity and swap: pin it
    // across sixteen chunk keys so both choices are covered
    let swaps: String = (0..16)
        .map(|j| {
            let prp = ChunkPrp::new(&keys().chunk_key(j), 1).unwrap();
            format!("{}", prp.encrypt(0))
        })
        .collect();
    let got = [got, vec![format!("w1 by key {swaps}")]].concat();
    assert_lines("ChunkPrp::encrypt",
        &got,
        &[
            "w1 0 1 0 1",
            "w3 4 0 3 7",
            "w16 8089 8dd4 f595 c95d",
            "w36 7816a128c 7ce4f692a d2f911157 5a75230b7",
            "w48 414a236a9db1 ebea0cdcaa09 d2687f20f90b b33679d1e187",
            "w64 7bd5fd49ff0c3772 eabaec049524c907 e931d4f81f204f3b 7cc9ddb1ae2fb295",
            "w128 5d391492d2488a50ded8452d70a4bac1 ec855188cc294367ddebcbf6929a8376 6f43a599e3ecf9b9f14c73c0fb131487 cc6057240bf78ec15975a667bbda27d7",
            "w1 by key 0101010101011100",
        ],
    );
}

#[test]
fn paper_recommended_index_bodies_are_pinned() {
    assert_lines(
        "paper_recommended index bodies",
        &index_lines(&paper_pipeline()),
        &[
            "1 0/0:dd0d8e0f00052d0e470b 0/1:300ee804e40211090f0c 0/2:f70eb10cde0ea00b7007 1/0:2e02730a5001f80b2000 1/1:200c0b0f5b0bd2076f04 1/2:4100600d12004d0be408",
            "42 0/0:ea06d90c8703150e7e05100a 0/1:4a036403f40ed30a8108fc0a 0/2:7708dc0b410a7401820ce00c 1/0:cb0d860c3a049804760d77052b0c 1/1:0905b10f1d08ff025b0be10dbb09 1/2:dc0c440ef6040f08dc0c5a0ca809",
            "9000001 0/0:59007304000d 0/1:a10dd30a410a 0/2:7e0f2707b60a 1/0:d8014a0d9800 1/1:ba0ac00bfe06 1/2:330c010a0e0b",
        ],
    );
}

#[test]
fn basic_index_bodies_are_pinned() {
    assert_lines(
        "basic index bodies",
        &index_lines(&basic_pipeline()),
        &[
            "1 0/0:a85e7285fe1f04010d2942a1ba7d1a73588a18324c85e0ad4f0e57d8 1/0:86b4bd45b34c720b2d98abff9c15aec45e5d0d6007c6582ff1bf2228 2/0:77a689d80b3d7f33e7da12e9c8035e984c449ae2fba1b6a1feaef9355359bac8 3/0:b665e59a4e5efd182c63421f3301cc7ffb2ceef08005f07efb5377c4f5b98992",
            "42 0/0:4a07f8bb93afd4f11e7a934dde2116a27ff5a6a1a5dc218e01d201aa7480a9623bdd3ecf 1/0:fc8b6b9195ddb23403e86c3d9e93aa19d1fd61397918cf941686b8b5c7977b56b0c90c92 2/0:21c4e8f2bed37d13a157760ec38894721b8751f7b6152d3ff268741720a89b207a1fbb16 3/0:7914a50f7ed5001010d38512378b40393da7d36df155985d7c4780528381c711b721a78fd7ad53c8",
            "9000001 0/0:de258c852ff8afa8b541ffd615b5f461 1/0:750db373d285656e6ed4fd0182ac5982 2/0:071b8fac77a19d332fcf2842be9f2a8b 3/0:97c73696c9f61612a40f88f8a32e32c9",
        ],
    );
}

#[test]
fn queries_are_pinned() {
    let got: Vec<String> = [paper_pipeline(), basic_pipeline()]
        .iter()
        .map(|p| hex(&p.build_query("MARTINEZ").unwrap().encode()))
        .collect();
    assert_lines(
        "build_query",
        &got,
        &[
            "000300000002000000000000000300000000000000000000000100000000000000020000000000000006000000010000000300000002000000ea06020000007b0d02000000750f0200000003000000020000004a0302000000810102000000dc0a0300000003000000020000007708020000000105020000004f0d0400000003000000020000006203020000005302020000006809050000000300000002000000980f02000000f60d02000000d706060000000300000002000000020c02000000320c020000005706",
            "00030000000400000000000000010000000000000000000000040000000100000001000000080000004a07f8bb93afd4f1020000000100000008000000fc24c45525e23817030000000100000008000000100addfcec54a528040000000100000008000000406bf3d915337661",
        ],
    );
}

#[test]
fn record_ciphertexts_are_pinned() {
    let p = basic_pipeline();
    let got: Vec<String> = RECORDS
        .iter()
        .map(|&(rid, rc)| {
            let ct = p.encrypt_record(rid, rc);
            assert_eq!(p.decrypt_record(rid, &ct).unwrap(), rc);
            format!("{rid} {}", hex(&ct))
        })
        .collect();
    assert_lines(
        "encrypt_record",
        &got,
        &[
            "1 0c91f11246caf92cda5e3a5b5733eabfadf5596405d9bd05de2a98d2449e5c90",
            "42 d3a0442156b3bb7a0f5255d24ca124ea3ce164ad92710c05c368d3239197a0b2ed7d2dcf450a1853592ba4903d0d3c96",
            "9000001 515bc28407a9bb4c1f16b82a91a3f2d4",
        ],
    );
}
