//! Fixture: every variant of the miniature `Wire` has both a send site
//! and a handler arm. Replayed as `crates/lh/src/bucket.rs` alongside
//! the fixture codec.

fn emit() -> Vec<Wire> {
    vec![
        Wire::Ping { seq: 1 },
        Wire::Pong { seq: 2 },
        Wire::Orphan { seq: 3 },
    ]
}

/// A borrowed encoder of the codec is a send of its variant.
fn emit_borrowed(seq: &u64) -> Bytes {
    Wire::encode_ghost(seq)
}

fn handle(msg: &Wire) -> u64 {
    match msg {
        Wire::Ping { seq } => *seq,
        Wire::Pong { seq } => *seq,
        Wire::Orphan { seq } => *seq,
        Wire::Ghost { seq } => *seq,
    }
}
