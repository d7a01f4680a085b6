//! Concurrency properties of the simulated multicomputer: per-pair FIFO
//! under real thread interleavings, accounting consistency, and fan-in
//! delivery.

use bytes::Bytes;
use sdds_net::{NetConfig, NetError, Network};
use std::collections::HashMap;

#[test]
fn per_pair_fifo_survives_many_senders() {
    let net = Network::new(NetConfig::default());
    let sink = net.register();
    let nsenders = 8;
    let per_sender = 500u32;
    std::thread::scope(|scope| {
        for _ in 0..nsenders {
            let ep = net.register();
            let to = sink.id();
            scope.spawn(move || {
                for i in 0..per_sender {
                    let mut payload = Vec::with_capacity(8);
                    payload.extend_from_slice(&ep.id().0.to_le_bytes());
                    payload.extend_from_slice(&i.to_le_bytes());
                    ep.send(to, Bytes::from(payload)).unwrap();
                }
            });
        }
        scope.spawn(|| {
            // receiver: every sender's sequence numbers must arrive in order
            let mut next: HashMap<u32, u32> = HashMap::new();
            for _ in 0..nsenders * per_sender {
                let env = sink.recv().unwrap();
                let from = u32::from_le_bytes(env.payload[0..4].try_into().unwrap());
                let seq = u32::from_le_bytes(env.payload[4..8].try_into().unwrap());
                let expect = next.entry(from).or_insert(0);
                assert_eq!(seq, *expect, "out-of-order from site {from}");
                *expect += 1;
            }
        });
    });
    assert_eq!(
        net.stats().messages(),
        u64::from(nsenders) * u64::from(per_sender)
    );
}

#[test]
fn accounting_is_exact_under_concurrency() {
    let net = Network::new(NetConfig::default());
    let a = net.register();
    let b = net.register();
    let (a_id, b_id) = (a.id(), b.id());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..1000 {
                a.send(b_id, Bytes::from_static(&[0u8; 10])).unwrap();
            }
        });
        scope.spawn(|| {
            for _ in 0..1000 {
                b.send(a_id, Bytes::from_static(&[0u8; 20])).unwrap();
            }
        });
    });
    let stats = net.stats();
    assert_eq!(stats.messages(), 2000);
    assert_eq!(stats.bytes(), 1000 * 10 + 1000 * 20);
    // and what was counted is what each side can receive
    let received = |e: &sdds_net::Endpoint| -> usize {
        std::iter::from_fn(|| e.try_recv().ok())
            .map(|env| env.payload.len())
            .sum()
    };
    assert_eq!(received(&a), 20_000);
    assert_eq!(received(&b), 10_000);
}

#[test]
fn dropped_endpoint_mid_traffic_is_an_error_not_a_hang() {
    let net = Network::new(NetConfig::default());
    let a = net.register();
    let b = net.register();
    let b_id = b.id();
    a.send(b_id, Bytes::from_static(b"one")).unwrap();
    drop(b);
    // subsequent sends fail fast
    assert_eq!(
        a.send(b_id, Bytes::from_static(b"two")),
        Err(NetError::Disconnected(b_id))
    );
}
