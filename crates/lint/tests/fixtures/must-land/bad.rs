//! Fixture: a control-plane `Overflow` pushed straight onto the endpoint
//! from inside an event-loop file — a victim whose spawn is on its way
//! refuses it and nothing retries. Replayed as `crates/lh/src/coordinator.rs`.

pub fn rebalance(endpoint: &Endpoint, coord: SiteId, bucket: u64) {
    endpoint.send(coord, Wire::Overflow { bucket });
}
