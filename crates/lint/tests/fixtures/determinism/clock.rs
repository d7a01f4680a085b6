//! Seeded clock reads in LH* protocol code. The rule test replays this
//! file as `crates/lh/src/fixture.rs`; never compiled.

pub fn wait_for_the_file(ep: &Endpoint, window: Duration) -> Option<Envelope> {
    let deadline = Instant::now() + window;
    std::thread::sleep(Duration::from_millis(2));
    ep.recv_until(deadline).ok()
}

pub fn request_loop(ep: &Endpoint) -> Option<Envelope> {
    // lint: allow(determinism) -- the one blocking request loop
    ep.recv_timeout(Duration::from_secs(1)).ok()
}

#[cfg(test)]
mod tests {
    fn recv(ep: &Endpoint) -> Option<Envelope> {
        ep.recv_timeout(Duration::from_secs(5)).ok()
    }
}
