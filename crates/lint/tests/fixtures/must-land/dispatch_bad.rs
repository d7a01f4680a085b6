//! Fixture: the dispatch loop puts a handler's output straight onto the
//! fabric. The output names no `Wire` variant here, but it may be a
//! `SplitDone` all the same: refused while a spawn is on its way, it is gone.
//! Replayed as `crates/lh/src/runtime.rs`.

fn activate(site: &Site, scatter: &mut Scatter, outbox: &mut SendQueue, env: Envelope) {
    for (to, out) in site.machine.handle(env.from, env.msg) {
        let payload = out.encode();
        site.endpoint.send_with(scatter, to, payload, env.ctx);
    }
    outbox.flush(scatter, &site.endpoint);
}
