//! Fixture: the dispatch loop as it must be — every output of a handler
//! goes through the site's `SendQueue` (`outbox`); only tests send
//! directly. Replayed as `crates/lh/src/runtime.rs`.

fn activate(site: &Site, scatter: &mut Scatter, outbox: &mut SendQueue, env: Envelope) {
    for (to, out) in site.machine.handle(env.from, env.msg) {
        let payload = out.encode();
        outbox.send(scatter, &site.endpoint, to, &out, payload, env.ctx);
    }
    outbox.flush(scatter, &site.endpoint);
}

#[cfg(test)]
mod tests {
    fn poke(sender: &Endpoint, site: SiteId) {
        sender.send(site, Wire::TransferAck { addr: 1 }.encode());
    }
}
