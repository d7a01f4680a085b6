//! Retryable sends for the site runtime, and its pacing constants.
//!
//! A worker of the runtime (`runtime.rs`) activates a site for up to
//! [`DRAIN_BUDGET`] envelopes at a time — paying the ready-queue
//! roundtrip, gauge sampling and clock reading once per activation
//! instead of once per message.
//!
//! A send is refused `Overloaded` when its destination is a bucket whose
//! spawn is still on its way (its id is this process's, not registered
//! yet), or when the TCP link to it is full. Client-bound replies (the
//! messages with a `Wire::reply_id`) may be lost then — the client's
//! exchange asks again — but every other message (forwarded requests,
//! overflow reports, transfer batches/acks, split/merge commands and
//! completions, parity deltas) must eventually land or the protocol
//! stalls. [`SendQueue`] parks those and retries them at the end of every
//! activation of their site, and — the runtime activates a site with
//! parked sends every [`IDLE_TICK`] — even when no new traffic arrives
//! for it.

use crate::messages::Wire;
use bytes::Bytes;
use sdds_net::{Endpoint, NetError, Scatter, SiteId};
use sdds_obs::trace::TraceContext;
use std::time::Duration;

/// Most envelopes one activation of a site dispatches before the site
/// goes to the back of the ready queue.
pub(crate) const DRAIN_BUDGET: usize = 64;

/// Upper bound on how long a parked control-plane resend can wait when
/// no new traffic activates its site.
pub(crate) const IDLE_TICK: Duration = Duration::from_millis(2);

/// Outgoing sends with a retry queue for the must-land ones refused
/// `Overloaded` (see module docs).
pub(crate) struct SendQueue {
    parked: Vec<(SiteId, Bytes, Option<TraceContext>)>,
}

impl SendQueue {
    pub(crate) fn new() -> SendQueue {
        SendQueue { parked: Vec::new() }
    }

    /// Sends one outgoing message as part of `scatter`, parking a
    /// control-plane message refused `Overloaded`. `payload` is `msg`
    /// already encoded (the caller encodes once; a parked retry reuses
    /// the same bytes).
    pub(crate) fn send(
        &mut self,
        scatter: &mut Scatter,
        endpoint: &Endpoint,
        to: SiteId,
        msg: &Wire,
        payload: Bytes,
        ctx: Option<TraceContext>,
    ) {
        let retry = msg.reply_id().is_none().then(|| payload.clone());
        let sent = endpoint.send_with(scatter, to, payload, ctx);
        // Refused client-bound replies (the client asks again) and sends
        // to peers that already shut down are fine to lose.
        if let (Err(NetError::Overloaded(_)), Some(payload)) = (sent, retry) {
            self.parked.push((to, payload, ctx));
        }
    }

    /// Retries every parked send once, re-parking the still-rejected.
    pub(crate) fn flush(&mut self, scatter: &mut Scatter, endpoint: &Endpoint) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for (to, payload, ctx) in parked {
            let sent = endpoint.send_with(scatter, to, payload.clone(), ctx);
            if let Err(NetError::Overloaded(_)) = sent {
                self.parked.push((to, payload, ctx));
            }
        }
    }

    /// Whether any refused control-plane send is awaiting a retry.
    pub(crate) fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_net::{NetConfig, Network};

    /// A bucket id the network hosts but has not registered: its spawn
    /// is on its way, and sends to it are refused `Overloaded`.
    const SPAWNING: SiteId = SiteId(3);

    #[test]
    fn send_queue_parks_control_plane_and_flushes() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let mut q = SendQueue::new();
        let mut scatter = Scatter::new();
        let ov = Wire::Overflow;
        q.send(&mut scatter, &a, SPAWNING, &ov, ov.encode(), None);
        assert!(q.has_parked(), "refused and parked");
        // Still refused while the spawn is on its way.
        q.flush(&mut scatter, &a);
        assert!(q.has_parked());
        // Registered: the retry lands.
        let b = net.register_with_id(SPAWNING).unwrap();
        q.flush(&mut scatter, &a);
        assert!(!q.has_parked());
        assert!(b.try_recv().is_ok(), "parked overflow report delivered");
    }

    #[test]
    fn send_queue_does_not_park_client_replies() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let mut q = SendQueue::new();
        let mut scatter = Scatter::new();
        let resp = Wire::Response {
            req_id: 1,
            result: crate::messages::OpResult::Found { value: None },
            bucket_level: 0,
            hops: 0,
        };
        q.send(&mut scatter, &a, SPAWNING, &resp, resp.encode(), None);
        assert_eq!(net.stats().rejected(), 1, "the reply was refused");
        assert!(
            !q.has_parked(),
            "refused replies are not parked — the client retransmits"
        );
    }
}
