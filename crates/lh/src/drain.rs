//! Batch draining and retryable sends for site event loops.
//!
//! Every site thread (bucket, coordinator, parity) wakes up, receives
//! *one* message blockingly, then greedily drains its inbox up to
//! [`DRAIN_BUDGET`] before dispatching the whole batch — paying the
//! condvar roundtrip, gauge sampling, and wakeup bookkeeping once per
//! batch instead of once per message.
//!
//! With bounded inboxes (`NetConfig::inbox_capacity`), any send can now
//! be rejected by admission control. Client-bound replies may be shed —
//! the client's retransmit machinery re-requests them — but
//! control-plane messages (overflow reports, transfer batches/acks,
//! split/merge completions, parity deltas) must eventually land or the
//! protocol stalls. [`SendQueue`] parks those and retries them at every
//! end-of-batch, and — via the `recv_timeout` idle tick — even when no
//! new traffic arrives to wake the loop.

use crate::messages::Wire;
use bytes::Bytes;
use sdds_net::{Endpoint, Envelope, NetError, SiteId};
use sdds_obs::trace::TraceContext;
use std::time::Duration;

/// Most messages a site event loop dispatches per wakeup.
pub(crate) const DRAIN_BUDGET: usize = 64;

/// Upper bound on how long a parked control-plane resend can wait when
/// no new traffic wakes the loop.
pub(crate) const IDLE_TICK: Duration = Duration::from_millis(2);

/// What one wakeup of the event loop produced.
pub(crate) enum Wakeup {
    /// At least one envelope was drained into the batch.
    Batch,
    /// The idle tick elapsed with no traffic: flush deferred work.
    Idle,
    /// The channel is gone; the loop should exit.
    Disconnected,
}

/// Blocks for one envelope (bounded by `idle` when given), then greedily
/// drains up to [`DRAIN_BUDGET`] envelopes total without blocking.
pub(crate) fn fill_batch(
    endpoint: &Endpoint,
    idle: Option<Duration>,
    batch: &mut Vec<Envelope>,
) -> Wakeup {
    batch.clear();
    let first = match idle {
        Some(tick) => match endpoint.recv_timeout(tick) {
            Ok(env) => env,
            Err(NetError::Timeout) => return Wakeup::Idle,
            Err(_) => return Wakeup::Disconnected,
        },
        None => match endpoint.recv() {
            Ok(env) => env,
            Err(_) => return Wakeup::Disconnected,
        },
    };
    batch.push(first);
    while batch.len() < DRAIN_BUDGET {
        match endpoint.try_recv() {
            Ok(env) => batch.push(env),
            Err(_) => break,
        }
    }
    Wakeup::Batch
}

/// Outgoing sends with an admission-control retry queue (see module
/// docs). The queue only ever holds messages a bounded inbox rejected,
/// so it is empty on the historical unbounded configuration.
pub(crate) struct SendQueue {
    parked: Vec<(SiteId, Bytes, Option<TraceContext>)>,
}

impl SendQueue {
    pub(crate) fn new() -> SendQueue {
        SendQueue { parked: Vec::new() }
    }

    /// Sends one outgoing message, parking a control-plane message the
    /// destination's admission control rejected. `payload` is `msg`
    /// already encoded (the caller encodes once; a parked retry reuses
    /// the same bytes).
    pub(crate) fn send(
        &mut self,
        endpoint: &Endpoint,
        to: SiteId,
        msg: &Wire,
        payload: Bytes,
        ctx: Option<TraceContext>,
    ) {
        match endpoint.send_traced(to, payload.clone(), ctx) {
            Err(NetError::Overloaded(_)) if must_land(msg) => {
                self.parked.push((to, payload, ctx));
            }
            // Shed client-bound replies (the client retransmits) and
            // sends to peers that already shut down are fine to lose.
            _ => {}
        }
    }

    /// Retries every parked send once, re-parking the still-rejected.
    pub(crate) fn flush(&mut self, endpoint: &Endpoint) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        for (to, payload, ctx) in parked {
            if let Err(NetError::Overloaded(_)) = endpoint.send_traced(to, payload.clone(), ctx) {
                self.parked.push((to, payload, ctx));
            }
        }
    }

    /// Whether any rejected control-plane send is awaiting a retry.
    pub(crate) fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }
}

/// Whether a message must eventually be delivered for the protocol to
/// make progress (vs. a client-bound reply the client re-requests).
fn must_land(msg: &Wire) -> bool {
    !matches!(
        msg,
        Wire::Response { .. }
            | Wire::ScanResp { .. }
            | Wire::SlotsState { .. }
            | Wire::DumpState { .. }
            | Wire::ParityState { .. }
            | Wire::ExtentResp { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_net::{NetConfig, Network};

    #[test]
    fn fill_batch_drains_up_to_budget() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let sent = DRAIN_BUDGET + 6;
        for i in 0..sent {
            a.send(a.id(), Bytes::copy_from_slice(&[i as u8])).unwrap();
        }
        let mut batch = Vec::new();
        assert!(matches!(fill_batch(&a, None, &mut batch), Wakeup::Batch));
        assert_eq!(batch.len(), DRAIN_BUDGET);
        assert!(matches!(fill_batch(&a, None, &mut batch), Wakeup::Batch));
        assert_eq!(batch.len(), 6, "second wakeup drains the remainder");
        let payloads: Vec<usize> = batch.iter().map(|e| e.payload[0] as usize).collect();
        let expected: Vec<usize> = (DRAIN_BUDGET..sent).collect();
        assert_eq!(payloads, expected, "FIFO order preserved");
    }

    #[test]
    fn fill_batch_idle_tick_fires_on_empty_inbox() {
        let net = Network::new(NetConfig::default());
        let a = net.register();
        let mut batch = Vec::new();
        assert!(matches!(
            fill_batch(&a, Some(Duration::from_millis(1)), &mut batch),
            Wakeup::Idle
        ));
        assert!(batch.is_empty());
    }

    #[test]
    fn send_queue_parks_control_plane_and_flushes() {
        let net = Network::new(NetConfig {
            inbox_capacity: Some(1),
            ..NetConfig::default()
        });
        let a = net.register();
        let b = net.register();
        let mut q = SendQueue::new();
        let ov = Wire::Overflow {
            addr: 1,
            level: 0,
            size: 9,
        };
        q.send(&a, b.id(), &ov, ov.encode(), None);
        assert!(!q.has_parked(), "first send fits the 1-deep inbox");
        q.send(&a, b.id(), &ov, ov.encode(), None);
        assert!(q.has_parked(), "second send is rejected and parked");
        // Still rejected while the inbox is full.
        q.flush(&a);
        assert!(q.has_parked());
        // Draining the inbox lets the retry land.
        b.recv().unwrap();
        q.flush(&a);
        assert!(!q.has_parked());
        assert!(b.try_recv().is_ok(), "parked overflow report delivered");
    }

    #[test]
    fn send_queue_sheds_client_replies() {
        let net = Network::new(NetConfig {
            inbox_capacity: Some(1),
            ..NetConfig::default()
        });
        let a = net.register();
        let b = net.register();
        let mut q = SendQueue::new();
        let resp = Wire::Response {
            req_id: 1,
            result: crate::messages::OpResult::Found { value: None },
            served_by: 0,
            bucket_level: 0,
            hops: 0,
        };
        q.send(&a, b.id(), &resp, resp.encode(), None);
        q.send(&a, b.id(), &resp, resp.encode(), None);
        assert!(
            !q.has_parked(),
            "shed replies are not parked — the client retransmits"
        );
    }
}
