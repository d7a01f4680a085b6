//! A simulated multicomputer: addressable sites, reliable in-order message
//! passing, traffic accounting and a latency model.
//!
//! The paper's setting is "multicomputers, systems utilizing many
//! interconnected computers (called the nodes or sites)" (§1) whose data
//! structures — LH\* files and the encrypted index — live across sites.
//! This crate gives those sites an execution substrate that is:
//!
//! * **real enough** — every site owns a mailbox and communicates only
//!   through messages, so the LH\* forwarding logic, the parallel
//!   scatter/gather of searches, and the dispersion-site AND-combination
//!   are exercised as genuinely concurrent distributed protocols. Who
//!   drains a mailbox is the owner's business: a thread blocking in
//!   [`Endpoint::recv`] (clients), or a [`Scheduler`] that runs many
//!   sites on a few workers (`sdds-lh`'s site runtime);
//! * **measurable** — [`NetStats`] counts messages and bytes per site and
//!   in total, and a configurable [`LatencyModel`] converts traffic into
//!   simulated network time without wall-clock sleeps;
//! * **deterministic under test** — mailboxes are FIFO per sender/receiver
//!   pair and no time-dependent behaviour exists unless callers add it.
//!
//! A send enqueues and wakes the destination's owner if it sleeps; a
//! [`Scatter`] enqueues to many destinations and wakes each owner once at
//! the end, which on one processor is the difference between two context
//! switches per message and two per fan-out.
//!
//! Two transports sit behind the same [`Network`]/[`Endpoint`] surface:
//! the in-process channel fabric above, and a real TCP transport
//! ([`Network::tcp_serve`] / [`Network::tcp_client`]) where sites are
//! spread over OS processes listed in a [`SiteRegistry`], messages travel
//! as CRC-framed binary ([`frame`], built on the [`codec`] primitives the
//! message bodies share), and admission control crosses the wire as NACK
//! frames. `docs/PROTOCOL.md` documents the wire format.
//!
//! ```
//! use sdds_net::{Network, NetConfig};
//! use bytes::Bytes;
//!
//! let net = Network::new(NetConfig::default());
//! let a = net.register();
//! let b = net.register();
//! a.send(b.id(), Bytes::from_static(b"hello")).unwrap();
//! let env = b.recv().unwrap();
//! assert_eq!(env.from, a.id());
//! assert_eq!(&env.payload[..], b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
mod latency;
mod mailbox;
mod network;
mod pool;
mod registry;
mod stats;
mod tcp;

pub use latency::LatencyModel;
pub use mailbox::{Drained, Scheduler};
pub use network::{Endpoint, Envelope, NetConfig, NetError, Network, Scatter, SiteId};
pub use pool::PooledBuf;
pub use registry::{SiteRegistry, COORD_ID, DYN_BASE, HOST_BASE};
pub use stats::NetStats;
