//! The multicomputer fabric: addressable sites, reliable in-order message
//! passing over unbounded inboxes, and traffic accounting.
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
//! * **measurable** — [`NetStats`] counts the messages and bytes a
//!   network delivered and the ones fault injection dropped;
//! * **deterministic under test** — mailboxes are FIFO per sender/receiver
//!   pair and no time-dependent behaviour exists unless callers add it.
//!
//! A send enqueues and wakes the destination's owner if it sleeps; a
//! [`Scatter`] enqueues to many destinations and wakes each owner once at
//! the end, which on one processor is the difference between two context
//! switches per message and two per fan-out.
//!
//! Every [`Network`] is one **site table** — the mailboxes of the sites
//! its process hosts, by id in the one id space of [`SiteRegistry`]: a
//! bucket's id is its address, the coordinator is [`COORD_ID`], clients
//! and parity sites draw dynamic ids — plus, over TCP, optional links to
//! the sites other processes host. [`Network::new`] hosts every site in
//! the process (the one rank of a one-rank cluster);
//! [`Network::tcp_serve`] / [`Network::tcp_client`] spread them over OS
//! processes listed in a registry, messages travel as CRC-framed binary
//! ([`frame`], built on the [`codec`] primitives the message bodies
//! share), the links a process dials deliver every frame exactly once
//! and in order across reconnects, and a receiver that cannot route an
//! envelope says so with a NACK frame. A local sender and a TCP reader
//! deliver into a local mailbox the same way.
//!
//! A send either lands or fails `Disconnected`; nothing asks the sender
//! to try again later. Shard `id mod shards` ([`Network::sharded`]) takes
//! every bucket id its rank hosts. An id the process hosts that has no
//! mailbox is `Disconnected`, and so is a dropped endpoint's id, whose
//! mailbox stays behind as a tombstone until the id is registered again.
//! `docs/PROTOCOL.md` documents the wire format.
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
mod mailbox;
mod network;
mod pool;
mod registry;
mod stats;
pub mod sync;
mod tcp;

pub use mailbox::{Drained, Scheduler};
pub use network::{Endpoint, Envelope, NetConfig, NetError, Network, Scatter, SiteId};
pub use pool::PooledBuf;
pub use registry::{SiteRegistry, COORD_ID, DYN_BASE, HOST_BASE};
pub use stats::NetStats;
