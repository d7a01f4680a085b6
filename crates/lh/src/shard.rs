//! A shard: a site of a rank's runtime that keeps the rank's buckets
//! whose address is `s` mod `S` as data, in a map, `S` being the rank's
//! shard count ([`crate::runtime::shards_for`]). Its mailbox receives
//! every envelope for one of them; the envelope's `to` names the bucket,
//! and what the bucket sends leaves from that id. Only the shard's own
//! activation edits the map, so a bucket's birth and retirement are map
//! edits in mailbox order (docs/PROTOCOL.md § "Growth and shrinkage").

use crate::bucket::{span_name, BucketCtx, BucketState};
use crate::cluster::{Directory, ParityConfig};
use crate::filter::{ScanFilter, ScanMemo};
use crate::messages::Wire;
use crate::runtime::{Machine, Sends};
use sdds_net::{SiteId, SiteRegistry, COORD_ID};
use sdds_obs::trace::{self, SpanGuard, TraceContext};
use sdds_obs::Registry;
use sdds_storage::{HostLog, MemEngine, StorageEngine};
use std::collections::HashMap;
use std::sync::Arc;

/// What a rank's buckets are made of: their shared wiring, and the log
/// of their records if they are durable.
#[derive(Clone)]
pub(crate) struct BucketKit {
    pub directory: Arc<Directory>,
    pub filter: Arc<dyn ScanFilter>,
    pub parity: Option<ParityConfig>,
    pub capacity: usize,
    pub log: Option<Arc<HostLog>>,
}

impl BucketKit {
    /// Bucket `addr` at `level`, over `engine` if it reopens its own
    /// records. A bucket with no engine gets a new, empty one, and every
    /// such bucket but the primordial bucket 0 waits for its records.
    pub(crate) fn bucket(
        &self,
        addr: u64,
        level: u8,
        engine: Option<Box<dyn StorageEngine>>,
    ) -> (BucketState, BucketCtx) {
        // its own registry, which dies with it, under the global one
        let obs = Registry::with_parent(format!("bucket-{addr}"), Registry::global());
        let ctx = BucketCtx::new(
            self.directory.clone(),
            self.filter.clone(),
            self.parity,
            obs,
        );
        let awaiting = engine.is_none() && addr > 0;
        let engine = engine.unwrap_or_else(|| match &self.log {
            Some(log) => Box::new(log.engine(addr)),
            None => Box::new(MemEngine::new()),
        });
        let index = self.filter.index_element_bytes();
        let state = BucketState::new(addr, level, self.capacity, index, engine);
        (
            if awaiting {
                state.awaiting_records()
            } else {
                state
            },
            ctx,
        )
    }
}

/// A shard: its buckets, and what it makes new ones of.
pub(crate) struct Shard {
    buckets: HashMap<u64, (BucketState, BucketCtx)>,
    kit: BucketKit,
}

impl Shard {
    pub(crate) fn new(kit: BucketKit) -> Shard {
        let buckets = HashMap::new();
        Shard { buckets, kit }
    }

    /// Places a bucket the rank starts with, before the shard runs.
    pub(crate) fn insert(&mut self, addr: u64, bucket: (BucketState, BucketCtx)) {
        self.buckets.insert(addr, bucket);
    }

    /// Births bucket `addr` at `level`, waiting for its records, unless
    /// it is live.
    fn birth(&mut self, addr: u64, level: u8) {
        let kit = &self.kit;
        let born = || kit.bucket(addr, level, None);
        self.buckets.entry(addr).or_insert_with(born);
    }
}

impl Machine for Shard {
    fn span(&self, site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
        let mut span = trace::remote_span(span_name(msg), ctx);
        span.set_site(site.0 as i64);
        if let Wire::Request { hops, .. } = msg {
            span.set_detail(*hops as u64);
        }
        span
    }

    fn handle(&mut self, from: SiteId, to: SiteId, msg: Wire, memo: &mut ScanMemo) -> Sends {
        // every id a shard's mailbox receives is a bucket's
        let addr = u64::from(to.0);
        let merged = |shard: &Shard| {
            let bucket = shard.buckets.get(&addr);
            bucket.is_some_and(|(state, _)| state.merged_into.is_some())
        };
        match msg {
            // The coordinator retires merged buckets only: a transfer that
            // overtook its `Shutdown` has replaced the merged one already.
            Wire::Shutdown if from == SiteId(COORD_ID) && !merged(self) => {}
            Wire::Shutdown => drop(self.buckets.remove(&addr)),
            Wire::Spawn { level } => self.birth(addr, level),
            // A merged bucket takes no transfer, and its merge is acked:
            // this one is the split that births its address again.
            Wire::TransferBatch { level, .. } | Wire::Adopt { level, .. } => {
                if merged(self) {
                    self.buckets.remove(&addr);
                }
                self.birth(addr, level);
            }
            _ => {}
        }
        match self.buckets.get_mut(&addr) {
            _ if matches!(msg, Wire::Shutdown | Wire::Spawn { .. }) => Vec::new(),
            Some((state, ctx)) => state.handle(from, msg, ctx, memo),
            // merged away or not born yet: bucket 0 forwards correctly
            None if addr > 0 && matches!(msg, Wire::Request { .. }) => {
                vec![(SiteRegistry::bucket_id(0), msg)]
            }
            None => {
                sdds_obs::counter("lh.absent_bucket_drops").inc();
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::SubstringFilter;
    use crate::messages::{Op, OpResult};

    fn shard() -> Shard {
        let kit = BucketKit {
            directory: Arc::new(Directory::new()),
            filter: Arc::new(SubstringFilter),
            parity: None,
            capacity: 100,
            log: None,
        };
        let mut shard = Shard::new(kit.clone());
        shard.insert(0, kit.bucket(0, 1, None));
        shard
    }

    fn send(shard: &mut Shard, from: SiteId, addr: u64, msg: Wire) -> Sends {
        let to = SiteRegistry::bucket_id(addr);
        shard.handle(from, to, msg, &mut ScanMemo::default())
    }

    fn lookup(req_id: u64, key: u64, hops: u8) -> Wire {
        let op = Op::Lookup { key };
        let client = 9;
        Wire::Request {
            req_id,
            client,
            hops,
            op,
        }
    }

    /// Bucket 3, holding key 11, merged into bucket 1: its merge is acked.
    fn merged_bucket_3(shard: &mut Shard) {
        let (coordinator, parent) = (SiteId(COORD_ID), SiteRegistry::bucket_id(1));
        send(shard, coordinator, 3, Wire::Spawn { level: 2 });
        let records = vec![(11, b"eleven".to_vec())];
        send(shard, parent, 3, Wire::TransferBatch { level: 2, records });
        send(shard, coordinator, 3, Wire::MergeCmd { into_addr: 1 });
        let out = send(shard, parent, 3, Wire::TransferAck);
        assert!(out.contains(&(coordinator, Wire::MergeDone)), "{out:?}");
    }

    /// What bucket 3 answers to a lookup of `key`.
    fn found_at_3(shard: &mut Shard, key: u64) -> Option<Vec<u8>> {
        match &send(shard, SiteId(9), 3, lookup(key, key, 0))[..] {
            [(
                _,
                Wire::Response {
                    result: OpResult::Found { value },
                    ..
                },
            )] => value.clone(),
            other => panic!("{other:?}"),
        }
    }

    /// The split that births a merged-away bucket 3 again, from bucket 1.
    fn resplit_batch() -> Wire {
        let records = vec![(7, b"seven".to_vec())];
        Wire::TransferBatch { level: 2, records }
    }

    /// Bucket 3 is merged away (`Shutdown`), then split off again: the
    /// split's `TransferBatch` overtakes the coordinator's `Spawn`. It
    /// births the bucket with the records and is acked, and the late
    /// `Spawn` changes nothing.
    #[test]
    fn a_transfer_that_overtakes_the_spawn_births_the_bucket_and_is_acked() {
        let mut shard = shard();
        let (coordinator, victim) = (SiteId(COORD_ID), SiteRegistry::bucket_id(1));
        merged_bucket_3(&mut shard);
        send(&mut shard, coordinator, 3, Wire::Shutdown);
        assert!(!shard.buckets.contains_key(&3), "retired");
        let out = send(&mut shard, victim, 3, resplit_batch());
        assert!(out.contains(&(victim, Wire::TransferAck)), "{out:?}");
        send(&mut shard, coordinator, 3, Wire::Spawn { level: 2 });
        assert_eq!(found_at_3(&mut shard, 7), Some(b"seven".to_vec()));
        assert_eq!(found_at_3(&mut shard, 11), None);
    }

    /// The same split's `TransferBatch` overtakes the `Shutdown` too, on
    /// another link: the batch replaces the merged bucket, and the late
    /// `Shutdown` and `Spawn` change nothing.
    #[test]
    fn a_transfer_that_overtakes_the_shutdown_replaces_the_merged_bucket() {
        let mut shard = shard();
        let (coordinator, victim) = (SiteId(COORD_ID), SiteRegistry::bucket_id(1));
        merged_bucket_3(&mut shard);
        let out = send(&mut shard, victim, 3, resplit_batch());
        assert!(out.contains(&(victim, Wire::TransferAck)), "{out:?}");
        send(&mut shard, coordinator, 3, Wire::Shutdown);
        send(&mut shard, coordinator, 3, Wire::Spawn { level: 2 });
        assert_eq!(found_at_3(&mut shard, 7), Some(b"seven".to_vec()));
        assert_eq!(found_at_3(&mut shard, 11), None);
    }

    /// A key request for an address the shard does not hold goes on to
    /// bucket 0 as it came; any other message is dropped and counted.
    #[test]
    fn a_request_for_an_absent_bucket_goes_to_bucket_0_with_its_hops() {
        let mut shard = shard();
        let out = send(&mut shard, SiteId(9), 5, lookup(1, 5, 1));
        assert_eq!(out, vec![(SiteRegistry::bucket_id(0), lookup(1, 5, 1))]);
        let drops = sdds_obs::counter("lh.absent_bucket_drops");
        let before = drops.get();
        let scan = Wire::ScanReq {
            req_id: 2,
            query: b"X".to_vec(),
            keys_only: true,
        };
        assert!(send(&mut shard, SiteId(9), 5, scan).is_empty());
        assert!(drops.get() > before, "counted");
        assert!(!shard.buckets.contains_key(&5), "nothing born");
    }

    /// A `Spawn` for a live address changes nothing: the bucket keeps its
    /// records and level, and serves at once.
    #[test]
    fn a_spawn_for_a_live_bucket_changes_nothing() {
        let mut shard = shard();
        let insert = Wire::Request {
            req_id: 1,
            client: 9,
            hops: 0,
            op: Op::Insert {
                key: 4,
                value: b"four".to_vec(),
            },
        };
        send(&mut shard, SiteId(9), 0, insert);
        let out = send(&mut shard, SiteId(COORD_ID), 0, Wire::Spawn { level: 5 });
        assert!(out.is_empty());
        let out = send(&mut shard, SiteId(9), 0, lookup(2, 4, 0));
        assert!(matches!(
            &out[..],
            [(_, Wire::Response { bucket_level: 1, result: OpResult::Found { value: Some(v) }, .. })]
                if v == b"four"
        ));
    }
}
