//! The LH\* split coordinator.
//!
//! The coordinator is the only holder of the true file state `(i, n)`.
//! Buckets report overflows; the coordinator answers by splitting the
//! bucket at the split pointer `n` — linear hashing's defining discipline:
//! the split victim is `n`, not the overflowing bucket. One split runs at a
//! time; further overflow reports queue.

use crate::cluster::Directory;
use crate::filter::ScanMemo;
use crate::hash::extent;
use crate::messages::{drop_wrong_sender, Wire};
use crate::runtime::{Machine, Sends};
use sdds_net::{SiteId, SiteRegistry};
use sdds_obs::trace::{self, SpanGuard, TraceContext};
use sdds_obs::Registry;
use std::sync::Arc;

/// Readies the coordinator's host for bucket `addr`, whose `Spawn` the
/// coordinator is about to send: creates the parity sites of its group,
/// if parity is on and they do not exist yet.
pub(crate) type ParitySpawner = Box<dyn FnMut(u64) + Send>;

/// A structural change of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    Split,
    Merge,
}

#[derive(Default)]
pub(crate) struct CoordinatorState {
    level: u8,
    split: u64,
    /// The split or merge in flight (they serialise on it) and its
    /// victim's address: only that bucket reports it done, and a merge
    /// victim is retired then.
    running: Option<(Change, u64)>,
    pending: usize,
    pending_merges: usize,
    /// Extent reads not answered yet, `(sender, req_id, idle)`: one per
    /// sender, the latest, so re-sent reads do not pile up.
    extent_reads: Vec<(SiteId, u64, bool)>,
}

impl CoordinatorState {
    /// Whether `from` is the victim of the running `change`.
    fn finished_by(&self, change: Change, from: SiteId) -> bool {
        matches!(self.running, Some((c, victim))
            if c == change && from == SiteRegistry::bucket_id(victim))
    }

    /// Handles one message from `from`; may call the spawner before a
    /// split births a bucket. Load reports come from buckets, and a split
    /// or merge is reported done by its victim; anything else is dropped
    /// and counted.
    pub(crate) fn handle(
        &mut self,
        from: SiteId,
        msg: Wire,
        spawner: &mut ParitySpawner,
        directory: &Directory,
    ) -> Sends {
        let from_bucket = SiteRegistry::bucket_addr(from).is_some();
        let mut out = match msg {
            Wire::Overflow if from_bucket => {
                self.pending += 1;
                self.try_start_work(spawner, directory)
            }
            Wire::Underflow if from_bucket => {
                self.pending_merges += 1;
                self.try_start_work(spawner, directory)
            }
            Wire::SplitDone if self.finished_by(Change::Split, from) => {
                // the victim routes to the new bucket already; a rank that
                // does not host it learns it here
                directory.spawned(extent(self.level, self.split));
                self.split += 1;
                if self.split == 1u64 << self.level {
                    self.level += 1;
                    self.split = 0;
                }
                self.running = None;
                self.try_start_work(spawner, directory)
            }
            Wire::MergeDone if self.finished_by(Change::Merge, from) => {
                if self.split > 0 {
                    self.split -= 1;
                } else {
                    self.level -= 1;
                    self.split = (1u64 << self.level) - 1;
                }
                if let Some((_, victim)) = self.running.take() {
                    // Only now stop routing to the dissolved bucket: until
                    // its records are durably at the parent, a request
                    // sent around it could reach the parent first and
                    // read `None`. The victim itself forwards whatever
                    // still reaches it (see `BucketState::merge_into`).
                    directory.retire(victim);
                }
                // Retire the bucket. A split queued behind the merge may
                // birth the address again at once: the `Spawn` leaves after
                // this `Shutdown`, from the same sender, so it arrives
                // after it.
                let mut out = vec![(from, Wire::Shutdown)];
                out.extend(self.try_start_work(spawner, directory));
                out
            }
            Wire::Overflow | Wire::Underflow | Wire::SplitDone | Wire::MergeDone => {
                drop_wrong_sender(Registry::global())
            }
            Wire::ExtentReq { req_id, idle } => {
                self.extent_reads.retain(|&(site, ..)| site != from);
                self.extent_reads.push((from, req_id, idle));
                self.answer_extent_reads()
            }
            Wire::AdoptFileState { level, split } => {
                debug_assert!(
                    self.running.is_none(),
                    "a reopened file's state must precede traffic"
                );
                self.level = level;
                self.split = split;
                Vec::new()
            }
            _ => Vec::new(),
        };
        out.extend(self.answer_extent_reads());
        out
    }

    /// Answers the extent reads that are due after each message: a plain
    /// one at once, an idle one once nothing is running or queued.
    fn answer_extent_reads(&mut self) -> Sends {
        let idle = self.running.is_none() && self.pending == 0 && self.pending_merges == 0;
        let (level, split) = (self.level, self.split);
        let extent = |req_id| Wire::ExtentResp {
            req_id,
            level,
            split,
        };
        let due = self.extent_reads.extract_if(.., |read| idle || !read.2);
        due.map(|(to, req_id, _)| (to, extent(req_id))).collect()
    }

    /// Starts the next queued split or merge, splits first. (No pairwise
    /// cancellation: a bucket's overflow report is latched until it splits
    /// or receives a transfer, so dropping a queued split could leave an
    /// over-capacity bucket that never re-reports.)
    fn try_start_work(&mut self, spawner: &mut ParitySpawner, directory: &Directory) -> Sends {
        if self.running.is_some() {
            return Vec::new();
        }
        if self.pending > 0 {
            self.pending -= 1;
            let victim = self.split;
            self.running = Some((Change::Split, victim));
            let new_addr = extent(self.level, self.split); // n + 2^i
            spawner(new_addr);
            // lint: allow(panic-freedom) -- 0 <= split < extent always addresses a live bucket, and a bucket's site id is its address: only a merged-away or killed one has no directory entry
            let victim_site = directory.bucket_site(victim).expect("split victim exists");
            // The new bucket is born before the victim splits into it.
            let spawn = Wire::Spawn {
                level: self.level + 1,
            };
            let split = Wire::SplitCmd { new_addr };
            return vec![
                (SiteRegistry::bucket_id(new_addr), spawn),
                (victim_site, split),
            ];
        }
        if self.pending_merges > 0 {
            self.pending_merges -= 1;
            let file_extent = extent(self.level, self.split);
            if file_extent <= 1 {
                return Vec::new(); // nothing to merge away
            }
            // the reverse of the most recent split
            let victim = file_extent - 1;
            let parent = if self.split > 0 {
                self.split - 1
            } else {
                (1u64 << (self.level - 1)) - 1
            };
            let (Some(victim_site), Some(_)) =
                (directory.bucket_site(victim), directory.bucket_site(parent))
            else {
                return Vec::new(); // victim already retired (stale report)
            };
            self.running = Some((Change::Merge, victim));
            return vec![(victim_site, Wire::MergeCmd { into_addr: parent })];
        }
        Vec::new()
    }
}

/// The coordinator as the runtime sees it: the file state plus the
/// directory it retires merged-away buckets from and the spawner of the
/// parity sites of the buckets its splits birth.
pub(crate) struct CoordinatorSite {
    pub state: CoordinatorState,
    pub spawner: ParitySpawner,
    pub directory: Arc<Directory>,
}

impl Machine for CoordinatorSite {
    /// Coordinator-ordered splits/merges chain into the trace of the
    /// operation whose overflow or underflow report triggered them.
    fn span(&self, _site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
        trace::remote_span(coord_span_name(msg), ctx)
    }

    fn handle(&mut self, from: SiteId, _: SiteId, msg: Wire, _: &mut ScanMemo) -> Sends {
        self.state
            .handle(from, msg, &mut self.spawner, &self.directory)
    }
}

/// Static span name for a message the coordinator handles.
fn coord_span_name(msg: &Wire) -> &'static str {
    match msg {
        Wire::Overflow => "coord.overflow",
        Wire::Underflow => "coord.underflow",
        Wire::SplitDone => "coord.split_done",
        Wire::MergeDone => "coord.merge_done",
        Wire::ExtentReq { .. } => "coord.extent",
        Wire::AdoptFileState { .. } => "coord.adopt_file_state",
        _ => "coord.msg",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_net::DYN_BASE;

    /// A coordinator, a spawner that makes no parity site and the
    /// directory.
    fn harness() -> (CoordinatorState, ParitySpawner, Directory) {
        let spawner: ParitySpawner = Box::new(|_addr| {});
        (CoordinatorState::default(), spawner, Directory::new())
    }

    impl CoordinatorState {
        fn file_state(&self) -> (u8, u64) {
            (self.level, self.split)
        }
    }

    /// Bucket `addr`'s site.
    fn bucket(addr: u64) -> SiteId {
        SiteRegistry::bucket_id(addr)
    }

    /// The split births its new bucket first, then orders the victim at
    /// the split pointer to split into it.
    #[test]
    fn overflow_triggers_split_of_split_pointer() {
        let (mut st, mut spawner, dir) = harness();
        let out = st.handle(bucket(2), Wire::Overflow, &mut spawner, &dir);
        let spawn = Wire::Spawn { level: 1 };
        let split = Wire::SplitCmd { new_addr: 1 };
        assert_eq!(out, vec![(bucket(1), spawn), (bucket(0), split)]);
    }

    #[test]
    fn split_done_advances_pointer_and_level() {
        let (mut st, mut spawner, dir) = harness();
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        // level 0: extent 1; after split of bucket 0, level = 1, split = 0
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
        // next split victim is bucket 0 again, creating bucket 2
        let out = st.handle(bucket(1), Wire::Overflow, &mut spawner, &dir);
        assert_eq!(out[1], (bucket(0), Wire::SplitCmd { new_addr: 2 }));
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 1));
    }

    /// Only the victim of the running split reports it done: a
    /// `SplitDone` from another bucket is dropped and counted, and the
    /// file state stays as it is.
    #[test]
    fn split_done_from_a_bucket_that_is_not_the_victim_is_dropped() {
        let (mut st, mut spawner, dir) = harness();
        let drops = sdds_obs::counter("lh.wrong_sender_drops");
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        let before = drops.get();
        for from in [bucket(1), SiteId(DYN_BASE)] {
            let out = st.handle(from, Wire::SplitDone, &mut spawner, &dir);
            assert!(out.is_empty());
        }
        assert!(drops.get() >= before + 2, "both drops counted");
        assert_eq!(st.file_state(), (0, 0));
        assert_eq!(st.running, Some((Change::Split, 0)), "still splitting");
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
    }

    #[test]
    fn a_load_report_from_a_non_bucket_is_dropped() {
        let (mut st, mut spawner, dir) = harness();
        let out = st.handle(SiteId(DYN_BASE), Wire::Overflow, &mut spawner, &dir);
        assert!(out.is_empty());
        assert_eq!(st.pending, 0);
    }

    #[test]
    fn one_split_at_a_time_and_queueing() {
        let (mut st, mut spawner, dir) = harness();
        let first = st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        assert_eq!(first.len(), 2, "spawn and split");
        // overflow during the running split queues
        let second = st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        assert!(second.is_empty(), "split must not start while one runs");
        // completion starts the queued split immediately
        let third = st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        let spawn = Wire::Spawn { level: 2 };
        let split = Wire::SplitCmd { new_addr: 2 };
        assert_eq!(third, vec![(bucket(2), spawn), (bucket(0), split)]);
    }

    #[test]
    fn underflow_triggers_merge_of_last_bucket() {
        let (mut st, mut spawner, dir) = harness();
        // grow the file to 3 buckets: (0,0) -> (1,0) -> (1,1)
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 1));
        // underflow: merge bucket 2 back into its parent 0
        let out = st.handle(bucket(1), Wire::Underflow, &mut spawner, &dir);
        assert_eq!(out, vec![(bucket(2), Wire::MergeCmd { into_addr: 0 })]);
        // completion regresses the file state and shuts the site down
        let out = st.handle(bucket(2), Wire::MergeDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
        assert!(out
            .iter()
            .any(|(to, m)| *to == SiteId(2) && matches!(m, Wire::Shutdown)));
    }

    /// The victim stays routable while its records are in flight: retired
    /// at `MergeCmd` time, a lookup sent around it reached the parent
    /// before the `TransferBatch` did and read `None`.
    #[test]
    fn merge_victim_stays_in_the_directory_until_merge_done() {
        let (mut st, mut spawner, dir) = harness();
        let grow_then_shrink = [Wire::Overflow, Wire::SplitDone, Wire::Underflow];
        for msg in grow_then_shrink {
            st.handle(bucket(0), msg, &mut spawner, &dir);
        }
        assert!(
            dir.bucket_site(1).is_some(),
            "MergeCmd is out, the victim's records are not at the parent yet"
        );
        st.handle(bucket(0), Wire::MergeDone, &mut spawner, &dir);
        assert!(dir.bucket_site(1).is_some(), "bucket 0 is not the victim");
        st.handle(bucket(1), Wire::MergeDone, &mut spawner, &dir);
        assert!(dir.bucket_site(1).is_none());
    }

    #[test]
    fn merge_across_level_boundary() {
        let (mut st, mut spawner, dir) = harness();
        // grow to exactly (1, 0): two buckets
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
        let out = st.handle(bucket(0), Wire::Underflow, &mut spawner, &dir);
        // merge bucket 1 into bucket 0, regressing to level 0
        assert_eq!(out[0].1, Wire::MergeCmd { into_addr: 0 });
        st.handle(bucket(1), Wire::MergeDone, &mut spawner, &dir);
        assert_eq!(st.file_state(), (0, 0));
    }

    /// A split queued behind a merge births the merged-away address again
    /// in the step that retired it: the `Shutdown`, the `Spawn` and the
    /// split command leave in that order, from the coordinator, so the
    /// address's shard retires the old bucket before it births the new
    /// one. The address is routed to again once the split is done.
    #[test]
    fn a_re_split_spawns_the_address_after_its_shutdown() {
        let (mut st, mut spawner, dir) = harness();
        let grow_shrink_grow = [
            Wire::Overflow,
            Wire::SplitDone,
            Wire::Underflow,
            Wire::Overflow,
        ];
        for msg in grow_shrink_grow {
            st.handle(bucket(0), msg, &mut spawner, &dir);
        }
        let out = st.handle(bucket(1), Wire::MergeDone, &mut spawner, &dir);
        let spawn = Wire::Spawn { level: 1 };
        let split = Wire::SplitCmd { new_addr: 1 };
        let expected = vec![
            (bucket(1), Wire::Shutdown),
            (bucket(1), spawn),
            (bucket(0), split),
        ];
        assert_eq!(out, expected);
        assert!(dir.bucket_site(1).is_none(), "retired until the split");
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert!(dir.bucket_site(1).is_some());
    }

    #[test]
    fn single_bucket_file_never_merges() {
        let (mut st, mut spawner, dir) = harness();
        let out = st.handle(bucket(0), Wire::Underflow, &mut spawner, &dir);
        assert!(out.is_empty());
        assert_eq!(st.file_state(), (0, 0));
    }

    #[test]
    fn opposing_pressure_runs_sequentially() {
        // Queued splits and merges both execute (no pairwise cancellation:
        // an overflow report is latched at the bucket, so dropping its
        // split could starve an over-capacity bucket forever).
        let (mut st, mut spawner, dir) = harness();
        // grow to 2 buckets first so a merge would be possible
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        // start a split, then queue an underflow during it
        st.handle(bucket(1), Wire::Overflow, &mut spawner, &dir);
        let during = st.handle(bucket(0), Wire::Underflow, &mut spawner, &dir);
        assert!(during.is_empty(), "busy: nothing starts");
        // queue one more overflow: it must run BEFORE the merge
        st.handle(bucket(1), Wire::Overflow, &mut spawner, &dir);
        let after = st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert!(
            after
                .iter()
                .any(|(_, m)| matches!(m, Wire::SplitCmd { .. })),
            "queued split starts next: {after:?}"
        );
        // and once that split (of bucket 1) finishes, the queued merge runs
        let finally = st.handle(bucket(1), Wire::SplitDone, &mut spawner, &dir);
        assert!(
            finally
                .iter()
                .any(|(_, m)| matches!(m, Wire::MergeCmd { .. })),
            "queued merge runs after: {finally:?}"
        );
    }

    #[test]
    fn extent_request_reports_file_state() {
        let (mut st, mut spawner, dir) = harness();
        let idle = false;
        let out = st.handle(
            SiteId(DYN_BASE + 9),
            Wire::ExtentReq { req_id: 5, idle },
            &mut spawner,
            &dir,
        );
        let extent = Wire::ExtentResp {
            req_id: 5,
            level: 0,
            split: 0,
        };
        assert_eq!(out, vec![(SiteId(DYN_BASE + 9), extent)]);
    }

    /// An idle read sent during a split waits for `SplitDone`, a plain
    /// one is answered at once, and a sender's re-sent idle reads wait
    /// as one.
    #[test]
    fn an_idle_extent_read_waits_for_the_split_to_finish() {
        let (mut st, mut spawner, dir) = harness();
        let (client, other) = (SiteId(DYN_BASE + 9), SiteId(DYN_BASE + 10));
        st.handle(bucket(0), Wire::Overflow, &mut spawner, &dir);
        for req_id in [7, 8, 8] {
            let read = Wire::ExtentReq { req_id, idle: true };
            assert!(st.handle(client, read, &mut spawner, &dir).is_empty());
        }
        assert_eq!(st.extent_reads, [(client, 8, true)], "held once per sender");
        let plain = Wire::ExtentReq {
            req_id: 9,
            idle: false,
        };
        let out = st.handle(other, plain, &mut spawner, &dir);
        let extent = |req_id, level| Wire::ExtentResp {
            req_id,
            level,
            split: 0,
        };
        assert_eq!(out, vec![(other, extent(9, 0))], "answered mid-split");
        let out = st.handle(bucket(0), Wire::SplitDone, &mut spawner, &dir);
        assert_eq!(out, vec![(client, extent(8, 1))]);
        assert!(st.extent_reads.is_empty());
    }
}
