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
use crate::messages::Wire;
use crate::runtime::Machine;
use sdds_net::SiteId;
use sdds_obs::trace::{self, SpanGuard, TraceContext};
use std::sync::Arc;

/// Callback that materialises a new bucket site (here, or on the rank
/// that owns its address) and returns its site id, which is its address.
pub(crate) type BucketSpawner = Box<dyn FnMut(u64, u8) -> SiteId + Send>;

pub(crate) struct CoordinatorState {
    level: u8,
    split: u64,
    /// A split or merge is in flight (they serialise on this flag).
    busy: bool,
    pending: usize,
    pending_merges: usize,
    /// Victim of the in-flight merge, retired on completion.
    merging_victim: Option<(u64, SiteId)>,
}

impl CoordinatorState {
    pub(crate) fn new() -> CoordinatorState {
        CoordinatorState {
            level: 0,
            split: 0,
            busy: false,
            pending: 0,
            pending_merges: 0,
            merging_victim: None,
        }
    }

    #[allow(dead_code)] // diagnostics + unit tests
    pub(crate) fn file_state(&self) -> (u8, u64) {
        (self.level, self.split)
    }

    /// Handles one message; may call the spawner to create bucket sites.
    pub(crate) fn handle(
        &mut self,
        msg: Wire,
        spawner: &mut BucketSpawner,
        directory: &Directory,
    ) -> Vec<(SiteId, Wire)> {
        match msg {
            Wire::Overflow { .. } => {
                self.pending += 1;
                self.try_start_work(spawner, directory)
            }
            Wire::Underflow { .. } => {
                self.pending_merges += 1;
                self.try_start_work(spawner, directory)
            }
            Wire::SplitDone { addr } => {
                debug_assert_eq!(addr, self.split, "split completion out of order");
                self.split += 1;
                if self.split == 1u64 << self.level {
                    self.level += 1;
                    self.split = 0;
                }
                self.busy = false;
                self.try_start_work(spawner, directory)
            }
            Wire::MergeDone { addr } => {
                debug_assert_eq!(
                    Some(addr),
                    self.merging_victim.map(|(a, _)| a),
                    "merge completion out of order"
                );
                if self.split > 0 {
                    self.split -= 1;
                } else {
                    self.level -= 1;
                    self.split = (1u64 << self.level) - 1;
                }
                self.busy = false;
                let mut out = Vec::new();
                if let Some((victim, site)) = self.merging_victim.take() {
                    // Only now stop routing to the dissolved bucket: until
                    // its records are durably at the parent, a request
                    // sent around it could reach the parent first and
                    // read `None`. The victim itself forwards whatever
                    // still reaches it (see `BucketState::merge_into`).
                    directory.retire(victim);
                    out.push((site, Wire::Shutdown)); // retire the site
                }
                out.extend(self.try_start_work(spawner, directory));
                out
            }
            Wire::ExtentReq { req_id, client } => vec![(
                SiteId(client),
                Wire::ExtentResp {
                    req_id,
                    level: self.level,
                    split: self.split,
                    busy: self.busy || self.pending > 0 || self.pending_merges > 0,
                },
            )],
            Wire::AdoptFileState { level, split } => {
                debug_assert!(!self.busy, "restore must precede traffic");
                self.level = level;
                self.split = split;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Starts the next queued split or merge, splits first. (No pairwise
    /// cancellation: a bucket's overflow report is latched until it splits
    /// or receives a transfer, so dropping a queued split could leave an
    /// over-capacity bucket that never re-reports.)
    fn try_start_work(
        &mut self,
        spawner: &mut BucketSpawner,
        directory: &Directory,
    ) -> Vec<(SiteId, Wire)> {
        if self.busy {
            return Vec::new();
        }
        if self.pending > 0 {
            self.pending -= 1;
            self.busy = true;
            let victim = self.split;
            let new_addr = extent(self.level, self.split); // n + 2^i
            let new_site = spawner(new_addr, self.level + 1);
            // lint: allow(panic-freedom) -- 0 <= split < extent always addresses a live bucket, and a bucket's site id is its address: only a merged-away or killed one has no directory entry
            let victim_site = directory.bucket_site(victim).expect("split victim exists");
            return vec![(
                victim_site,
                Wire::SplitCmd {
                    addr: victim,
                    new_addr,
                    new_site: new_site.0,
                },
            )];
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
            let (Some(victim_site), Some(parent_site)) =
                (directory.bucket_site(victim), directory.bucket_site(parent))
            else {
                return Vec::new(); // victim already retired (stale report)
            };
            self.busy = true;
            self.merging_victim = Some((victim, victim_site));
            return vec![(
                victim_site,
                Wire::MergeCmd {
                    addr: victim,
                    into_addr: parent,
                    into_site: parent_site.0,
                },
            )];
        }
        Vec::new()
    }
}

/// The coordinator as the runtime sees it: the file state plus the
/// directory it retires merged-away buckets from and the spawner of the
/// buckets its splits create. Split and
/// merge commands rejected by a full victim inbox park in the site's
/// send queue and are retried — restructuring cannot be lost to
/// admission control.
pub(crate) struct CoordinatorSite {
    pub state: CoordinatorState,
    pub spawner: BucketSpawner,
    pub directory: Arc<Directory>,
}

impl Machine for CoordinatorSite {
    /// Coordinator-ordered splits/merges chain into the trace of the
    /// operation whose overflow or underflow report triggered them.
    fn span(&self, _site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
        trace::remote_span(coord_span_name(msg), ctx)
    }

    fn handle(&mut self, _from: SiteId, msg: Wire, _: &mut ScanMemo) -> Vec<(SiteId, Wire)> {
        self.state.handle(msg, &mut self.spawner, &self.directory)
    }
}

/// Static span name for a message the coordinator handles.
fn coord_span_name(msg: &Wire) -> &'static str {
    match msg {
        Wire::Overflow { .. } => "coord.overflow",
        Wire::Underflow { .. } => "coord.underflow",
        Wire::SplitDone { .. } => "coord.split_done",
        Wire::MergeDone { .. } => "coord.merge_done",
        Wire::ExtentReq { .. } => "coord.extent",
        Wire::AdoptFileState { .. } => "coord.adopt_file_state",
        _ => "coord.msg",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A coordinator, a spawner that materialises nothing (a bucket's
    /// site id is its address) and the directory.
    fn harness() -> (CoordinatorState, BucketSpawner, Directory) {
        let spawner: BucketSpawner = Box::new(|addr, _level| SiteId(addr as u32));
        (CoordinatorState::new(), spawner, Directory::new())
    }

    #[test]
    fn overflow_triggers_split_of_split_pointer() {
        let (mut st, mut spawner, dir) = harness();
        let out = st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 10,
            },
            &mut spawner,
            &dir,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(0)); // bucket 0's site
        assert_eq!(
            out[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 1,
                new_site: 1
            }
        );
    }

    #[test]
    fn split_done_advances_pointer_and_level() {
        let (mut st, mut spawner, dir) = harness();
        st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        // level 0: extent 1; after split of bucket 0, level = 1, split = 0
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
        // next split victim is bucket 0 again, creating bucket 2
        let out = st.handle(
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        assert_eq!(
            out[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 2,
                new_site: 2
            }
        );
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 1));
    }

    #[test]
    fn one_split_at_a_time_and_queueing() {
        let (mut st, mut spawner, dir) = harness();
        let first = st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        assert_eq!(first.len(), 1);
        // overflow during the running split queues
        let second = st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 12,
            },
            &mut spawner,
            &dir,
        );
        assert!(second.is_empty(), "split must not start while one runs");
        // completion starts the queued split immediately
        let third = st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert_eq!(third.len(), 1);
        assert!(matches!(
            third[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 2,
                ..
            }
        ));
    }

    #[test]
    fn underflow_triggers_merge_of_last_bucket() {
        let (mut st, mut spawner, dir) = harness();
        // grow the file to 3 buckets: (0,0) -> (1,0) -> (1,1)
        st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        st.handle(
            Wire::Overflow {
                addr: 0,
                level: 1,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 1));
        // underflow: merge bucket 2 back into its parent 0
        let out = st.handle(Wire::Underflow { addr: 1, size: 0 }, &mut spawner, &dir);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1,
            Wire::MergeCmd {
                addr: 2,
                into_addr: 0,
                into_site: 0
            }
        );
        // completion regresses the file state and shuts the site down
        let out = st.handle(Wire::MergeDone { addr: 2 }, &mut spawner, &dir);
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
        let grow_then_shrink = [
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            Wire::SplitDone { addr: 0 },
            Wire::Underflow { addr: 0, size: 0 },
        ];
        for msg in grow_then_shrink {
            st.handle(msg, &mut spawner, &dir);
        }
        assert!(
            dir.bucket_site(1).is_some(),
            "MergeCmd is out, the victim's records are not at the parent yet"
        );
        st.handle(Wire::MergeDone { addr: 1 }, &mut spawner, &dir);
        assert!(dir.bucket_site(1).is_none());
    }

    #[test]
    fn merge_across_level_boundary() {
        let (mut st, mut spawner, dir) = harness();
        // grow to exactly (1, 0): two buckets
        st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert_eq!(st.file_state(), (1, 0));
        let out = st.handle(Wire::Underflow { addr: 0, size: 0 }, &mut spawner, &dir);
        // merge bucket 1 into bucket 0, regressing to level 0
        assert_eq!(
            out[0].1,
            Wire::MergeCmd {
                addr: 1,
                into_addr: 0,
                into_site: 0
            }
        );
        st.handle(Wire::MergeDone { addr: 1 }, &mut spawner, &dir);
        assert_eq!(st.file_state(), (0, 0));
    }

    #[test]
    fn single_bucket_file_never_merges() {
        let (mut st, mut spawner, dir) = harness();
        let out = st.handle(Wire::Underflow { addr: 0, size: 0 }, &mut spawner, &dir);
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
        st.handle(
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        // start a split, then queue an underflow during it
        st.handle(
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        let during = st.handle(Wire::Underflow { addr: 0, size: 0 }, &mut spawner, &dir);
        assert!(during.is_empty(), "busy: nothing starts");
        // queue one more overflow: it must run BEFORE the merge
        st.handle(
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
            &mut spawner,
            &dir,
        );
        let after = st.handle(Wire::SplitDone { addr: 0 }, &mut spawner, &dir);
        assert!(
            after
                .iter()
                .any(|(_, m)| matches!(m, Wire::SplitCmd { .. })),
            "queued split starts next: {after:?}"
        );
        // and once that split finishes, the queued merge runs
        let finally = st.handle(Wire::SplitDone { addr: 1 }, &mut spawner, &dir);
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
        let out = st.handle(
            Wire::ExtentReq {
                req_id: 5,
                client: 9,
            },
            &mut spawner,
            &dir,
        );
        assert_eq!(
            out,
            vec![(
                SiteId(9),
                Wire::ExtentResp {
                    req_id: 5,
                    level: 0,
                    split: 0,
                    busy: false
                }
            )]
        );
    }
}
