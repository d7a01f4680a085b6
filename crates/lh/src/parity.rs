//! LH\*<sub>RS</sub> parity sites and bucket recovery \[LMS05\].
//!
//! Data buckets are grouped `k` at a time (bucket address `a` belongs to
//! group `a / k` as member `a mod k`). Each group has `m` parity sites.
//! Records occupy fixed-size *slots* addressed by a per-bucket *rank*;
//! parity site `p` of a group stores, per rank, the Reed–Solomon parity
//! share `Σ_i coef(p, i) · slot_i` plus the member keys (the key metadata
//! the recovery needs, exactly as in LH\*RS). Updates arrive as XOR deltas,
//! so a parity site never sees record plaintext ordering beyond slot
//! granularity, and an update costs one message per parity site.
//!
//! Recovery of a failed bucket gathers the slot tables of the surviving
//! members plus the parity rows and solves the code; any `m` simultaneous
//! failures per group are survivable.

use crate::filter::ScanMemo;
use crate::messages::{drop_wrong_sender, ParityRow, Wire};
use crate::runtime::Machine;
use sdds_gf::rs::ReedSolomon;
use sdds_net::{SiteId, SiteRegistry};
use sdds_obs::trace::{self, SpanGuard, TraceContext};
use sdds_obs::Registry;

/// Encodes a value into its fixed slot: two little-endian length bytes,
/// the payload, zero padding.
pub(crate) fn slot_of(value: &[u8], slot_size: usize) -> Vec<u8> {
    debug_assert!(value.len() + 2 <= slot_size, "value exceeds slot");
    let mut slot = vec![0u8; slot_size];
    slot[0] = (value.len() & 0xFF) as u8;
    slot[1] = ((value.len() >> 8) & 0xFF) as u8;
    slot[2..2 + value.len()].copy_from_slice(value);
    slot
}

/// Decodes a slot back into the value; `None` when the slot is shorter
/// than its length prefix says.
pub(crate) fn value_of(slot: &[u8]) -> Option<&[u8]> {
    let (len, value) = slot.split_first_chunk::<2>()?;
    value.get(..usize::from(u16::from_le_bytes(*len)))
}

/// XOR delta between the slot encodings of an old and a new value
/// (`None` = absent record = all-zero slot).
pub(crate) fn slot_delta(old: Option<&[u8]>, new: Option<&[u8]>, slot_size: usize) -> Vec<u8> {
    let old_slot = old
        .map(|v| slot_of(v, slot_size))
        .unwrap_or_else(|| vec![0; slot_size]);
    let new_slot = new
        .map(|v| slot_of(v, slot_size))
        .unwrap_or_else(|| vec![0; slot_size]);
    old_slot
        .iter()
        .zip(new_slot.iter())
        .map(|(a, b)| a ^ b)
        .collect()
}

/// State of one parity site: `parity_index`-th parity of one group.
pub(crate) struct ParityState {
    group: u64,
    parity_index: u32,
    k: usize,
    slot_size: usize,
    rs: ReedSolomon,
    rows: Vec<Row>,
}

struct Row {
    keys: Vec<Option<u64>>,
    slot: Vec<u8>,
}

impl ParityState {
    pub(crate) fn new(
        group: u64,
        parity_index: u32,
        k: usize,
        m: usize,
        slot_size: usize,
    ) -> ParityState {
        ParityState {
            group,
            parity_index,
            k,
            slot_size,
            // lint: allow(panic-freedom) -- ClusterConfig validation caps k and m well inside RS's k>=1, k+m<=256 domain
            rs: ReedSolomon::new(k, m).expect("validated parity parameters"),
            rows: Vec::new(),
        }
    }

    fn row_mut(&mut self, rank: u32) -> &mut Row {
        while self.rows.len() <= rank as usize {
            self.rows.push(Row {
                keys: vec![None; self.k],
                slot: vec![0; self.slot_size],
            });
        }
        &mut self.rows[rank as usize]
    }

    /// Applies an update delta: `slot += coef(parity_index, member) · delta`.
    /// `member < k`, and `delta` is `slot_size` bytes long.
    pub(crate) fn apply(&mut self, member: usize, rank: u32, key: Option<u64>, delta: &[u8]) {
        let coef = self
            .rs
            .parity_coefficient(self.parity_index as usize, member);
        let scaled = self.rs.scale_bytes(delta, coef);
        let row = self.row_mut(rank);
        row.keys[member] = key;
        for (s, d) in row.slot.iter_mut().zip(scaled.iter()) {
            *s ^= d;
        }
    }

    /// Snapshot for recovery.
    pub(crate) fn rows(&self) -> Vec<ParityRow> {
        self.rows
            .iter()
            .map(|r| ParityRow {
                keys: r.keys.clone(),
                slot: r.slot.clone(),
            })
            .collect()
    }

    /// Handles one message from `from`. An update comes from a bucket of
    /// this site's group, whose address names its member index; one from
    /// anywhere else is dropped and counted, and so is one whose delta is
    /// not `slot_size` bytes long.
    pub(crate) fn handle(&mut self, from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)> {
        match msg {
            Wire::ParityUpdate { rank, key, delta } => {
                let k = self.k as u64;
                match SiteRegistry::bucket_addr(from) {
                    Some(addr) if addr / k == self.group => {
                        if delta.len() == self.slot_size {
                            self.apply((addr % k) as usize, rank, key, &delta);
                        } else {
                            sdds_obs::counter("lh.parity_bad_delta_drops").inc();
                        }
                        Vec::new()
                    }
                    _ => drop_wrong_sender(Registry::global()),
                }
            }
            Wire::ParityRead { req_id } => {
                let rows = self.rows();
                vec![(from, Wire::ParityState { req_id, rows })]
            }
            _ => Vec::new(),
        }
    }
}

/// A slot-delta stream from a splitting group arrives at high fan-in,
/// which the runtime's batched activations amortize. Parity sites only
/// ever emit client-bound `ParityState` replies, which recovery reads
/// again if one is lost. Parity traffic stays on the channel fabric.
impl Machine for ParityState {
    /// Parity updates triggered by a traced insert/delete and parity
    /// reads during recovery stay inside the operation's trace.
    fn span(&self, site: SiteId, msg: &Wire, ctx: Option<TraceContext>) -> SpanGuard {
        let name = match msg {
            Wire::ParityUpdate { .. } => "parity.update",
            Wire::ParityRead { .. } => "parity.read",
            _ => "parity.msg",
        };
        let mut span = trace::remote_span(name, ctx);
        span.set_site(site.0 as i64);
        span
    }

    fn handle(&mut self, from: SiteId, msg: Wire, _: &mut ScanMemo) -> Vec<(SiteId, Wire)> {
        self.handle(from, msg)
    }
}

/// Reconstructs the failed member's `(key, value)` records from survivor
/// slot tables and parity rows. The tables and rows came off the wire: a
/// row that does not list `k` member keys, or a reconstructed slot whose
/// length prefix overruns it, is an error.
///
/// * `k`, `m`, `slot_size` — the group's parity parameters;
/// * `failed` — member index being reconstructed;
/// * `members` — per member index: `Some(slot table)` if the member
///   survives (shorter tables are implicitly padded with free ranks),
///   `None` if unavailable. A member bucket that never existed should be
///   passed as survived-with-empty-table.
/// * `parities` — per parity index: `Some(rows)` if available.
#[allow(clippy::type_complexity)] // rank-indexed optional slot tables
pub(crate) fn reconstruct_member(
    k: usize,
    m: usize,
    slot_size: usize,
    failed: usize,
    members: &[Option<Vec<Option<(u64, Vec<u8>)>>>],
    parities: &[Option<Vec<ParityRow>>],
) -> Result<Vec<Option<(u64, Vec<u8>)>>, String> {
    assert_eq!(members.len(), k);
    assert_eq!(parities.len(), m);
    let rs = ReedSolomon::new(k, m).map_err(|e| e.to_string())?;
    // number of ranks = max over all sources
    let nranks = members
        .iter()
        .flatten()
        .map(|t| t.len())
        .chain(parities.iter().flatten().map(|r| r.len()))
        .max()
        .unwrap_or(0);
    let mut recovered = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        // key of the failed member at this rank, from any parity row
        let mut key = None;
        for row in parities.iter().flatten().filter_map(|rows| rows.get(rank)) {
            let Some(&member_key) = row.keys.get(failed).filter(|_| row.keys.len() == k) else {
                return Err(format!(
                    "rank {rank}: a parity row lists {} member keys, not {k}",
                    row.keys.len()
                ));
            };
            key = key.or(member_key);
        }
        let Some(key) = key else {
            recovered.push(None); // free rank
            continue;
        };
        // assemble shares
        let mut shares: Vec<Option<Vec<u8>>> = Vec::with_capacity(k + m);
        for (i, member) in members.iter().enumerate() {
            if i == failed {
                shares.push(None);
                continue;
            }
            match member {
                Some(table) => {
                    let slot = table
                        .get(rank)
                        .and_then(|e| e.as_ref().map(|(_, s)| s.clone()))
                        .unwrap_or_else(|| vec![0; slot_size]);
                    shares.push(Some(slot));
                }
                None => shares.push(None),
            }
        }
        for parity in parities.iter() {
            match parity {
                Some(rows) => {
                    let slot = rows
                        .get(rank)
                        .map(|r| r.slot.clone())
                        .unwrap_or_else(|| vec![0; slot_size]);
                    shares.push(Some(slot));
                }
                None => shares.push(None),
            }
        }
        let data = rs
            .reconstruct(&shares)
            .map_err(|e| format!("rank {rank}: {e}"))?;
        let value = data
            .get(failed)
            .and_then(|slot| value_of(slot))
            .ok_or_else(|| format!("rank {rank}: the slot's length prefix overruns it"))?;
        recovered.push(Some((key, value.to_vec())));
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let slot = slot_of(b"hello", 16);
        assert_eq!(slot.len(), 16);
        assert_eq!(value_of(&slot), Some(&b"hello"[..]));
        assert_eq!(value_of(&slot_of(b"", 8)), Some(&b""[..]));
    }

    #[test]
    fn slot_delta_cancels() {
        let d = slot_delta(Some(b"abc"), Some(b"abc"), 16);
        assert!(d.iter().all(|&b| b == 0));
        let d = slot_delta(None, Some(b"abc"), 16);
        assert_eq!(d, slot_of(b"abc", 16));
    }

    #[test]
    fn parity_state_tracks_xor_of_deltas() {
        // one member, one parity (k=1, m=1): parity slot equals data slot
        let mut p = ParityState::new(0, 0, 1, 1, 16);
        p.apply(0, 0, Some(7), &slot_delta(None, Some(b"xyz"), 16));
        let rows = p.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].keys, vec![Some(7)]);
        // coef(0,0) for k=1 Cauchy: recover through reconstruct_member
        let rec = reconstruct_member(1, 1, 16, 0, &[None], &[Some(rows)]).unwrap();
        assert_eq!(rec, vec![Some((7, b"xyz".to_vec()))]);
    }

    #[test]
    fn update_then_delete_clears_parity() {
        let mut p = ParityState::new(0, 0, 2, 1, 16);
        let insert = slot_delta(None, Some(b"v1"), 16);
        p.apply(0, 0, Some(1), &insert);
        let delete = slot_delta(Some(b"v1"), None, 16);
        p.apply(0, 0, None, &delete);
        let rows = p.rows();
        assert!(rows[0].slot.iter().all(|&b| b == 0));
        assert_eq!(rows[0].keys, vec![None, None]);
    }

    #[test]
    fn reconstruct_with_two_members_one_parity() {
        let (k, m, slot) = (2usize, 1usize, 32usize);
        let mut p = ParityState::new(0, 0, k, m, slot);
        // member 0: key 10 -> "alpha" at rank 0 ; member 1: key 11 -> "beta"
        p.apply(0, 0, Some(10), &slot_delta(None, Some(b"alpha"), slot));
        p.apply(1, 0, Some(11), &slot_delta(None, Some(b"beta"), slot));
        // lose member 1; member 0 survives
        let member0_table = vec![Some((10u64, slot_of(b"alpha", slot)))];
        let rec = reconstruct_member(
            k,
            m,
            slot,
            1,
            &[Some(member0_table), None],
            &[Some(p.rows())],
        )
        .unwrap();
        assert_eq!(rec, vec![Some((11, b"beta".to_vec()))]);
    }

    #[test]
    fn reconstruct_handles_ragged_ranks_and_free_slots() {
        let (k, m, slot) = (2usize, 1usize, 24usize);
        let mut p = ParityState::new(0, 0, k, m, slot);
        p.apply(0, 0, Some(1), &slot_delta(None, Some(b"a"), slot));
        p.apply(0, 1, Some(2), &slot_delta(None, Some(b"b"), slot));
        // member 1 only ever wrote rank 0
        p.apply(1, 0, Some(3), &slot_delta(None, Some(b"c"), slot));
        let member1_table = vec![Some((3u64, slot_of(b"c", slot)))];
        let rec = reconstruct_member(
            k,
            m,
            slot,
            0,
            &[None, Some(member1_table)],
            &[Some(p.rows())],
        )
        .unwrap();
        assert_eq!(
            rec,
            vec![Some((1, b"a".to_vec())), Some((2, b"b".to_vec()))]
        );
    }

    #[test]
    fn double_failure_with_two_parities() {
        let (k, m, slot) = (2usize, 2usize, 24usize);
        let mut p0 = ParityState::new(0, 0, k, m, slot);
        let mut p1 = ParityState::new(0, 1, k, m, slot);
        for p in [&mut p0, &mut p1] {
            p.apply(0, 0, Some(1), &slot_delta(None, Some(b"one"), slot));
            p.apply(1, 0, Some(2), &slot_delta(None, Some(b"two"), slot));
        }
        // both members lost
        let rec0 = reconstruct_member(
            k,
            m,
            slot,
            0,
            &[None, None],
            &[Some(p0.rows()), Some(p1.rows())],
        )
        .unwrap();
        assert_eq!(rec0, vec![Some((1, b"one".to_vec()))]);
        let rec1 = reconstruct_member(
            k,
            m,
            slot,
            1,
            &[None, None],
            &[Some(p0.rows()), Some(p1.rows())],
        )
        .unwrap();
        assert_eq!(rec1, vec![Some((2, b"two".to_vec()))]);
    }

    /// A parity site takes updates from the buckets of its own group only:
    /// bucket 4 is member 0 of group 2 when `k = 2`, so an update from
    /// bucket 2 (group 1) or from a dynamic id is dropped, counted, and
    /// leaves the rows as they are.
    #[test]
    fn an_update_from_a_bucket_of_another_group_is_dropped() {
        let mut p = ParityState::new(2, 0, 2, 1, 16);
        let drops = sdds_obs::counter("lh.wrong_sender_drops");
        let before = drops.get();
        let update = |key| Wire::ParityUpdate {
            rank: 0,
            key: Some(key),
            delta: slot_delta(None, Some(b"v"), 16),
        };
        for from in [SiteId(2), SiteId(sdds_net::DYN_BASE + 4)] {
            assert!(p.handle(from, update(1)).is_empty());
        }
        assert!(drops.get() >= before + 2, "both drops counted");
        assert!(p.rows().is_empty(), "no row touched");
        p.handle(SiteId(5), update(7));
        assert_eq!(
            p.rows()[0].keys,
            vec![None, Some(7)],
            "bucket 5 is member 1"
        );
    }

    /// A delta that is not `slot_size` bytes long would XOR a truncated
    /// (or overlong) slot into the row: the update is dropped, counted,
    /// and leaves the rows as they are.
    #[test]
    fn an_update_whose_delta_is_not_a_slot_long_is_dropped() {
        let mut p = ParityState::new(0, 0, 2, 1, 16);
        let drops = sdds_obs::counter("lh.parity_bad_delta_drops");
        let before = drops.get();
        for len in [0, 15, 17] {
            let update = Wire::ParityUpdate {
                rank: 0,
                key: Some(1),
                delta: vec![0xFF; len],
            };
            assert!(p.handle(SiteId(0), update).is_empty());
        }
        assert!(drops.get() >= before + 3, "all three drops counted");
        assert!(p.rows().is_empty(), "no row touched");
    }

    #[test]
    fn a_parity_row_with_fewer_than_k_keys_is_an_error() {
        let row = ParityRow {
            keys: vec![Some(1)],
            slot: vec![0; 16],
        };
        let err = reconstruct_member(2, 1, 16, 1, &[Some(vec![]), None], &[Some(vec![row])]);
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn a_slot_whose_length_prefix_overruns_it_is_an_error() {
        let mut p = ParityState::new(0, 0, 1, 1, 16);
        // length 15 in a 16-byte slot: one byte more than it can hold
        let mut slot = vec![0; 16];
        slot[0] = 15;
        p.apply(0, 0, Some(7), &slot);
        let err = reconstruct_member(1, 1, 16, 0, &[None], &[Some(p.rows())]);
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn reconstruct_fails_without_enough_shares() {
        let (k, m, slot) = (3usize, 1usize, 24usize);
        let mut p = ParityState::new(0, 0, k, m, slot);
        p.apply(0, 0, Some(1), &slot_delta(None, Some(b"x"), slot));
        p.apply(1, 0, Some(2), &slot_delta(None, Some(b"y"), slot));
        p.apply(2, 0, Some(3), &slot_delta(None, Some(b"z"), slot));
        // two members lost but only one parity: not recoverable
        let err = reconstruct_member(
            k,
            m,
            slot,
            0,
            &[None, None, Some(vec![Some((3, slot_of(b"z", slot)))])],
            &[Some(p.rows())],
        );
        assert!(err.is_err());
    }
}
