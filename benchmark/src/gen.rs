//! Everything a run feeds the program, derived from `--seed`: the
//! corpus, the operation sequence, the arrival schedule and the search
//! patterns. Equal seeds give equal inputs, byte for byte.

use sdds_corpus::{workload, DirectoryGenerator, Record};
use std::collections::VecDeque;
use std::ops::Range;

/// splitmix64: small, seedable, and independent of the program's own
/// `rand` shim, so a change there cannot change the load.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Shares of each operation class in a mixed stream; they need not sum
/// to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub get: u32,
    pub insert: u32,
    pub delete: u32,
    pub search: u32,
}

/// One client operation. Records and queries are named by their index in
/// the run's corpus and query list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Insert(u32),
    Delete(u32),
    Search(u32),
    /// One `insert_many` call over a run of corpus records.
    Bulk(Range<u32>),
}

/// A mixed stream of `count` operations for one client.
///
/// `live` are the records in the file before the stream starts; they are
/// read but never deleted. Inserts take the records of `fresh` in order,
/// deletes remove this client's own oldest insert (an insert is issued
/// instead while there is none), and gets are uniform over the records
/// live at that point of the stream. Two clients given disjoint `fresh`
/// ranges therefore never touch each other's records, and every get and
/// delete has one known right answer.
pub fn mixed_stream(
    rng: &mut Rng,
    count: usize,
    mix: Mix,
    mut live: Vec<u32>,
    fresh: Range<u32>,
    queries: usize,
) -> Vec<Op> {
    let total = (mix.get + mix.insert + mix.delete + mix.search) as usize;
    assert!(total > 0, "empty mix");
    assert!(
        mix.search == 0 || queries > 0,
        "search share without queries"
    );
    let mut own: VecDeque<u32> = VecDeque::new();
    let mut next_fresh = fresh.start;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let mut pick = rng.below(total) as u32;
        let mut class = 0;
        for (i, share) in [mix.get, mix.insert, mix.delete, mix.search]
            .into_iter()
            .enumerate()
        {
            if pick < share {
                class = i;
                break;
            }
            pick -= share;
        }
        if class == 2 && own.is_empty() {
            class = 1;
        }
        if class == 0 && live.is_empty() {
            class = 1;
        }
        ops.push(match class {
            0 => Op::Get(live[rng.below(live.len())]),
            1 => {
                assert!(next_fresh < fresh.end, "fresh records exhausted");
                let idx = next_fresh;
                next_fresh += 1;
                live.push(idx);
                own.push_back(idx);
                Op::Insert(idx)
            }
            2 => {
                let idx = own.pop_front().expect("checked non-empty");
                let at = live
                    .iter()
                    .rposition(|&l| l == idx)
                    .expect("own insert is live");
                live.swap_remove(at);
                Op::Delete(idx)
            }
            _ => Op::Search(rng.below(queries) as u32),
        });
    }
    ops
}

/// The records of `fresh` as consecutive `insert_many` calls of `batch`
/// records.
pub fn bulk_stream(fresh: Range<u32>, batch: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut start = fresh.start;
    while start < fresh.end {
        let end = (start + batch).min(fresh.end);
        ops.push(Op::Bulk(start..end));
        start = end;
    }
    ops
}

/// The records an operation stream leaves in the file, given what was
/// there before it.
pub fn live_after(preloaded: Range<u32>, streams: &[Vec<Op>]) -> Vec<u32> {
    let mut live: std::collections::BTreeSet<u32> = preloaded.collect();
    for op in streams.iter().flatten() {
        match op {
            Op::Insert(i) => {
                live.insert(*i);
            }
            Op::Delete(i) => {
                live.remove(i);
            }
            Op::Bulk(r) => live.extend(r.clone()),
            Op::Get(_) | Op::Search(_) => {}
        }
    }
    live.into_iter().collect()
}

/// Arrival times in seconds of a Poisson process of `rate` per second,
/// given that exactly `count` arrivals fall in its first `count / rate`
/// seconds: they are then uniform over that window. Fixing the window
/// keeps the offered load of a run exact; gaps stay exponential.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    let window = count as f64 / rate;
    let mut arrivals: Vec<f64> = (0..count).map(|_| rng.unit() * window).collect();
    arrivals.sort_by(f64::total_cmp);
    arrivals
}

/// The run's corpus: `n` directory records with unique RIDs.
pub fn corpus(seed: u64, n: usize) -> Vec<Record> {
    DirectoryGenerator::new(seed).generate(n)
}

/// Search patterns over `stored`: `hits` substrings of stored contents,
/// 8 to 12 symbols long (the scheme's minimum query is 8), then `misses`
/// patterns that occur in no record of `all`. Misses cost the full
/// fan-out and return nothing, which separates fan-out cost from
/// candidate and combination cost.
pub fn queries(
    all: &[Record],
    stored: &[Record],
    hits: usize,
    misses: usize,
    seed: u64,
) -> Vec<String> {
    let mut out = if hits > 0 {
        workload::substring_queries(stored, hits, 8, 12, seed)
    } else {
        Vec::new()
    };
    for i in 0..misses {
        // '#' is outside the directory's alphabet
        let q = format!("#{i:03}#NOSUCH");
        assert!(
            all.iter().all(|r| !r.rc.contains(&q)),
            "miss pattern occurs"
        );
        out.push(q);
    }
    out
}

/// Plaintext ground truth: RIDs, ascending, of the `records` that
/// contain `pattern`.
pub fn oracle<'a>(records: impl Iterator<Item = &'a Record>, pattern: &str) -> Vec<u64> {
    let mut rids: Vec<u64> = records
        .filter(|r| r.rc.contains(pattern))
        .map(|r| r.rid)
        .collect();
    rids.sort_unstable();
    rids
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        get: 60,
        insert: 25,
        delete: 10,
        search: 5,
    };

    #[test]
    fn same_seed_same_ops_and_schedule() {
        let a = mixed_stream(
            &mut Rng::new(7),
            5000,
            MIX,
            (0..100).collect(),
            100..6000,
            20,
        );
        let b = mixed_stream(
            &mut Rng::new(7),
            5000,
            MIX,
            (0..100).collect(),
            100..6000,
            20,
        );
        let c = mixed_stream(
            &mut Rng::new(8),
            5000,
            MIX,
            (0..100).collect(),
            100..6000,
            20,
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            poisson_arrivals(&mut Rng::new(7), 200.0, 1000),
            poisson_arrivals(&mut Rng::new(7), 200.0, 1000)
        );
    }

    #[test]
    fn stream_keeps_its_own_invariants() {
        let ops = mixed_stream(
            &mut Rng::new(1),
            20_000,
            MIX,
            (0..50).collect(),
            50..20_050,
            10,
        );
        let mut live: std::collections::HashSet<u32> = (0..50).collect();
        let mut counts = [0usize; 4];
        for op in &ops {
            match op {
                Op::Get(i) => {
                    assert!(live.contains(i), "get of a record not live");
                    counts[0] += 1;
                }
                Op::Insert(i) => {
                    assert!(live.insert(*i), "insert of a live record");
                    counts[1] += 1;
                }
                Op::Delete(i) => {
                    assert!(*i >= 50, "delete of a preloaded record");
                    assert!(live.remove(i), "delete of a record not live");
                    counts[2] += 1;
                }
                Op::Search(q) => {
                    assert!(*q < 10);
                    counts[3] += 1;
                }
                Op::Bulk(_) => unreachable!(),
            }
        }
        // shares land near the mix (deletes that found nothing became inserts)
        assert!((11_500..12_500).contains(&counts[0]), "{counts:?}");
        assert!((800..1200).contains(&counts[3]), "{counts:?}");
        let mut expect: Vec<u32> = live.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(live_after(0..50, &[ops]), expect);
    }

    #[test]
    fn poisson_rate_is_the_offered_rate() {
        let arrivals = poisson_arrivals(&mut Rng::new(3), 400.0, 40_000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(*arrivals.last().unwrap() <= 100.0);
        // exponential gaps: mean 1/rate, and about 1/e of them longer
        let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * 400.0 - 1.0).abs() < 0.02, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 1.0 / 400.0).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.02,
            "share of long gaps {long}"
        );
    }

    #[test]
    fn bulk_stream_covers_the_range_once() {
        let ops = bulk_stream(10..1000, 588);
        assert_eq!(ops, vec![Op::Bulk(10..598), Op::Bulk(598..1000)]);
    }

    #[test]
    fn queries_hit_and_miss_as_labelled() {
        let records = corpus(5, 600);
        let qs = queries(&records, &records[..500], 30, 4, 5);
        assert_eq!(qs, queries(&records, &records[..500], 30, 4, 5));
        for q in &qs[..30] {
            assert!((8..=12).contains(&q.len()));
            assert!(!oracle(records[..500].iter(), q).is_empty());
        }
        for q in &qs[30..] {
            assert!(oracle(records.iter(), q).is_empty());
        }
    }
}
