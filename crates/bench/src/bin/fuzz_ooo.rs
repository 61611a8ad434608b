//! Differential event-time fuzzer: replay seeded random out-of-order
//! programs against a sorted-vector oracle, validating the finger
//! B-tree's `check_invariants` after every mutation.
//!
//! Each program drives one operation through a random mix of `insert` /
//! `bulk_insert` / `evict_older_than` / `bulk_evict` actions over a
//! sliding band of timestamps (duplicates included), plus drains to empty
//! followed by an in-order refill (the tree's reset and free-list reuse
//! paths), comparing `query`,
//! `query_range`, lengths, and the min/max timestamps against an oracle
//! that keeps the live entries in a stably-sorted `Vec` — the same
//! tie order the tree promises ("ties insert after existing equal-`ts`
//! entries"), so even the non-commutative `Last` program is exact.
//! Inputs are `i64`, so every comparison is bit-for-bit.
//!
//! Build with `--features strict-invariants` to additionally run the
//! tree's internal `strict_check!` self-checks on the hot path.
//!
//! Usage: `fuzz_ooo [--ops N] [--seed S] [--quick]`
//! Exits non-zero (panics) on the first divergence; prints a mutation
//! tally on success.

use slickdeque::prelude::*;
use swag_data::prng::Xoshiro256StarStar;

/// Width of the timestamp band new entries land in; old entries are
/// evicted as the band slides, keeping the tree size bounded.
const BAND: u64 = 160;

/// Refold the oracle's live entries oldest→newest, identity-seeded — the
/// ground truth every tree answer must match.
fn fold_oracle<O: AggregateOp<Input = i64>>(op: &O, entries: &[(u64, i64)]) -> O::Partial {
    let mut acc = op.identity();
    for (_, v) in entries {
        acc = op.combine(&acc, &op.lift(v));
    }
    acc
}

/// As above over the half-open event-time range `[lo, hi)`.
fn fold_range<O: AggregateOp<Input = i64>>(
    op: &O,
    entries: &[(u64, i64)],
    lo: u64,
    hi: u64,
) -> O::Partial {
    let mut acc = op.identity();
    for &(t, v) in entries {
        if t >= lo && t < hi {
            acc = op.combine(&acc, &op.lift(&v));
        }
    }
    acc
}

/// Insert preserving the tree's tie order: after existing equal-`ts`
/// entries (stable by arrival within a timestamp).
fn oracle_insert(oracle: &mut Vec<(u64, i64)>, ts: u64, v: i64) {
    let pos = oracle.partition_point(|&(t, _)| t <= ts);
    oracle.insert(pos, (ts, v));
}

/// One fuzz program: `steps` random actions against a fresh tree, state
/// cross-checked and invariants validated after every one. Returns the
/// number of tree mutations (entries inserted or evicted).
fn fuzz_tree<O>(label: &str, op: O, steps: u64, rng: &mut Xoshiro256StarStar) -> u64
where
    O: AggregateOp<Input = i64> + Clone,
    O::Partial: PartialEq + std::fmt::Debug,
{
    let mut tree = FingerBTree::new(op.clone());
    let mut oracle: Vec<(u64, i64)> = Vec::new();
    let mut low = 0u64; // the band's trailing edge (eviction frontier)
    let mut mutations = 0u64;
    let value = |rng: &mut Xoshiro256StarStar| rng.gen_below(1000) as i64 - 500;
    for step in 0..steps {
        match rng.gen_below(100) {
            // Scalar insert somewhere in the band (in-order appends,
            // displaced arrivals, and duplicate timestamps all occur).
            0..=44 => {
                let ts = low + rng.gen_below(BAND);
                let v = value(rng);
                tree.insert(ts, op.lift(&v));
                oracle_insert(&mut oracle, ts, v);
                mutations += 1;
            }
            // Batch insert, sometimes pre-sorted (the fast append path),
            // sometimes shuffled (the sort-first path).
            45..=64 => {
                let b = rng.gen_below(33) as usize;
                let mut batch: Vec<(u64, i64)> = (0..b)
                    .map(|_| (low + rng.gen_below(BAND), value(rng)))
                    .collect();
                if rng.gen_below(2) == 0 {
                    batch.sort_by_key(|e| e.0);
                }
                let lifted: Vec<(u64, O::Partial)> =
                    batch.iter().map(|(t, v)| (*t, op.lift(v))).collect();
                tree.bulk_insert(&lifted);
                // The tree handles a shuffled batch in timestamp order
                // (stable sort), so replaying the sorted batch entry by
                // entry reproduces its exact tie order.
                batch.sort_by_key(|e| e.0);
                for (t, v) in batch {
                    oracle_insert(&mut oracle, t, v);
                }
                mutations += b as u64;
            }
            // Advance the eviction frontier and drop everything below it.
            65..=79 => {
                let cutoff = low + rng.gen_below(BAND / 2 + 1);
                let gone = tree.evict_older_than(cutoff);
                let keep = oracle.partition_point(|&(t, _)| t < cutoff);
                assert_eq!(
                    gone, keep,
                    "{label}: evict_older_than({cutoff}) count at step {step}"
                );
                oracle.drain(..keep);
                low = low.max(cutoff);
                mutations += gone as u64;
            }
            // Count-based eviction of the oldest entries.
            80..=87 => {
                let n = rng.gen_below(oracle.len() as u64 + 1) as usize;
                let gone = tree.bulk_evict(n);
                assert_eq!(gone, n, "{label}: bulk_evict({n}) count at step {step}");
                oracle.drain(..n);
                mutations += n as u64;
            }
            // Drain to empty, by cutoff or by count, then refill in order:
            // the emptied tree's kept leaf and the freed nodes' buffers
            // are reused by the refill's splits.
            88 | 89 => {
                let all = oracle.len();
                let gone = match rng.gen_below(2) {
                    0 => tree.evict_older_than(u64::MAX),
                    _ => tree.bulk_evict(all + rng.gen_below(4) as usize),
                };
                assert_eq!(gone, all, "{label}: drain count at step {step}");
                oracle.clear();
                mutations += gone as u64;
                if let Err(violation) = tree.check_invariants() {
                    panic!("{label}: drained at step {step}: {violation}");
                }
                let mut ts = low;
                for _ in 0..rng.gen_below(3 * BAND) {
                    ts += rng.gen_below(2);
                    let v = value(rng);
                    tree.insert(ts, op.lift(&v));
                    oracle_insert(&mut oracle, ts, v);
                    mutations += 1;
                }
            }
            // Range query over a random (possibly empty) slice of time.
            _ => {
                let lo = low + rng.gen_below(BAND);
                let hi = lo.saturating_sub(8) + rng.gen_below(BAND);
                let got = tree.query_range(lo, hi);
                let expect = fold_range(&op, &oracle, lo, hi);
                assert_eq!(
                    got, expect,
                    "{label}: query_range({lo}, {hi}) diverged at step {step}"
                );
            }
        }
        let got = tree.query();
        let expect = fold_oracle(&op, &oracle);
        assert_eq!(got, expect, "{label}: query diverged at step {step}");
        assert_eq!(tree.len(), oracle.len(), "{label}: len at step {step}");
        assert_eq!(
            tree.min_ts(),
            oracle.first().map(|&(t, _)| t),
            "{label}: min_ts at step {step}"
        );
        assert_eq!(
            tree.max_ts(),
            oracle.last().map(|&(t, _)| t),
            "{label}: max_ts at step {step}"
        );
        if let Err(violation) = tree.check_invariants() {
            panic!("{label}: step {step}: {violation}");
        }
    }
    mutations
}

fn main() {
    let mut target: u64 = 150_000;
    let mut seed: u64 = 0x00_0F_1B_A0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => {
                target = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--ops needs an integer"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--quick" => target = 25_000,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut rng = Xoshiro256StarStar::new(seed);
    let mut total = 0u64;
    let mut rounds = 0u64;
    // Each step mutates ~12 tuples on average across the 4 programs, so
    // scale the per-program step count to land one round near the target.
    let steps = (target / 48).clamp(100, 2_000);
    while total < target {
        rounds += 1;
        total += fuzz_tree("fiba/sum", Sum::<i64>::new(), steps, &mut rng);
        total += fuzz_tree("fiba/count", Count::<i64>::new(), steps, &mut rng);
        total += fuzz_tree("fiba/max", Max::<i64>::new(), steps, &mut rng);
        // Last is order-sensitive: it pins down duplicate-timestamp tie
        // order and the stability of bulk_insert's sort.
        total += fuzz_tree("fiba/last", Last::<i64>::new(), steps, &mut rng);
    }
    println!(
        "fuzz_ooo: {total} tree mutations over {rounds} round(s) of 4 programs, \
         zero divergences from the sorted-vector oracle (seed {seed})"
    );
}

fn usage(problem: &str) -> ! {
    eprintln!("fuzz_ooo: {problem}");
    eprintln!("usage: fuzz_ooo [--ops N] [--seed S] [--quick]");
    std::process::exit(2);
}
