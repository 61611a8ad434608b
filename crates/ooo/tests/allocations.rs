//! No allocation per operation: a warm finger B-tree inserts (in order,
//! displaced and in unsorted batches), evicts down to empty and back,
//! and answers range queries without calling the allocator. Freed nodes
//! keep their buffers on the free list, an emptied tree keeps its leaf,
//! and reads do not copy nodes.
//!
//! This binary installs its own call-counting allocator, so it holds a
//! single test: nothing else may allocate while a run is being counted.
//! It is compiled out under `strict-invariants`, whose re-check after
//! every mutation builds per-node summaries on the heap by design.

#![cfg(not(feature = "strict-invariants"))]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swag_core::ops::MaxF64;
use swag_ooo::FingerBTree;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far; a
/// statistic published to no other data, hence `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct CallCounter;

// SAFETY: delegates every call to `System` unchanged; only a counter is
// added.
unsafe impl GlobalAlloc for CallCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, i.e. from `System` with it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // `System` allocation and `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CallCounter = CallCounter;

/// Largest unsorted batch the program offers.
const BATCH: usize = 48;

/// One seeded program over a sliding band of stamps: each round fills
/// the tree past two levels with in-order appends, displaced inserts and
/// unsorted batches, reading ranges throughout, then evicts it to empty
/// by cutoff or by count. Batches are built in a buffer the program
/// keeps, so the only allocations counted are the tree's.
struct Program {
    tree: FingerBTree<MaxF64>,
    rng: u64,
    /// The newest stamp handed out.
    front: u64,
    batch: Vec<(u64, f64)>,
    /// Operations left in the current round's fill phase.
    fill: u32,
    /// Answers read that held an entry.
    hits: u64,
}

impl Program {
    fn new() -> Self {
        Program {
            tree: FingerBTree::new(MaxF64::new()),
            rng: 0x9E37_79B9_7F4A_7C15,
            front: 0,
            batch: Vec::with_capacity(BATCH),
            fill: 0,
            hits: 0,
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % n
    }

    /// A stamp up to `back` below the front (never below the oldest
    /// live one, so nothing lands outside the band).
    fn stamp(&mut self, back: u64) -> u64 {
        let oldest = self.tree.min_ts().unwrap_or(self.front);
        let lo = self.front.saturating_sub(back).max(oldest);
        lo + self.below(self.front - lo + 1)
    }

    /// Run `ops` tree operations.
    fn run(&mut self, ops: u64) {
        for _ in 0..ops {
            if self.fill == 0 && self.tree.is_empty() {
                self.fill = 300 + self.below(300) as u32;
            }
            if self.fill == 0 {
                // Drain: evict to empty in a few steps.
                if self.below(2) == 0 {
                    let cut = self.tree.min_ts().unwrap_or(0) + 1 + self.below(80);
                    self.tree.evict_older_than(cut);
                } else {
                    let n = 1 + self.below(self.tree.len() as u64 + 4) as usize;
                    self.tree.bulk_evict(n);
                }
                continue;
            }
            self.fill -= 1;
            match self.below(16) {
                0..=6 => {
                    self.front += self.below(3);
                    let v = self.below(1000) as f64;
                    self.tree.insert(self.front, v);
                }
                7..=9 => {
                    let ts = self.stamp(200);
                    let v = self.below(1000) as f64;
                    self.tree.insert(ts, v);
                }
                10 => {
                    let n = 1 + self.below(BATCH as u64) as usize;
                    self.batch.clear();
                    for _ in 0..n {
                        let ts = self.stamp(120) + self.below(40);
                        let v = self.below(1000) as f64;
                        self.batch.push((ts, v));
                    }
                    self.front = self.batch.iter().fold(self.front, |m, e| m.max(e.0));
                    self.tree.bulk_insert(&self.batch);
                }
                11 => {
                    let cut = self.stamp(400);
                    self.tree.evict_older_than(cut);
                }
                12..=14 => {
                    let lo = self.stamp(300);
                    let hi = lo + 1 + self.below(150);
                    let answer = self.tree.query_range(lo, hi);
                    self.hits += u64::from(std::hint::black_box(answer).is_finite());
                }
                _ => {
                    let answer = self.tree.query();
                    self.hits += u64::from(std::hint::black_box(answer).is_finite());
                }
            }
        }
    }

    /// Allocation calls made by `ops` operations.
    fn counted(&mut self, ops: u64) -> u64 {
        let before = CALLS.load(Ordering::Relaxed);
        self.run(ops);
        CALLS.load(Ordering::Relaxed) - before
    }
}

#[test]
fn a_warm_tree_makes_no_allocator_call() {
    let mut program = Program::new();
    // Warm-up: the arena reaches the program's high-water node count and
    // every node's buffers their full size.
    program.run(200_000);
    let short = program.counted(10_000);
    let long = program.counted(100_000);
    assert!(program.hits > 0, "the program read answers");
    assert_eq!(
        (short, long),
        (0, 0),
        "a warm tree made {short} allocation calls in 10k operations and {long} in 100k"
    );
    program
        .tree
        .check_invariants()
        .expect("a valid tree after the run");
}
