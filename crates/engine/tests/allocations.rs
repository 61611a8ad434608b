//! No allocation per batch: once a processor is warm, a sharded run
//! allocates a fixed amount — worker threads, queues, reusable buffers —
//! however many batches it routes. The batch buffers themselves go round
//! between router and worker instead of being allocated per batch. And no
//! allocation per cycle: a warm resident engine routes and barriers for
//! the same allocation count however many cycles it runs.
//!
//! This binary installs its own call-counting allocator, so it holds a
//! single test: nothing else may allocate while a run is being counted.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swag_core::algorithms::SlickDequeInv;
use swag_core::ops::Sum;
use swag_data::keyed::{Key, KeyedSource, KeyedVecSource};
use swag_engine::{EngineConfig, KeyedWindows, ResidentEngine, ShardedEngine};

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

const SHARDS: usize = 2;
const BATCH: usize = 256;
const QUEUE: usize = 4;
const KEYS: u64 = 64;

type Windows = KeyedWindows<Sum<f64>, SlickDequeInv<Sum<f64>>>;

fn tuples(batches: usize) -> Vec<(Key, f64)> {
    (0..(batches * BATCH) as u64)
        .map(|i| ((i * 7) % KEYS, (i % 64) as f64))
        .collect()
}

/// Allocation calls made by one `run_collecting` over `source` on the
/// parked processors, which it parks again.
fn counted_run(engine: &ShardedEngine, parked: &mut Vec<Windows>, source: Vec<(Key, f64)>) -> u64 {
    let mut source = KeyedVecSource::new(source);
    let cell = Mutex::new(
        std::mem::take(parked)
            .into_iter()
            .map(Some)
            .collect::<Vec<_>>(),
    );
    let before = CALLS.load(Ordering::Relaxed);
    let (run, processors) = engine.run_collecting(&mut source, u64::MAX, |shard| {
        cell.lock().expect("no worker panicked")[shard]
            .take()
            .expect("one parked processor per shard")
    });
    let calls = CALLS.load(Ordering::Relaxed) - before;
    *parked = processors;
    assert_eq!(run.stats.answers, run.stats.tuples);
    calls
}

/// A borrowed stream: routing it allocates nothing.
struct Slice<'a>(std::slice::Iter<'a, (Key, f64)>);

impl KeyedSource for Slice<'_> {
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        self.0.next().copied()
    }
}

/// Allocation calls made by `cycles` resident cycles, each routing
/// `cycle` and ending with a barrier.
fn counted_cycles(
    engine: &mut ResidentEngine<'_, Windows>,
    cycle: &[(Key, f64)],
    cycles: usize,
) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    for _ in 0..cycles {
        engine.route_keyed(&mut Slice(cycle.iter()), u64::MAX);
        let cut = engine.barrier();
        assert_eq!(cut.stats.answers, cycle.len() as u64);
    }
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_run_allocates_the_same_for_64_and_1024_batches() {
    let config = EngineConfig {
        shards: SHARDS,
        queue_capacity: QUEUE,
        batch: BATCH,
        ..EngineConfig::default()
    };
    let engine = ShardedEngine::new(config.clone());
    let mut parked: Vec<Windows> = (0..SHARDS)
        .map(|_| KeyedWindows::new(Sum::<f64>::new(), 1024))
        .collect();
    // Warm-up: every key opened, every window full, every processor
    // buffer grown to its steady size.
    counted_run(&engine, &mut parked, tuples(1024));
    let (short, long) = (tuples(64), tuples(1024));
    let short_calls = counted_run(&engine, &mut parked, short);
    let long_calls = counted_run(&engine, &mut parked, long);
    // What may differ between two runs is how many batch buffers were in
    // flight at once: at most `QUEUE + 2` per shard, set by timing.
    let slack = (SHARDS * (QUEUE + 2)) as u64;
    assert!(
        long_calls <= short_calls + slack && short_calls <= long_calls + slack,
        "64 batches made {short_calls} allocation calls, 1024 made {long_calls}: \
         960 more batches may cost at most {slack} more"
    );

    // The resident engine on the same warm processors: cycles of five
    // and a half batches (so every cycle ends in partial batches).
    let cycle = &tuples(6)[BATCH / 2..];
    std::thread::scope(|scope| {
        let mut processors = parked.into_iter();
        let mut engine = ResidentEngine::start(scope, &config, |_| {
            processors.next().expect("one warm processor per shard")
        });
        counted_cycles(&mut engine, cycle, 10);
        let (few, many) = (
            counted_cycles(&mut engine, cycle, 10),
            counted_cycles(&mut engine, cycle, 1000),
        );
        assert!(
            many <= few + slack,
            "10 resident cycles made {few} allocation calls, 1000 made {many}"
        );
        engine.stop(false);
    });
}
