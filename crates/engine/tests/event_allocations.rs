//! No allocation per cycle on the event path: a warm resident engine
//! running per-key FiBA time windows with `latest_only` routes
//! disordered stamps, parks and unparks cold keys, and splits and evicts
//! its hot keys' trees for the same allocation count however many
//! cycles it runs.
//!
//! This binary installs its own call-counting allocator, so it holds a
//! single test: nothing else may allocate while a run is being counted.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use swag_core::ops::MaxF64;
use swag_data::event::KeyedEventSource;
use swag_data::keyed::Key;
use swag_engine::{EngineConfig, KeyedEventWindows, ResidentEngine};
use swag_stream::TimeWindowSpec;

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
/// Keys below this get tuples every cycle, enough to grow trees of
/// several levels; the rest are cold.
const HOT: u64 = 8;
const COLD: u64 = 48;
/// A cold key gets tuples one cycle in this many and parks in between.
const COLD_EVERY: u64 = 4;
/// Event time one cycle covers.
const SPAN: u64 = 1_000;
const LATENESS: u64 = 40;

/// One cycle's events at base 0: hot keys round-robin over the span,
/// every cold key twice, stamps displaced by reversing blocks of 12 and
/// one in 97 stamped further back than the lateness bound allows.
fn template() -> Vec<(Key, u64, f64)> {
    let mut events: Vec<(Key, u64, f64)> = (0..1_600u64)
        .map(|i| {
            let ts = i * SPAN / 1_600;
            let ts = if i % 97 == 0 {
                ts.saturating_sub(3 * LATENESS)
            } else {
                ts
            };
            (i % HOT, ts, ((i * 7919) % 1_000) as f64)
        })
        .collect();
    for block in events.chunks_mut(12) {
        block.reverse();
    }
    for k in 0..COLD {
        let ts = (k * 37) % SPAN;
        events.insert((ts * 1_600 / SPAN) as usize, (HOT + k, ts, k as f64));
        events.push((HOT + k, SPAN - 1 - k, (k * 3) as f64));
    }
    events
}

/// A borrowed replay of the template for one cycle: stamps shifted to
/// the cycle's span, and only the cold keys due this cycle. Routing it
/// allocates nothing.
struct Cycle<'a> {
    events: std::slice::Iter<'a, (Key, u64, f64)>,
    cycle: u64,
}

impl KeyedEventSource for Cycle<'_> {
    fn next_event(&mut self) -> Option<(Key, u64, f64)> {
        self.events.by_ref().find_map(|&(key, ts, value)| {
            let due = key < HOT || (key + self.cycle).is_multiple_of(COLD_EVERY);
            due.then_some((key, ts + self.cycle * SPAN, value))
        })
    }

    fn low_watermark(&self) -> u64 {
        0
    }
}

/// Allocation calls made by `cycles` resident cycles, each routing one
/// cycle of events and ending with a barrier.
fn counted_cycles(
    engine: &mut ResidentEngine<'_, KeyedEventWindows<MaxF64>>,
    template: &[(Key, u64, f64)],
    next: &mut u64,
    cycles: u64,
) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    for _ in 0..cycles {
        let mut source = Cycle {
            events: template.iter(),
            cycle: *next,
        };
        engine.route_events(&mut source, u64::MAX);
        let cut = engine.barrier();
        assert!(cut.stats.answers > 0, "cycle {next} closed windows");
        *next += 1;
    }
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_event_engine_allocates_the_same_for_10_and_1000_cycles() {
    let config = EngineConfig {
        shards: SHARDS,
        queue_capacity: QUEUE,
        batch: BATCH,
        retain_answers: true,
        latest_only: true,
        ..EngineConfig::default()
    };
    let template = template();
    let specs = vec![TimeWindowSpec::new(200, 50), TimeWindowSpec::tumbling(100)];
    std::thread::scope(|scope| {
        let mut engine = ResidentEngine::start_events(scope, &config, Some(LATENESS), |_| {
            KeyedEventWindows::new(MaxF64::new(), specs.clone())
        });
        let mut next = 0;
        // Warm-up: every key opened and parked at least once, every tree
        // at its high-water size, every buffer grown.
        counted_cycles(&mut engine, &template, &mut next, 40);
        let few = counted_cycles(&mut engine, &template, &mut next, 10);
        let many = counted_cycles(&mut engine, &template, &mut next, 1000);
        // As in `allocations.rs`: what may differ is how many batch
        // buffers were in flight at once, set by timing.
        let slack = (SHARDS * (QUEUE + 2)) as u64;
        assert!(
            many <= few + slack,
            "10 event cycles made {few} allocation calls, 1000 made {many}"
        );
        let (run, _) = engine.stop(false);
        assert!(
            run.stats.late_tuples > 0,
            "the disorder outran the lateness bound"
        );
    });
}
