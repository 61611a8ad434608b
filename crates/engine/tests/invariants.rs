//! Post-drain invariant checking through the engine
//! ([`EngineConfig::check_invariants`]): after a graceful drain every
//! shard validates the paper-level structural invariants of each key's
//! window state and panics the run on a violation.
//!
//! Streams here carry integer-valued `f64` tuples so the SlickDeque (Inv)
//! `answer-refold` comparison is exact (⊕/⊖ cancel bitwise for integers
//! within `f64`'s exact range; see `SlickDequeInv::check_invariants`).

use swag_core::aggregator::FinalAggregator;
use swag_core::algorithms::{Daba, SlickDequeInv, SlickDequeNonInv, TwoStacks};
use swag_core::multi::MultiSlickDequeInv;
use swag_core::ops::{MaxF64, MinF64, Sum};
use swag_data::event::DisorderedKeyedSource;
use swag_data::keyed::{Key, KeyedVecSource};
use swag_data::prng::Xoshiro256StarStar;
use swag_engine::{
    EngineConfig, KeyedEventWindows, KeyedPlans, KeyedWindows, ShardProcessor, ShardedEngine,
};
use swag_plan::{Pat, Query, SharedPlan};
use swag_stream::TimeWindowSpec;

const WINDOW: usize = 24;
const TUPLES: u64 = 4000;
const KEYS: u64 = 23;

/// A skewed keyed stream of integer-valued floats.
fn keyed_stream(seed: u64) -> Vec<(Key, f64)> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..TUPLES)
        .map(|_| {
            let key = rng.gen_below(KEYS);
            let value = rng.gen_below(1000) as f64 - 500.0;
            (key, value)
        })
        .collect()
}

fn checking_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        queue_capacity: 4,
        batch: 32,
        retain_answers: false,
        check_invariants: true,
        ..EngineConfig::default()
    }
}

/// The drain-time check passes for every processor the engine can host,
/// down either path; a violation would panic the shard worker and fail
/// the test. `drive` runs the stream through the engine and returns the
/// tuples it processed.
fn run_checked(drive: impl Fn(&ShardedEngine) -> u64) {
    for shards in [1, 3] {
        assert_eq!(drive(&ShardedEngine::new(checking_config(shards))), TUPLES);
    }
}

/// Arrival order: `make` builds each shard's processor.
fn count_path<P>(
    seed: u64,
    make: impl Fn(usize) -> P + Send + Sync,
) -> impl Fn(&ShardedEngine) -> u64
where
    P: ShardProcessor<Value = f64>,
{
    move |engine| {
        let mut source = KeyedVecSource::new(keyed_stream(seed));
        engine.run(&mut source, u64::MAX, &make).stats.tuples
    }
}

#[test]
fn post_drain_check_passes_for_slickdeque_inv() {
    run_checked(count_path(0xC0FFEE, |_| {
        KeyedWindows::<_, SlickDequeInv<_>>::new(Sum::<f64>::new(), WINDOW)
    }));
}

#[test]
fn post_drain_check_passes_for_slickdeque_noninv_extrema() {
    run_checked(count_path(0xC0FFEE, |_| {
        KeyedWindows::<_, SlickDequeNonInv<_>>::new(MaxF64::new(), WINDOW)
    }));
    run_checked(count_path(0xC0FFEE, |_| {
        KeyedWindows::<_, SlickDequeNonInv<_>>::new(MinF64::new(), WINDOW)
    }));
}

#[test]
fn post_drain_check_passes_for_daba_and_twostacks() {
    run_checked(count_path(0xC0FFEE, |_| {
        KeyedWindows::<_, Daba<_>>::new(Sum::<f64>::new(), WINDOW)
    }));
    run_checked(count_path(0xC0FFEE, |_| {
        KeyedWindows::<_, TwoStacks<_>>::new(Sum::<f64>::new(), WINDOW)
    }));
}

#[test]
fn post_drain_check_passes_for_shared_plans() {
    let plan = SharedPlan::build(&[Query::new(6, 2), Query::new(8, 4)], Pat::Pairs);
    run_checked(count_path(0xFACADE, |_| {
        KeyedPlans::<_, MultiSlickDequeInv<_>>::new(Sum::<f64>::new(), plan.clone())
    }));
}

/// Event time: the FiBA checker (which needs `&mut self` to repair lazy
/// caches) runs after a drain that finished every open window, and after
/// one that left them open.
#[test]
fn post_drain_check_passes_for_event_windows() {
    let make = |_| {
        KeyedEventWindows::new(
            MaxF64::new(),
            vec![TimeWindowSpec::tumbling(32), TimeWindowSpec::new(64, 16)],
        )
    };
    let source = || DisorderedKeyedSource::new(KeyedVecSource::new(keyed_stream(0xE7E27)), 40, 5);
    run_checked(|engine| {
        let run = engine.run_events(&mut source(), u64::MAX, None, make);
        run.stats.tuples
    });
    run_checked(|engine| {
        let (run, _open) = engine.run_events_collecting(&mut source(), u64::MAX, None, make);
        run.stats.tuples
    });
}

/// The processor-level check is callable directly and validates every
/// key's state, not just one. Returns the processor as the stream left it.
fn check_covers_all_keys<P: ShardProcessor>(
    mut processor: P,
    value: impl Fn(usize, f64) -> P::Value,
) -> P {
    let mut out = Vec::new();
    for (i, &(key, v)) in keyed_stream(0xBEEF).iter().take(500).enumerate() {
        processor.process(key, value(i, v), &mut out);
        if i % 97 == 0 {
            processor.check_invariants().unwrap();
        }
    }
    assert!(processor.keys() > 1);
    processor.check_invariants().unwrap();
    processor
}

#[test]
fn processor_check_covers_all_keys() {
    check_covers_all_keys(
        KeyedEventWindows::new(MaxF64::new(), vec![TimeWindowSpec::new(64, 16)]),
        |i, v| (i as u64, v),
    );
    let kw = check_covers_all_keys(
        KeyedWindows::<_, SlickDequeNonInv<_>>::new(MaxF64::new(), 8),
        |_, v| v,
    );
    // Each key's own aggregator agrees with the blanket check.
    for key in 0..KEYS {
        if let Some(state) = kw.state(key) {
            state.check_invariants().unwrap();
        }
    }
}
