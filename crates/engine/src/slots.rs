//! Key-dense shard state: a `Key → slot` table with the per-key state in
//! a slab indexed by slot, and the counting sort that groups a batch by
//! slot.
//!
//! Every processor keeps its keys in one [`SlotTable`]: slots count up
//! from 0 in the order the processor first sees each key and never
//! move, so per-key state lives in a plain `Vec` and a worker's drain
//! (one or more batches) can be grouped by slot with a counting sort
//! ([`SlotGroups`]) — O(tuples + distinct keys), no comparisons, no
//! per-run copy. The table travels
//! with the processor, so it survives across engine runs and service
//! cycles instead of being rebuilt per run.

use swag_data::keyed::Key;
use swag_data::prng::mix64;

use crate::keyed::ShardProcessor;
use crate::queue::Batch;

/// Bucket count of an empty table (a power of two).
const MIN_BUCKETS: usize = 16;

/// The slot value of an unused bucket.
const EMPTY: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    key: Key,
    slot: usize,
}

const VACANT: Bucket = Bucket {
    key: 0,
    slot: EMPTY,
};

/// An open-addressing `Key → slot` table over the router's own
/// [`mix64`], plus the per-key state `S` of every slot.
///
/// A key's home bucket is the **top** bits of its `mix64`: the router
/// sends a key to shard `mix64(key) % shards`, which fixes the low bits
/// within a shard (one bit for 2 shards), so indexing by them would use
/// a fraction of the buckets. Collisions probe linearly; the table
/// doubles whenever it would pass half load.
#[derive(Debug)]
pub(crate) struct SlotTable<S> {
    /// A power of two in number, at most half of them used.
    buckets: Vec<Bucket>,
    /// `64 − log2(buckets.len())`.
    shift: u32,
    /// The key of each slot.
    keys: Vec<Key>,
    /// The state of each slot.
    states: Vec<S>,
}

impl<S> Default for SlotTable<S> {
    fn default() -> Self {
        SlotTable {
            buckets: vec![VACANT; MIN_BUCKETS],
            shift: 64 - MIN_BUCKETS.trailing_zeros(),
            keys: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl<S> SlotTable<S> {
    /// Index of the bucket holding `key`, or of the empty bucket where
    /// it would go. Always in bounds: the home index has `log2(len)`
    /// bits and every step is masked; and it ends, because at most half
    /// the buckets are used.
    fn probe(&self, key: Key) -> usize {
        let mask = self.buckets.len() - 1;
        let mut at = (mix64(key) >> self.shift) as usize;
        loop {
            let bucket = &self.buckets[at];
            if bucket.slot == EMPTY || bucket.key == key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot holding `key`, opening one with state `fresh()` on
    /// first sight.
    pub(crate) fn open_slot(&mut self, key: Key, fresh: impl FnOnce() -> S) -> usize {
        let at = self.probe(key);
        if self.buckets[at].slot != EMPTY {
            return self.buckets[at].slot;
        }
        let slot = self.keys.len();
        self.buckets[at] = Bucket { key, slot };
        self.keys.push(key); // alloc:amortized grows once per new key, doubling
        self.states.push(fresh()); // alloc:amortized grows once per new key, doubling
        if 2 * self.keys.len() > self.buckets.len() {
            self.regrow();
        }
        slot
    }

    /// Double the bucket array and re-seat every key.
    fn regrow(&mut self) {
        let buckets = 2 * self.buckets.len();
        // alloc:amortized doubling at half load: once per doubling of the key count
        self.buckets = vec![VACANT; buckets];
        self.shift -= 1;
        for (slot, &key) in self.keys.iter().enumerate() {
            let at = self.probe(key);
            self.buckets[at] = Bucket { key, slot };
        }
    }

    /// The slot holding `key`, if it has one.
    pub(crate) fn find_slot(&self, key: Key) -> Option<usize> {
        let slot = self.buckets[self.probe(key)].slot;
        (slot != EMPTY).then_some(slot)
    }

    /// `key`'s state, if it has a slot.
    pub(crate) fn state_of(&self, key: Key) -> Option<&S> {
        self.states.get(self.find_slot(key)?)
    }

    /// The key in `slot` and its state; `None` for a slot never opened.
    pub(crate) fn slot_entry(&mut self, slot: usize) -> Option<(Key, &mut S)> {
        Some((*self.keys.get(slot)?, self.states.get_mut(slot)?))
    }

    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Every key and its state, in slot order (the order the keys were
    /// first seen).
    pub(crate) fn by_slot(&self) -> impl Iterator<Item = (Key, &S)> {
        self.keys.iter().copied().zip(&self.states)
    }

    /// [`by_slot`](Self::by_slot), mutably.
    pub(crate) fn by_slot_mut(&mut self) -> impl Iterator<Item = (Key, &mut S)> {
        self.keys.iter().copied().zip(&mut self.states)
    }
}

impl<S> FromIterator<(Key, S)> for SlotTable<S> {
    /// A table holding each `(key, state)`; a repeated key keeps its last
    /// state, in the slot it first took.
    fn from_iter<I: IntoIterator<Item = (Key, S)>>(pairs: I) -> Self {
        let mut table = SlotTable::default();
        for (key, state) in pairs {
            match table.find_slot(key) {
                Some(slot) => table.states[slot] = state,
                None => {
                    table.open_slot(key, || state);
                }
            }
        }
        table
    }
}

/// A drain grouped by slot: a counting sort of its batches' tuples on
/// their processor's slots, stable, so each key's values keep stream
/// order across the batches too.
///
/// The buffers are reused drain after drain, so grouping allocates only
/// while they grow past their reserve: to a drain's tuple count and the
/// processor's key count.
pub(crate) struct SlotGroups<V> {
    /// Per-slot tally, indexed by slot; all zero between drains.
    counts: Vec<usize>,
    /// Each tuple's slot, in drain order.
    tuple_slots: Vec<usize>,
    /// The drain's values, grouped by slot.
    values: Vec<V>,
    /// `(slot, key, end)` per distinct slot, in the order of each key's
    /// first tuple in the drain; a run starts where the one before it
    /// ends.
    runs: Vec<(usize, Key, usize)>,
}

impl<V: Copy> SlotGroups<V> {
    /// Buffers with room for a drain of `tuples` tuples. The runs grow
    /// with the distinct keys a drain holds, usually far fewer.
    pub(crate) fn with_capacity(tuples: usize) -> Self {
        SlotGroups {
            counts: Vec::new(),
            tuple_slots: Vec::with_capacity(tuples),
            values: Vec::with_capacity(tuples),
            runs: Vec::new(),
        }
    }

    /// Group the tuples of `drain`'s batches, in order, by their keys'
    /// slots in `processor`, opening a slot for every key seen the first
    /// time: tally, prefix-sum, then a stable scatter of the values.
    pub(crate) fn group_drain<P>(&mut self, processor: &mut P, drain: &[Batch<(Key, V)>])
    where
        P: ShardProcessor<Value = V>,
    {
        let SlotGroups {
            counts,
            tuple_slots,
            values,
            runs,
        } = self;
        let total = drain.iter().map(|b| b.tuples.len()).sum();
        tuple_slots.clear();
        runs.clear();
        tuple_slots.reserve(total);
        for &(key, _) in drain.iter().flat_map(|b| &b.tuples) {
            let slot = processor.open_slot(key);
            if slot >= counts.len() {
                // alloc:amortized grows to the processor's key count, once per run
                counts.resize(slot + 1, 0);
            }
            if counts[slot] == 0 {
                // alloc:amortized grows to the most distinct keys in a drain, once per run
                runs.push((slot, key, 0));
            }
            counts[slot] += 1;
            tuple_slots.push(slot);
        }
        // Each slot's tally becomes its run's start.
        let mut start = 0;
        for &(slot, _, _) in runs.iter() {
            let count = std::mem::replace(&mut counts[slot], start);
            start += count;
        }
        if let Some(&(_, fill)) = drain.iter().find_map(|b| b.tuples.first()) {
            if values.len() < total {
                // alloc:amortized grows to the drain size once per run
                values.resize(total, fill);
            }
        }
        let mut slots = tuple_slots.iter();
        for batch in drain {
            for (&(_, value), &slot) in batch.tuples.iter().zip(&mut slots) {
                let at = &mut counts[slot];
                values[*at] = value;
                *at += 1;
            }
        }
        // Each cursor now sits at its run's end; take it and zero the
        // tally for the next drain.
        for (slot, _, end) in runs.iter_mut() {
            *end = std::mem::take(&mut counts[*slot]);
        }
    }

    /// The runs of the last grouped drain: each distinct slot, its key,
    /// and its values in stream order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, Key, &[V])> {
        let mut start = 0;
        self.runs.iter().map(move |&(slot, key, end)| {
            let run = &self.values[start..end];
            start = end;
            (slot, key, run)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A processor that records what the run step is handed.
    #[derive(Default)]
    struct Recorder {
        table: SlotTable<()>,
        runs: Vec<(Key, Vec<u32>)>,
    }

    impl ShardProcessor for Recorder {
        type Value = u32;
        type Answer = ();

        fn open_slot(&mut self, key: Key) -> usize {
            self.table.open_slot(key, || ())
        }

        fn process_slot(&mut self, slot: usize, values: &[u32], _: &mut Vec<(Key, ())>) {
            let (key, ()) = self.table.slot_entry(slot).expect("an opened slot");
            self.runs.push((key, values.to_vec()));
        }

        fn keys(&self) -> usize {
            self.table.len()
        }
    }

    #[test]
    fn slots_are_dense_stable_and_survive_growth() {
        let mut table: SlotTable<u64> = SlotTable::default();
        // Keys that share low mix64 bits, as one shard's keys do, plus
        // enough of them to double the table several times.
        let keys: Vec<Key> = (0..1000u64)
            .filter(|&k| mix64(k) % 4 == 1)
            .take(200)
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(table.open_slot(key, || key * 10), i);
        }
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(table.open_slot(key, || unreachable!()), i, "stable");
            assert_eq!(table.find_slot(key), Some(i));
            assert_eq!(table.state_of(key), Some(&(key * 10)));
        }
        assert_eq!(table.len(), keys.len());
        assert!(2 * table.len() <= table.buckets.len(), "at most half full");
        assert_eq!(table.find_slot(u64::MAX), None);
        let order: Vec<Key> = table.by_slot().map(|(k, _)| k).collect();
        assert_eq!(order, keys, "slot order is first-seen order");
    }

    #[test]
    fn a_repeated_key_replaces_its_state_in_place() {
        let table: SlotTable<&str> = [(5, "a"), (9, "b"), (5, "c")].into_iter().collect();
        assert_eq!(table.len(), 2);
        assert_eq!(table.state_of(5), Some(&"c"));
        let pairs: Vec<(Key, &str)> = table.by_slot().map(|(k, s)| (k, *s)).collect();
        assert_eq!(pairs, vec![(5, "c"), (9, "b")]);
    }

    /// A drain of the given batches, each stamped watermark 0.
    fn drain(batches: &[&[(Key, u32)]]) -> Vec<Batch<(Key, u32)>> {
        let batch = |tuples: &&[(Key, u32)]| Batch {
            watermark: 0,
            tuples: tuples.to_vec(),
        };
        batches.iter().map(batch).collect()
    }

    #[test]
    fn grouping_is_a_stable_sort_by_first_seen_key() {
        let mut groups = SlotGroups::with_capacity(8);
        let mut processor = Recorder::default();
        let batch: &[(Key, u32)] = &[(7, 1), (3, 2), (7, 3), (9, 4), (3, 5), (7, 6)];
        groups.group_drain(&mut processor, &drain(&[batch]));
        let mut out = Vec::new();
        let mut run_all = |groups: &SlotGroups<u32>, processor: &mut Recorder| {
            for (slot, key, values) in groups.runs() {
                assert_eq!(processor.table.find_slot(key), Some(slot));
                processor.process_slot(slot, values, &mut out);
            }
        };
        run_all(&groups, &mut processor);
        assert_eq!(
            processor.runs,
            vec![(7, vec![1, 3, 6]), (3, vec![2, 5]), (9, vec![4])]
        );
        // The next drain reuses the buffers: a key first seen now sorts
        // after the ones it follows in the drain, old slots keep theirs,
        // and a shorter drain leaves no stale values behind.
        processor.runs.clear();
        groups.group_drain(&mut processor, &drain(&[&[(11, 7), (9, 8), (11, 9)]]));
        run_all(&groups, &mut processor);
        assert_eq!(processor.runs, vec![(11, vec![7, 9]), (9, vec![8])]);
        assert_eq!(processor.open_slot(11), 3);
        groups.group_drain(&mut processor, &[]);
        assert_eq!(groups.runs().count(), 0);
        groups.group_drain(&mut processor, &drain(&[&[], &[]]));
        assert_eq!(groups.runs().count(), 0);
    }

    /// Several batches group as their concatenation: one run per key,
    /// values in batch order, then stream order within each batch.
    #[test]
    fn a_drain_groups_the_union_of_its_batches() {
        let mut groups = SlotGroups::with_capacity(4);
        let mut processor = Recorder::default();
        let first: &[(Key, u32)] = &[(7, 1), (3, 2)];
        let second: &[(Key, u32)] = &[(3, 3), (5, 4), (7, 5)];
        let third: &[(Key, u32)] = &[(7, 6)];
        groups.group_drain(&mut processor, &drain(&[first, &[], second, third]));
        let mut out = Vec::new();
        for (slot, _, values) in groups.runs() {
            processor.process_slot(slot, values, &mut out);
        }
        assert_eq!(
            processor.runs,
            vec![(7, vec![1, 5, 6]), (3, vec![2, 3]), (5, vec![4])]
        );
    }
}
