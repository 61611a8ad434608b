//! Seeded input blocks and the sources that replay them.
//!
//! Every block is generated once during set-up from `--seed`; the timed
//! sections only cycle a finished block, so they contain no PRNG or
//! generator work. Event timestamps are shifted by `replay × block span`
//! so a replayed stream keeps advancing in event time.

use swag_data::debs::DebsGenerator;
use swag_data::nexmark::{NexmarkConfig, NexmarkGenerator};
use swag_data::{Key, KeyedDebsSource, KeyedEventSource, KeyedSource, SplitMix64};

/// One wire tuple: `(key, event timestamp, value)`.
pub type Tuple = (u64, u64, f64);

/// Event-time gap between consecutive bids (the NEXMark generator's
/// default).
pub const INTER_EVENT_NS: u64 = 1_000;

/// Values are snapped to this many steps per unit. DEBS-shaped energy
/// readings stay below 256, so every window sum the workloads form
/// (≤ 4096 values) is exact in `f64` and an oracle may compare bitwise
/// whichever way a kernel associates its adds; the grid is far finer than
/// the readings' noise, so value ordering (all the monotone deque sees)
/// is unchanged.
const VALUE_GRID: f64 = 64.0;

fn snap(v: f64) -> f64 {
    (v * VALUE_GRID).round() / VALUE_GRID
}

/// `n` DEBS-shaped energy readings (channel 0).
pub fn debs_values(seed: u64, n: usize) -> Vec<f64> {
    DebsGenerator::new(seed)
        .take(n)
        .map(|ev| snap(ev.energy[0]))
        .collect()
}

/// `n` keyed DEBS-shaped tuples over `keys` machines, arrivals interleaved
/// at random — the `scaling` experiment's stream.
pub fn keyed_debs_block(seed: u64, keys: usize, n: usize) -> Vec<(Key, f64)> {
    let mut source = KeyedDebsSource::new(seed, keys, 0);
    let mut block = source.take_tuples(n);
    for t in &mut block {
        t.1 = snap(t.1);
    }
    block
}

/// `n` NEXMark bids in arrival order for a count-window pipeline:
/// `(auction, 0, price)`. Prices are whole cents, so sums are exact.
pub fn bid_block(seed: u64, n: usize) -> Vec<Tuple> {
    NexmarkGenerator::new(NexmarkConfig {
        seed,
        ..NexmarkConfig::default()
    })
    .take(n)
    .map(|b| (b.auction, 0, b.price))
    .collect()
}

/// `n` NEXMark bids for an event-time pipeline: timestamps carry bounded
/// disorder of `lateness` ns, and a seeded ~1% are pushed a further
/// `lateness + 1 ..= 2·lateness` ns into the past so the service drops
/// them as late.
pub fn event_bid_block(seed: u64, n: usize, lateness: u64) -> Vec<Tuple> {
    let mut displace = SplitMix64::new(seed ^ 0x1A7E_D209_5EED);
    NexmarkGenerator::new(NexmarkConfig {
        seed,
        inter_event_ns: INTER_EVENT_NS,
        max_delay_ns: lateness,
        ..NexmarkConfig::default()
    })
    .take(n)
    .map(|b| {
        let roll = displace.next_u64();
        let ts = if roll.is_multiple_of(100) {
            b.ts.saturating_sub(lateness + 1 + (roll >> 8) % lateness)
        } else {
            b.ts
        };
        (b.auction, ts, b.price)
    })
    .collect()
}

/// Event-time length of one pass over an event block.
pub fn block_span(block_len: usize) -> u64 {
    block_len as u64 * INTER_EVENT_NS
}

/// The `i`-th tuple of the endless replay of an event block.
pub fn replayed_event(block: &[Tuple], i: u64) -> Tuple {
    let len = block.len() as u64;
    let (key, ts, value) = block[(i % len) as usize];
    (key, ts + (i / len) * block_span(block.len()), value)
}

/// Cycles a keyed block; [`take`](Self::take) arms the next job. The
/// cursor persists across jobs, so consecutive jobs continue one stream.
#[derive(Debug)]
pub struct ReplayKeyed<'a> {
    block: &'a [(Key, f64)],
    pos: usize,
    left: u64,
}

impl<'a> ReplayKeyed<'a> {
    /// A replay positioned at the block's start, with nothing armed.
    pub fn new(block: &'a [(Key, f64)]) -> Self {
        assert!(!block.is_empty(), "replay needs a block");
        ReplayKeyed {
            block,
            pos: 0,
            left: 0,
        }
    }

    /// A replay positioned after the first `offset` tuples of the stream.
    pub fn starting_at(block: &'a [(Key, f64)], offset: u64) -> Self {
        let mut replay = Self::new(block);
        replay.pos = (offset % block.len() as u64) as usize;
        replay
    }

    /// Let the next `n` tuples through, then report end of stream.
    pub fn take(&mut self, n: u64) -> &mut Self {
        self.left = n;
        self
    }
}

impl KeyedSource for ReplayKeyed<'_> {
    #[inline]
    fn next_tuple(&mut self) -> Option<(Key, f64)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let t = self.block[self.pos];
        self.pos += 1;
        if self.pos == self.block.len() {
            self.pos = 0;
        }
        Some(t)
    }
}

/// Cycles an event block with timestamps shifted per replay. The low
/// watermark is left at 0: the engine is run with an explicit lateness,
/// which derives the watermark from the routed stream itself.
#[derive(Debug)]
pub struct ReplayEvents<'a> {
    block: &'a [Tuple],
    next: u64,
    left: u64,
}

impl<'a> ReplayEvents<'a> {
    /// A replay positioned at the block's start, with nothing armed.
    pub fn new(block: &'a [Tuple]) -> Self {
        assert!(!block.is_empty(), "replay needs a block");
        ReplayEvents {
            block,
            next: 0,
            left: 0,
        }
    }

    /// Let the next `n` events through, then report end of stream.
    pub fn take(&mut self, n: u64) -> &mut Self {
        self.left = n;
        self
    }
}

impl KeyedEventSource for ReplayEvents<'_> {
    #[inline]
    fn next_event(&mut self) -> Option<Tuple> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let t = replayed_event(self.block, self.next);
        self.next += 1;
        Some(t)
    }

    fn low_watermark(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_a_function_of_the_seed() {
        assert_eq!(debs_values(7, 500), debs_values(7, 500));
        assert_ne!(debs_values(7, 500), debs_values(8, 500));
        assert_eq!(keyed_debs_block(7, 8, 500), keyed_debs_block(7, 8, 500));
        assert_eq!(bid_block(7, 500), bid_block(7, 500));
        assert_eq!(
            event_bid_block(7, 500, 50_000),
            event_bid_block(7, 500, 50_000)
        );
        assert_ne!(bid_block(7, 500), bid_block(8, 500));
    }

    #[test]
    fn values_sit_on_the_exact_grid() {
        for v in debs_values(3, 2_000) {
            assert_eq!((v * VALUE_GRID).fract(), 0.0);
            assert!((0.0..256.0).contains(&v));
        }
    }

    #[test]
    fn keyed_replay_cycles_and_stops_at_the_armed_count() {
        let block = vec![(1, 1.0), (2, 2.0), (3, 3.0)];
        let mut src = ReplayKeyed::new(&block);
        assert_eq!(src.next_tuple(), None);
        let got = src.take(5).take_tuples(10);
        assert_eq!(got, vec![(1, 1.0), (2, 2.0), (3, 3.0), (1, 1.0), (2, 2.0)]);
        // The next job continues where the last one stopped.
        assert_eq!(src.take(2).take_tuples(10), vec![(3, 3.0), (1, 1.0)]);
    }

    #[test]
    fn event_replay_shifts_timestamps_by_the_block_span() {
        let block = vec![(1, 10, 1.0), (2, 5, 2.0)];
        let mut src = ReplayEvents::new(&block);
        src.take(5);
        let got: Vec<_> = std::iter::from_fn(|| src.next_event()).collect();
        let span = block_span(2);
        assert_eq!(
            got,
            vec![
                (1, 10, 1.0),
                (2, 5, 2.0),
                (1, 10 + span, 1.0),
                (2, 5 + span, 2.0),
                (1, 10 + 2 * span, 1.0),
            ]
        );
    }

    #[test]
    fn about_one_percent_of_event_bids_are_displaced_beyond_lateness() {
        let lateness = 50_000;
        let plain = NexmarkGenerator::new(NexmarkConfig {
            seed: 11,
            inter_event_ns: INTER_EVENT_NS,
            max_delay_ns: lateness,
            ..NexmarkConfig::default()
        })
        .bids(100_000);
        let block = event_bid_block(11, 100_000, lateness);
        let moved = plain
            .iter()
            .zip(&block)
            .filter(|(b, t)| b.ts != t.1)
            .count();
        assert!((700..1300).contains(&moved), "{moved} displaced");
    }
}
