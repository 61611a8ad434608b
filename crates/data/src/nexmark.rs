//! NEXMark-shaped auction/bid synthesis for driving the resident service.
//!
//! NEXMark (Tucker et al., the streaming adaptation of the XMark auction
//! benchmark) drives most modern stream-processor evaluations: an
//! auction site emits *persons*, *auctions*, and a dominating stream of
//! *bids*, with a small set of **hot** auctions and bidders attracting a
//! fixed fraction of the traffic. This module synthesises the bid stream
//! with the same shape knobs as the reference generator:
//!
//! * `hot_auction_ratio = r` — `1 − 1/r` of all bids target a rotating
//!   set of [`HOT_AUCTIONS`] hot auctions (the reference default `r = 2`
//!   sends half the bids to hot auctions), the rest are uniform over the
//!   live-auction id space;
//! * prices follow the reference's log-uniform shape (most bids cheap,
//!   a heavy tail of large ones), **quantised to whole cents** so every
//!   price is exactly representable in `f64` — downstream event-time
//!   restores stay bitwise on these streams;
//! * event time advances `inter_event_ns` per bid with bounded disorder:
//!   each bid's timestamp is displaced backwards by at most
//!   [`NexmarkConfig::max_delay_ns`], so a watermark lagging by that
//!   bound admits every bid.
//!
//! Everything is deterministic from the seed ([`SplitMix64`]), matching
//! the rest of the workspace's replayable datasets.

use crate::prng::SplitMix64;

/// Hot auctions live in this many rotating slots (reference generator:
/// `HOT_AUCTIONS`-sized window over the newest auction ids).
pub const HOT_AUCTIONS: u64 = 4;

/// One bid event: the only NEXMark stream the window queries consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    /// The auction being bid on (the aggregation key).
    pub auction: u64,
    /// The bidding person.
    pub bidder: u64,
    /// Bid price in whole cents (integer-valued, exact in `f64` —
    /// dollars would put most prices off the binary grid).
    pub price: f64,
    /// Event time in nanoseconds since the stream epoch.
    pub ts: u64,
}

/// Shape knobs for the bid stream.
#[derive(Debug, Clone)]
pub struct NexmarkConfig {
    /// Live auction id space (`auction ∈ [0, auctions)`).
    pub auctions: u64,
    /// Bidder id space.
    pub bidders: u64,
    /// `1 − 1/hot_auction_ratio` of bids go to hot auctions (`0` or `1`
    /// disables the skew).
    pub hot_auction_ratio: u64,
    /// Event-time gap between consecutive bids.
    pub inter_event_ns: u64,
    /// Largest backwards timestamp displacement (bounded disorder; `0`
    /// yields an in-order stream).
    pub max_delay_ns: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for NexmarkConfig {
    fn default() -> Self {
        NexmarkConfig {
            auctions: 1000,
            bidders: 10_000,
            hot_auction_ratio: 2,
            inter_event_ns: 1_000,
            max_delay_ns: 0,
            seed: 0x4E45584D,
        }
    }
}

/// The deterministic bid generator (an infinite iterator).
#[derive(Debug, Clone)]
pub struct NexmarkGenerator {
    cfg: NexmarkConfig,
    rng: SplitMix64,
    emitted: u64,
}

impl NexmarkGenerator {
    /// A generator over `cfg`, positioned at the stream epoch.
    pub fn new(cfg: NexmarkConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        NexmarkGenerator {
            cfg,
            rng,
            emitted: 0,
        }
    }

    /// Bids emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The next bid.
    pub fn next_bid(&mut self) -> Bid {
        let cfg = &self.cfg;
        let auction = if cfg.hot_auction_ratio > 1
            && !self.rng.next_u64().is_multiple_of(cfg.hot_auction_ratio)
        {
            // Hot path: one of the newest HOT_AUCTIONS ids, rotating
            // slowly so the hot set drifts like the reference's.
            let rotation = self.emitted / 10_000;
            (rotation + self.rng.next_u64() % HOT_AUCTIONS) % cfg.auctions
        } else {
            self.rng.next_u64() % cfg.auctions
        };
        let bidder = self.rng.next_u64() % cfg.bidders;

        // Log-uniform price in cents over [1, ~$10k]: u ∈ [0,1) maps to
        // 10^(2 + 4u) cents. Truncating to an integer cent count keeps
        // the f64 exact (< 2^53).
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let cents = 10f64.powf(2.0 + 4.0 * u).floor();
        let price = cents.max(1.0);

        let base = self.emitted * cfg.inter_event_ns;
        let delay = if cfg.max_delay_ns == 0 {
            0
        } else {
            self.rng.next_u64() % (cfg.max_delay_ns + 1)
        };
        let ts = base.saturating_sub(delay);

        self.emitted += 1;
        Bid {
            auction,
            bidder,
            price,
            ts,
        }
    }

    /// The next `n` bids as a batch.
    pub fn bids(&mut self, n: usize) -> Vec<Bid> {
        (0..n).map(|_| self.next_bid()).collect()
    }
}

impl Iterator for NexmarkGenerator {
    type Item = Bid;

    fn next(&mut self) -> Option<Bid> {
        Some(self.next_bid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let cfg = NexmarkConfig::default();
        let a = NexmarkGenerator::new(cfg.clone()).bids(1000);
        let b = NexmarkGenerator::new(cfg).bids(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn hot_auctions_attract_about_half_the_bids() {
        let mut g = NexmarkGenerator::new(NexmarkConfig::default());
        let bids = g.bids(20_000);
        // With hot_auction_ratio=2 and 1000 auctions, a uniform stream
        // would put ~0.4% of bids on any 4 ids; the skewed stream puts
        // ~50% on the rotating hot 4.
        let mut counts = std::collections::HashMap::new();
        for b in &bids {
            *counts.entry(b.auction).or_insert(0u64) += 1;
        }
        let mut top: Vec<u64> = counts.values().copied().collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = top.iter().take(HOT_AUCTIONS as usize * 2).sum();
        assert!(
            hot as f64 > 0.4 * bids.len() as f64,
            "hot auctions got only {hot}/{}",
            bids.len()
        );
    }

    #[test]
    fn no_skew_when_ratio_disabled() {
        let mut g = NexmarkGenerator::new(NexmarkConfig {
            hot_auction_ratio: 1,
            auctions: 16,
            ..NexmarkConfig::default()
        });
        let bids = g.bids(16_000);
        let mut counts = [0u64; 16];
        for b in &bids {
            counts[b.auction as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..1400).contains(&c), "auction {i}: {c} bids");
        }
    }

    #[test]
    fn prices_are_exact_cents_in_range() {
        let mut g = NexmarkGenerator::new(NexmarkConfig::default());
        for b in g.bids(5000) {
            assert!(b.price >= 1.0 && b.price <= 10_000_000.0, "{}", b.price);
            let cents = b.price; // generator emits whole cent counts
            assert_eq!(cents.fract(), 0.0, "price {cents} not a whole cent");
        }
    }

    #[test]
    fn disorder_is_bounded_and_zero_delay_is_ordered() {
        let cfg = NexmarkConfig {
            max_delay_ns: 5_000,
            inter_event_ns: 1_000,
            ..NexmarkConfig::default()
        };
        let mut g = NexmarkGenerator::new(cfg);
        for (i, b) in g.bids(10_000).into_iter().enumerate() {
            let base = i as u64 * 1_000;
            assert!(b.ts <= base && b.ts >= base.saturating_sub(5_000));
        }
        let mut g = NexmarkGenerator::new(NexmarkConfig::default());
        let bids = g.bids(1000);
        assert!(bids.windows(2).all(|w| w[0].ts <= w[1].ts), "in order");
    }
}
