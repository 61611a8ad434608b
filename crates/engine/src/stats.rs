//! Per-shard and whole-engine run statistics.

use std::time::Duration;
use swag_metrics::json::{Json, ToJson};

/// What one shard worker did during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index (0-based).
    pub shard: usize,
    /// Keyed tuples this shard processed.
    pub tuples: u64,
    /// Answers its per-key windows produced.
    pub answers: u64,
    /// Batches this shard received, whether taken alone or in a drain
    /// with others.
    pub batches: u64,
    /// Distinct keys routed to this shard.
    pub keys: usize,
    /// Deepest inbound-queue occupancy observed, in tuples — the
    /// backpressure signal (a shard pinned near the queue capacity is
    /// the bottleneck).
    pub max_queue_depth: u64,
    /// The event-time watermark this shard durably passed by drain time.
    /// Always 0 on the arrival-order path (`ShardedEngine::run`), where
    /// time is positional.
    pub watermark: u64,
    /// Wall-clock time from worker start until it drained its queue.
    pub elapsed: Duration,
}

impl ToJson for ShardStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shard", Json::UInt(self.shard as u64)),
            ("tuples", Json::UInt(self.tuples)),
            ("answers", Json::UInt(self.answers)),
            ("batches", Json::UInt(self.batches)),
            ("keys", Json::UInt(self.keys as u64)),
            ("max_queue_depth", Json::UInt(self.max_queue_depth)),
            ("watermark", Json::UInt(self.watermark)),
            ("elapsed_secs", Json::Num(self.elapsed.as_secs_f64())),
        ])
    }
}

/// Merged statistics for a whole engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Worker count the run used.
    pub shards: Vec<ShardStats>,
    /// Total keyed tuples routed.
    pub tuples: u64,
    /// Total answers produced across shards.
    pub answers: u64,
    /// Total batches received across shards.
    pub batches: u64,
    /// Tuples the router dropped for arriving below the watermark.
    /// Always 0 on the arrival-order path.
    pub late_tuples: u64,
    /// Wall-clock duration of the run (routing start to last worker
    /// drained).
    pub elapsed: Duration,
}

impl EngineStats {
    /// Merge per-shard reports under the run's wall-clock time.
    pub fn merge(shards: Vec<ShardStats>, elapsed: Duration) -> Self {
        let mut stats = EngineStats {
            shards,
            tuples: 0,
            answers: 0,
            batches: 0,
            late_tuples: 0,
            elapsed,
        };
        stats.total(0, elapsed);
        stats
    }

    /// Recompute the totals from the per-shard reports.
    pub(crate) fn total(&mut self, late_tuples: u64, elapsed: Duration) {
        self.tuples = self.shards.iter().map(|s| s.tuples).sum();
        self.answers = self.shards.iter().map(|s| s.answers).sum();
        self.batches = self.shards.iter().map(|s| s.batches).sum();
        self.late_tuples = late_tuples;
        self.elapsed = elapsed;
    }

    /// The engine-level event-time watermark: the minimum across shards
    /// of the per-shard watermarks — the frontier every shard has durably
    /// passed. 0 on the arrival-order path or with no shards.
    pub fn watermark(&self) -> u64 {
        self.shards.iter().map(|s| s.watermark).min().unwrap_or(0)
    }

    /// End-to-end keyed tuples per second.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.tuples as f64 / secs
        }
    }

    /// Distinct keys across all shards (keys never span shards).
    pub fn keys(&self) -> usize {
        self.shards.iter().map(|s| s.keys).sum()
    }

    /// Average tuples delivered per received batch — how well the router's
    /// batching amortises queue synchronisation. Below the configured
    /// batch size means the source drained faster than workers consumed
    /// (frequent partial flushes).
    pub fn tuples_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.tuples as f64 / self.batches as f64
        }
    }

    /// Largest per-shard queue watermark — how close the engine came to
    /// full backpressure.
    pub fn max_queue_depth(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Tuple imbalance: the busiest shard's share relative to a perfectly
    /// even split (1.0 = perfectly balanced).
    pub fn skew(&self) -> f64 {
        let busiest = self.shards.iter().map(|s| s.tuples).max().unwrap_or(0);
        Self::ratio(busiest, self.tuples, self.shards.len())
    }

    /// Answer imbalance, same normalisation as [`skew`](Self::skew): the
    /// shard producing the most answers relative to an even split. Can
    /// diverge from tuple skew when window sizes or plans differ per key.
    pub fn answers_skew(&self) -> f64 {
        let busiest = self.shards.iter().map(|s| s.answers).max().unwrap_or(0);
        Self::ratio(busiest, self.answers, self.shards.len())
    }

    /// One shard's share of the run relative to an even split: `count ×
    /// shards / total` (1.0 = exactly its fair share). Returns 1.0 for an
    /// empty total.
    fn ratio(count: u64, total: u64, shards: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            count as f64 * shards as f64 / total as f64
        }
    }
}

impl ToJson for EngineStats {
    /// Every historical field name is preserved; `answers_skew` and the
    /// per-shard `tuples_ratio`/`answers_ratio` load-balance diagnostics
    /// are additive (a ratio of 1.0 is a perfectly fair share, >1.0 a hot
    /// shard).
    fn to_json(&self) -> Json {
        let n = self.shards.len();
        Json::obj(vec![
            ("tuples", Json::UInt(self.tuples)),
            ("answers", Json::UInt(self.answers)),
            ("batches", Json::UInt(self.batches)),
            ("late_tuples", Json::UInt(self.late_tuples)),
            ("watermark", Json::UInt(self.watermark())),
            ("keys", Json::UInt(self.keys() as u64)),
            ("elapsed_secs", Json::Num(self.elapsed.as_secs_f64())),
            ("tuples_per_sec", Json::Num(self.tuples_per_sec())),
            ("tuples_per_batch", Json::Num(self.tuples_per_batch())),
            ("max_queue_depth", Json::UInt(self.max_queue_depth())),
            ("skew", Json::Num(self.skew())),
            ("answers_skew", Json::Num(self.answers_skew())),
            (
                "shards",
                Json::arr(self.shards.iter(), |s| {
                    let Json::Obj(mut fields) = s.to_json() else {
                        // check:allow ShardStats::to_json always builds an object
                        unreachable!("ShardStats::to_json returns an object");
                    };
                    fields.push((
                        "tuples_ratio".to_string(),
                        Json::Num(Self::ratio(s.tuples, self.tuples, n)),
                    ));
                    fields.push((
                        "answers_ratio".to_string(),
                        Json::Num(Self::ratio(s.answers, self.answers, n)),
                    ));
                    Json::Obj(fields)
                }),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(
        i: usize,
        tuples: u64,
        answers: u64,
        batches: u64,
        keys: usize,
        depth: u64,
    ) -> ShardStats {
        ShardStats {
            shard: i,
            tuples,
            answers,
            batches,
            keys,
            max_queue_depth: depth,
            watermark: 0,
            elapsed: Duration::from_millis(10),
        }
    }

    #[test]
    fn merge_sums_and_computes_rates() {
        let stats = EngineStats::merge(
            vec![shard(0, 600, 600, 3, 3, 10), shard(1, 400, 400, 2, 2, 40)],
            Duration::from_secs(2),
        );
        assert_eq!(stats.tuples, 1000);
        assert_eq!(stats.answers, 1000);
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.keys(), 5);
        assert_eq!(stats.max_queue_depth(), 40);
        assert!((stats.tuples_per_sec() - 500.0).abs() < 1e-9);
        assert!((stats.tuples_per_batch() - 200.0).abs() < 1e-9);
        // Busiest shard has 600 of 1000 over 2 shards → skew 1.2.
        assert!((stats.skew() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn tuples_per_batch_handles_empty_runs() {
        let stats = EngineStats::merge(vec![shard(0, 0, 0, 0, 0, 0)], Duration::from_secs(1));
        assert_eq!(stats.tuples_per_batch(), 0.0);
    }

    #[test]
    fn stats_render_as_json() {
        let stats = EngineStats::merge(vec![shard(0, 1, 2, 1, 1, 3)], Duration::from_secs(1));
        let text = stats.to_json().pretty();
        assert!(text.contains("\"tuples\": 1"));
        assert!(text.contains("\"batches\": 1"));
        assert!(text.contains("\"max_queue_depth\": 3"));
        assert!(text.contains("\"shards\": ["));
    }

    #[test]
    fn json_adds_skew_ratios_and_keeps_old_field_names() {
        // Shard 0 does 3/4 of the tuples but only 1/4 of the answers.
        let stats = EngineStats::merge(
            vec![shard(0, 600, 100, 3, 3, 10), shard(1, 200, 300, 2, 2, 40)],
            Duration::from_secs(1),
        );
        assert!((stats.answers_skew() - 1.5).abs() < 1e-9);
        let doc = Json::parse(&stats.to_json().pretty()).unwrap();
        // Historical consumers keep working: old names, old meanings.
        for field in [
            "tuples",
            "answers",
            "batches",
            "keys",
            "elapsed_secs",
            "tuples_per_sec",
            "tuples_per_batch",
            "max_queue_depth",
            "skew",
        ] {
            assert!(doc.get(field).is_some(), "missing top-level `{field}`");
        }
        assert_eq!(doc.get("keys").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("answers_skew").and_then(Json::as_f64), Some(1.5));
        let shards = doc.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(
            shards[0].get("tuples_ratio").and_then(Json::as_f64),
            Some(1.5),
            "600 of 800 tuples over 2 shards"
        );
        assert_eq!(
            shards[0].get("answers_ratio").and_then(Json::as_f64),
            Some(0.5),
            "100 of 400 answers over 2 shards"
        );
        assert_eq!(shards[1].get("shard").and_then(Json::as_u64), Some(1));
        assert_eq!(
            shards[1].get("max_queue_depth").and_then(Json::as_u64),
            Some(40)
        );
    }
}
