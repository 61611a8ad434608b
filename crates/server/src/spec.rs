//! Pipeline specifications: what a named pipeline computes and how.
//!
//! A [`PipelineSpec`] is the unit of configuration the control plane
//! accepts (`POST /pipelines` with a JSON body) and the unit of identity
//! a snapshot records — restore re-creates the pipeline from the spec
//! stored *inside* the snapshot file, so a restored pipeline cannot
//! silently diverge from the state it is loading.
//!
//! The window algorithm is not a setting: the plan kind fixes it. Count
//! plans run SlickDeque (Inv for invertible ops, Non-Inv for selective
//! ones) and event plans run FiBA. The paper's baselines are measured
//! in-process only.

use swag_metrics::json::Json;

/// The aggregate operation a pipeline runs.
///
/// These are the operations with a [`PartialCodec`] implementation —
/// the snapshot layer needs a byte encoding for every partial it
/// persists, so only codec-bearing ops are servable.
///
/// [`PartialCodec`]: swag_core::state::PartialCodec
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Invertible sum over `f64`.
    Sum,
    /// Invertible arithmetic mean.
    Mean,
    /// Invertible population variance.
    Variance,
    /// Invertible standard deviation.
    StdDev,
    /// Selective maximum (NaN-rejecting total order).
    Max,
    /// Selective minimum.
    Min,
}

impl OpKind {
    /// Wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Sum => "sum",
            OpKind::Mean => "mean",
            OpKind::Variance => "variance",
            OpKind::StdDev => "stddev",
            OpKind::Max => "max",
            OpKind::Min => "min",
        }
    }

    /// Parse a wire/JSON name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "sum" => OpKind::Sum,
            "mean" => OpKind::Mean,
            "variance" => OpKind::Variance,
            "stddev" => OpKind::StdDev,
            "max" => OpKind::Max,
            "min" => OpKind::Min,
            other => {
                return Err(format!(
                    "unknown op {other:?} (want sum/mean/variance/stddev/max/min)"
                ))
            }
        })
    }

    /// Stable tag byte for the snapshot header.
    pub fn tag(self) -> u8 {
        match self {
            OpKind::Sum => 0,
            OpKind::Mean => 1,
            OpKind::Variance => 2,
            OpKind::StdDev => 3,
            OpKind::Max => 4,
            OpKind::Min => 5,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(t: u8) -> Result<Self, String> {
        Ok(match t {
            0 => OpKind::Sum,
            1 => OpKind::Mean,
            2 => OpKind::Variance,
            3 => OpKind::StdDev,
            4 => OpKind::Max,
            5 => OpKind::Min,
            other => return Err(format!("unknown op tag {other}")),
        })
    }
}

/// The window plan: arrival-order count window or event-time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Arrival-order: last `window` tuples per key, one answer per tuple.
    ///
    /// Each key holds `window` partials from its first tuple on, so the
    /// window is bounded by [`PlanKind::MAX_COUNT_WINDOW`]: a larger one
    /// is refused when the spec is validated, on create and on restore.
    Count {
        /// Window size in tuples, `1..=MAX_COUNT_WINDOW`.
        window: usize,
    },
    /// Event-time: `range`-wide windows sliding by `slide`, closed by the
    /// watermark; tuples more than `lateness` behind the frontier drop.
    Event {
        /// Window width in event-time units.
        range: u64,
        /// Distance between window starts.
        slide: u64,
        /// Allowed out-of-orderness behind the observed frontier.
        lateness: u64,
    },
}

/// Window algorithm names, indexed by snapshot header tag. The plan kind
/// fixes the algorithm: count plans run SlickDeque (Inv or Non-Inv by op
/// class), event plans FiBA. Tags 1–6 are the paper's baselines, measured
/// in-process only; they stay reserved so that a spec or snapshot naming
/// one is refused with the reason.
pub(crate) const ALGORITHMS: [&str; 8] = [
    "slickdeque",
    "naive",
    "flatfat",
    "bint",
    "flatfit",
    "twostacks",
    "daba",
    "fiba",
];

impl PlanKind {
    /// The largest count window a pipeline accepts: 2^24 partials, 128 MiB
    /// per key for an 8-byte partial.
    pub const MAX_COUNT_WINDOW: usize = 1 << 24;

    /// Snapshot tag of the algorithm the plan runs.
    pub(crate) fn algo_tag(&self) -> u8 {
        match self {
            PlanKind::Count { .. } => 0,
            PlanKind::Event { .. } => 7,
        }
    }

    /// Wire/JSON name of the algorithm the plan runs.
    pub(crate) fn algorithm(&self) -> &'static str {
        ALGORITHMS[self.algo_tag() as usize]
    }

    /// Accept a spec's or snapshot's algorithm name only if it is the
    /// plan's own.
    pub(crate) fn check_algorithm(&self, name: &str) -> Result<(), String> {
        if name == self.algorithm() {
            return Ok(());
        }
        Err(format!(
            "this plan runs {}, not {name:?}: this build serves only \
             slickdeque (count) and fiba (event)",
            self.algorithm()
        ))
    }
}

/// Service-level objectives for one pipeline.
///
/// Evaluated continuously by the server's SLO thread: each evaluation
/// window is checked against every set objective, and the fraction of
/// recent windows in breach, divided by `error_budget`, is the burn
/// rate exposed at `GET /slo`. Latency objectives are windowed p99.9
/// quantiles (log2-bucket histograms, so estimates sit within 2× of the
/// true quantile); lag and depth objectives gate live gauges.
///
/// SLOs are control-plane state, not aggregation state: they ride in
/// the pipeline JSON but are *not* persisted in snapshots — a restored
/// pipeline starts with no SLO until one is re-attached via the spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Target p99.9 ingest-to-answer latency in nanoseconds (TCP frame
    /// arrival to answer-table publication), per evaluation window.
    pub p999_ingest_ns: Option<u64>,
    /// Target p99.9 per-slide latency in nanoseconds (the engine's
    /// `swag_slide_latency_ns`), per evaluation window.
    pub p999_slide_ns: Option<u64>,
    /// Maximum acceptable watermark lag in event-time units
    /// (event-time pipelines only).
    pub max_watermark_lag: Option<u64>,
    /// Maximum acceptable ingest queue depth in tuples.
    pub max_queue_depth: Option<u64>,
    /// Fraction of evaluation windows allowed to breach. Burn rate =
    /// observed breach fraction / budget; > 1.0 means the budget is
    /// being spent faster than it accrues.
    pub error_budget: f64,
}

impl SloSpec {
    /// Default error budget: 1% of windows may breach.
    pub const DEFAULT_ERROR_BUDGET: f64 = 0.01;

    /// Parse the `"slo"` object of a pipeline spec body.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let opt_uint = |k: &str| -> Result<Option<u64>, String> {
            match json.get(k) {
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("slo field {k:?} must be a non-negative integer")),
                None => Ok(None),
            }
        };
        let error_budget = match json.get("error_budget") {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| "slo field \"error_budget\" must be a number".to_string())?,
            None => Self::DEFAULT_ERROR_BUDGET,
        };
        Ok(SloSpec {
            p999_ingest_ns: opt_uint("p999_ingest_ns")?,
            p999_slide_ns: opt_uint("p999_slide_ns")?,
            max_watermark_lag: opt_uint("max_watermark_lag")?,
            max_queue_depth: opt_uint("max_queue_depth")?,
            error_budget,
        })
    }

    /// The `"slo"` object (inverse of [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(v) = self.p999_ingest_ns {
            fields.push(("p999_ingest_ns", Json::UInt(v)));
        }
        if let Some(v) = self.p999_slide_ns {
            fields.push(("p999_slide_ns", Json::UInt(v)));
        }
        if let Some(v) = self.max_watermark_lag {
            fields.push(("max_watermark_lag", Json::UInt(v)));
        }
        if let Some(v) = self.max_queue_depth {
            fields.push(("max_queue_depth", Json::UInt(v)));
        }
        fields.push(("error_budget", Json::Num(self.error_budget)));
        Json::obj(fields)
    }

    /// Cross-field checks, shared by [`PipelineSpec::validate`].
    fn validate(&self, plan: &PlanKind) -> Result<(), String> {
        if !(self.error_budget > 0.0 && self.error_budget <= 1.0) {
            return Err("slo error_budget must be in (0, 1]".into());
        }
        if self.p999_ingest_ns.is_none()
            && self.p999_slide_ns.is_none()
            && self.max_watermark_lag.is_none()
            && self.max_queue_depth.is_none()
        {
            return Err("slo must set at least one objective".into());
        }
        if self.max_watermark_lag.is_some() && matches!(plan, PlanKind::Count { .. }) {
            return Err("max_watermark_lag applies to event-time pipelines only".into());
        }
        Ok(())
    }
}

/// Check a pipeline name: 1..=64 bytes of `[A-Za-z0-9_-]`. It is also a
/// snapshot file stem, so this keeps create and restore inside the
/// snapshot directory.
pub(crate) fn check_name(name: &str) -> Result<(), String> {
    let allowed = |b: u8| b.is_ascii_alphanumeric() || b == b'-' || b == b'_';
    if name.is_empty() || name.len() > 64 {
        Err("pipeline name must be 1..=64 bytes".into())
    } else if !name.bytes().all(allowed) {
        Err(format!(
            "pipeline name {name:?} may only contain [A-Za-z0-9_-]"
        ))
    } else {
        Ok(())
    }
}

/// Everything needed to (re)create a named pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Unique pipeline name (also the metrics namespace and the
    /// snapshot file stem).
    pub name: String,
    /// Aggregate operation.
    pub op: OpKind,
    /// Count or event-time plan; it also fixes the window algorithm.
    pub plan: PlanKind,
    /// Engine worker threads.
    pub shards: usize,
    /// Tuples per engine channel batch.
    pub batch: usize,
    /// Optional service-level objectives, evaluated by the server's SLO
    /// thread. Not persisted in snapshots (see [`SloSpec`]).
    pub slo: Option<SloSpec>,
}

impl PipelineSpec {
    /// Validate cross-field consistency, returning a client-readable error.
    pub fn validate(&self) -> Result<(), String> {
        check_name(&self.name)?;
        if self.shards < 1 {
            return Err("shards must be at least 1".into());
        }
        if self.batch < 1 {
            return Err("batch must be at least 1".into());
        }
        match self.plan {
            PlanKind::Count { window } => {
                if window < 1 {
                    return Err("window must be at least 1".into());
                }
                if window > PlanKind::MAX_COUNT_WINDOW {
                    return Err(format!(
                        "window {window} exceeds the largest count window, {}",
                        PlanKind::MAX_COUNT_WINDOW
                    ));
                }
            }
            PlanKind::Event { range, slide, .. } => {
                if range == 0 || slide == 0 {
                    return Err("range and slide must be at least 1".into());
                }
            }
        }
        if let Some(slo) = &self.slo {
            slo.validate(&self.plan)?;
        }
        Ok(())
    }

    /// Parse the control-plane JSON body of `POST /pipelines`.
    ///
    /// ```json
    /// {"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count",
    ///  "window":1000,"shards":2,"batch":256}
    /// {"name":"high","op":"max","algorithm":"fiba","kind":"event",
    ///  "range":1000,"slide":100,"lateness":50,"shards":2}
    /// ```
    ///
    /// `"algorithm"` is required and must name the one the kind runs:
    /// `slickdeque` for count, `fiba` for event. `shards` defaults to 2,
    /// `batch` to 256, `lateness` to 0. An optional `"slo"` object
    /// attaches objectives:
    ///
    /// ```json
    /// {"name":"bids","op":"sum","algorithm":"slickdeque","kind":"count",
    ///  "window":1000,"slo":{"p999_ingest_ns":5000000,"error_budget":0.05}}
    /// ```
    pub fn from_json(body: &str) -> Result<Self, String> {
        let json = Json::parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
        let str_field = |k: &str| -> Result<String, String> {
            json.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing or non-string field {k:?}"))
        };
        let uint_field = |k: &str, default: Option<u64>| -> Result<u64, String> {
            match json.get(k) {
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("field {k:?} must be a non-negative integer")),
                None => default.ok_or_else(|| format!("missing field {k:?}")),
            }
        };
        let name = str_field("name")?;
        let op = OpKind::parse(&str_field("op")?)?;
        let algo = str_field("algorithm")?;
        let kind = str_field("kind")?;
        let plan = match kind.as_str() {
            "count" => PlanKind::Count {
                window: uint_field("window", None)? as usize,
            },
            "event" => PlanKind::Event {
                range: uint_field("range", None)?,
                slide: uint_field("slide", None)?,
                lateness: uint_field("lateness", Some(0))?,
            },
            other => return Err(format!("unknown kind {other:?} (want count or event)")),
        };
        plan.check_algorithm(&algo)?;
        let slo = match json.get("slo") {
            Some(obj) => Some(SloSpec::from_json(obj)?),
            None => None,
        };
        let spec = PipelineSpec {
            name,
            op,
            plan,
            shards: uint_field("shards", Some(2))? as usize,
            batch: uint_field("batch", Some(256))? as usize,
            slo,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The spec as control-plane JSON (inverse of
    /// [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("op", Json::Str(self.op.name().into())),
            ("algorithm", Json::Str(self.plan.algorithm().into())),
        ];
        match self.plan {
            PlanKind::Count { window } => {
                fields.push(("kind", Json::Str("count".into())));
                fields.push(("window", Json::UInt(window as u64)));
            }
            PlanKind::Event {
                range,
                slide,
                lateness,
            } => {
                fields.push(("kind", Json::Str("event".into())));
                fields.push(("range", Json::UInt(range)));
                fields.push(("slide", Json::UInt(slide)));
                fields.push(("lateness", Json::UInt(lateness)));
            }
        }
        fields.push(("shards", Json::UInt(self.shards as u64)));
        fields.push(("batch", Json::UInt(self.batch as u64)));
        if let Some(slo) = &self.slo {
            fields.push(("slo", slo.to_json()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_spec() -> PipelineSpec {
        PipelineSpec {
            name: "bids".into(),
            op: OpKind::Sum,
            plan: PlanKind::Count { window: 1000 },
            shards: 2,
            batch: 256,
            slo: None,
        }
    }

    #[test]
    fn json_round_trips_for_both_plan_kinds() {
        let event_spec = PipelineSpec {
            name: "high-bid".into(),
            op: OpKind::Max,
            plan: PlanKind::Event {
                range: 1000,
                slide: 100,
                lateness: 50,
            },
            shards: 3,
            batch: 128,
            slo: Some(SloSpec {
                p999_ingest_ns: Some(5_000_000),
                p999_slide_ns: None,
                max_watermark_lag: Some(2_000),
                max_queue_depth: None,
                error_budget: 0.05,
            }),
        };
        for spec in [count_spec(), event_spec] {
            let back = PipelineSpec::from_json(&spec.to_json().pretty()).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn slo_defaults_and_validation() {
        let spec = PipelineSpec::from_json(
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count",
                "window":10,"slo":{"p999_ingest_ns":1000000}}"#,
        )
        .unwrap();
        let slo = spec.slo.unwrap();
        assert_eq!(slo.p999_ingest_ns, Some(1_000_000));
        assert_eq!(slo.error_budget, SloSpec::DEFAULT_ERROR_BUDGET);

        // No objective at all is rejected.
        assert!(PipelineSpec::from_json(
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count",
                "window":10,"slo":{}}"#,
        )
        .is_err());
        // Watermark lag makes no sense on a count pipeline.
        assert!(PipelineSpec::from_json(
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count",
                "window":10,"slo":{"max_watermark_lag":100}}"#,
        )
        .is_err());
        // Budget outside (0, 1] is rejected.
        assert!(PipelineSpec::from_json(
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count",
                "window":10,"slo":{"max_queue_depth":5,"error_budget":0}}"#,
        )
        .is_err());
    }

    #[test]
    fn defaults_apply() {
        let spec = PipelineSpec::from_json(
            r#"{"name":"w","op":"mean","algorithm":"slickdeque","kind":"count","window":10}"#,
        )
        .unwrap();
        assert_eq!(spec.shards, 2);
        assert_eq!(spec.batch, 256);
    }

    #[test]
    fn rejects_cross_field_mismatches() {
        let naive = r#"{"name":"w","op":"sum","algorithm":"naive","kind":"count","window":10}"#;
        for body in [
            r#"{"name":"w","op":"sum","algorithm":"fiba","kind":"count","window":10}"#,
            naive,
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"event","range":10,"slide":5}"#,
            r#"{"name":"w","op":"sum","algorithm":"naive","kind":"event","range":10,"slide":5}"#,
            r#"{"name":"bad name!","op":"sum","algorithm":"slickdeque","kind":"count","window":10}"#,
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count","window":0}"#,
            r#"{"name":"w","op":"sum","algorithm":"slickdeque","kind":"count","window":16777217}"#,
        ] {
            assert!(PipelineSpec::from_json(body).is_err(), "{body}");
        }
        let err = PipelineSpec::from_json(naive).unwrap_err();
        assert!(err.contains("serves only slickdeque"), "{err}");
    }

    #[test]
    fn tags_round_trip() {
        for op in [
            OpKind::Sum,
            OpKind::Mean,
            OpKind::Variance,
            OpKind::StdDev,
            OpKind::Max,
            OpKind::Min,
        ] {
            assert_eq!(OpKind::from_tag(op.tag()).unwrap(), op);
            assert_eq!(OpKind::parse(op.name()).unwrap(), op);
        }
    }
}
