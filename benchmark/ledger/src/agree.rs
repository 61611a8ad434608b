//! Recorded run sets and `ledger agree`: do two sets of runs of the same
//! code agree within the benchmark's own bounds?

use std::collections::BTreeMap;
use std::path::Path;

use swag_metrics::Json;

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats;

/// Fewest runs a set needs before its medians are compared.
pub const MIN_RUNS: usize = 5;

/// One workload's parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// The run's own verdict.
    pub correct: bool,
    /// Tuples attempted.
    pub attempted: u64,
    /// Tuples failed.
    pub failed: u64,
    /// `metric → value`.
    pub metrics: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Parse the result line a single-workload run prints last.
    pub fn from_result_line(line: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(line).map_err(|e| format!("result line: {e}"))?)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Read a result: a metric is a number (run-set files) or an object
    /// with a `value` (result lines).
    fn from_json(json: &Json) -> Result<Self, String> {
        let metrics = match json.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    m.as_f64()
                        .or_else(|| m.get("value").and_then(Json::as_f64))
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric {name} has no numeric value"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("result has no metrics object".into()),
        };
        Ok(WorkloadResult {
            correct: matches!(json.get("correct"), Some(Json::Bool(true))),
            attempted: json.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            failed: json.get("failed").and_then(Json::as_u64).unwrap_or(0),
            metrics,
        })
    }
}

/// One `ledger run`: every workload's end-to-end result for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The seed every block was generated from.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: u64,
    /// `workload → result`.
    pub results: BTreeMap<String, WorkloadResult>,
}

/// A file of runs of one build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    /// The runs, in the order they were recorded.
    pub runs: Vec<Run>,
}

impl RunSet {
    /// Read a set; a missing file is an empty set.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = json
            .get("runs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?
            .iter()
            .map(|run| {
                let results = match run.get("results") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .map(|(w, r)| WorkloadResult::from_json(r).map(|r| (w.clone(), r)))
                        .collect::<Result<_, _>>()?,
                    _ => return Err("run has no results object".to_string()),
                };
                Ok(Run {
                    seed: run.get("seed").and_then(Json::as_u64).unwrap_or(0),
                    seconds: run.get("seconds").and_then(Json::as_u64).unwrap_or(0),
                    results,
                })
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunSet { runs })
    }

    /// Write the set.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = Json::obj(vec![(
            "runs",
            Json::arr(&self.runs, |run| {
                Json::obj(vec![
                    ("seed", Json::UInt(run.seed)),
                    ("seconds", Json::UInt(run.seconds)),
                    (
                        "results",
                        Json::Obj(
                            run.results
                                .iter()
                                .map(|(w, r)| (w.clone(), r.to_json()))
                                .collect(),
                        ),
                    ),
                ])
            }),
        )]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, json.pretty()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// One metric's values on one workload, across the set's runs.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.results.get(workload)?.metrics.get(metric).copied())
            .collect()
    }
}

/// One row of the agreement table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// `(q1, median, q3)` of set A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of set B.
    pub b: (f64, f64, f64),
    /// `|median B − median A| ÷ median A`.
    pub difference: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether the two medians agree within the bound.
    pub fn agrees(&self) -> bool {
        self.difference <= self.bound
    }
}

/// Compare two sets on every workload × end-to-end metric.
pub fn compare(a: &RunSet, b: &RunSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for d in END_TO_END {
            let (va, vb) = (a.values(w.name, d.name), b.values(w.name, d.name));
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{} {}: {} and {} runs; each set needs at least {MIN_RUNS}",
                    w.name,
                    d.name,
                    va.len(),
                    vb.len()
                ));
            }
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            rows.push(Row {
                workload: w.name,
                metric: d.name,
                a: qa,
                b: qb,
                difference: (qb.1 - qa.1).abs() / qa.1,
                bound: d.bound.expect("end-to-end metrics carry a bound"),
            });
        }
    }
    Ok(rows)
}

/// `ledger agree <runs-a> <runs-b>`: print the table; `Ok(true)` when
/// every pair of medians agrees.
pub fn command(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (a, b) = (RunSet::load(path_a)?, RunSet::load(path_b)?);
    let rows = compare(&a, &b)?;
    println!(
        "{:<16} {:<14} {:>38} {:>38} {:>7} {:>6}",
        "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3", "diff", "bound"
    );
    let fmt = |q: (f64, f64, f64)| format!("{:.5e} / {:.5e} / {:.5e}", q.0, q.1, q.2);
    for row in &rows {
        println!(
            "{:<16} {:<14} {:>38} {:>38} {:>6.2}% {:>5.0}%{}",
            row.workload,
            row.metric,
            fmt(row.a),
            fmt(row.b),
            row.difference * 100.0,
            row.bound * 100.0,
            if row.agrees() { "" } else { "  DISAGREE" }
        );
    }
    let incorrect = a
        .runs
        .iter()
        .chain(&b.runs)
        .flat_map(|r| r.results.iter())
        .filter(|(_, r)| !r.correct || r.failed > 0)
        .count();
    if incorrect > 0 {
        println!("{incorrect} recorded workload results are incorrect or have failures");
    }
    Ok(incorrect == 0 && rows.iter().all(Row::agrees))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(scale: f64) -> RunSet {
        let runs = (0..5u64)
            .map(|i| Run {
                seed: i,
                seconds: 10,
                results: WORKLOADS
                    .iter()
                    .map(|w| {
                        let metrics = END_TO_END
                            .iter()
                            .map(|d| (d.name.to_string(), scale * (100.0 + i as f64)))
                            .collect();
                        (
                            w.name.to_string(),
                            WorkloadResult {
                                correct: true,
                                attempted: 1,
                                failed: 0,
                                metrics,
                            },
                        )
                    })
                    .collect(),
            })
            .collect();
        RunSet { runs }
    }

    #[test]
    fn sets_within_the_bound_agree_and_beyond_it_do_not() {
        let rows = compare(&set(1.0), &set(1.05)).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(rows.iter().all(Row::agrees));
        // 30% apart: beyond the largest bound the contract allows.
        for row in compare(&set(1.0), &set(1.3)).unwrap() {
            assert_eq!(row.agrees(), row.bound >= 0.3, "{}", row.metric);
            assert!(!row.agrees(), "{}", row.metric);
        }
    }

    #[test]
    fn too_few_runs_is_an_error() {
        let mut short = set(1.0);
        short.runs.truncate(4);
        assert!(compare(&short, &set(1.0))
            .unwrap_err()
            .contains("at least 5"));
    }

    #[test]
    fn a_set_round_trips_through_its_file() {
        let dir = crate::svc::scratch_dir();
        let path = dir.join("set.json");
        let original = set(1.0);
        original.save(&path).unwrap();
        assert_eq!(RunSet::load(&path).unwrap(), original);
        assert_eq!(
            RunSet::load(&dir.join("absent.json")).unwrap(),
            RunSet::default()
        );
        crate::svc::remove_scratch(&dir);
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let r = WorkloadResult::from_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.attempted, 7);
        assert_eq!(r.metrics["setup_s"], 0.5);
    }
}
