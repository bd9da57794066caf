//! What a run hands back, how it is printed, and how two runs compare.
//!
//! `BENCHMARK.json` is the single list of metric names, units, directions
//! and bounds: a workload reports `(name, samples)`, and everything else
//! is looked up there, so code and contract cannot drift apart.

use an5d_service::{parse_json, Json};
use std::path::Path;

use crate::host::Calibrator;
use crate::stats::{median, percentile, quartiles};

/// One measured metric: the median of its samples plus their spread.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// The median of `samples` (reps or windows of one run).
    pub fn of(name: &str, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            name: name.to_string(),
            value: median(samples),
            n: samples.len(),
            q1,
            q3,
        }
    }

    /// A single reading (a count, a ratio of medians).
    pub fn scalar(name: &str, value: f64) -> Self {
        Self::of(name, &[value])
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, timed or not (every one is checked).
    pub attempted: u64,
    /// Operations that errored, were refused, or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly for the same seed, whatever the
    /// timing; `--compare` requires them to be identical.
    pub counts: Vec<(String, u128)>,
    /// Free-form context for the output file (sizes, working sets).
    pub info: Vec<(String, Json)>,
    /// Reconciliation failures of a traced run.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Attach context to the output file.
    pub fn note(&mut self, name: &str, value: Json) {
        self.info.push((name.to_string(), value));
    }

    pub fn count(&mut self, name: &str, value: u128) {
        self.counts.push((name.to_string(), value));
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `setup_s`: the median of the calibrated set-up times, each given
    /// as `(raw seconds, index of the probe it followed)`.
    pub fn push_setup(&mut self, calibrator: &Calibrator, setups: &[(f64, usize)]) {
        let calibrated: Vec<f64> = setups
            .iter()
            .map(|&(seconds, mark)| calibrator.calibrated(seconds, mark))
            .collect();
        self.push(Metric::of("setup_s", &calibrated));
        let raw: Vec<f64> = setups.iter().map(|&(seconds, _)| seconds).collect();
        self.note("raw_setup_s", Json::Num(median(&raw)));
    }

    /// The two latency metrics every workload reports, from the
    /// calibrated per-operation latencies (ms) of each window of the run
    /// (ten solves, one pass of compiles, one window of requests): the
    /// median over the windows of the window's median and of its 90th
    /// percentile. The host's slow patches cluster in a few windows, so
    /// the median window repeats better than a percentile of the pooled
    /// samples.
    pub fn push_latency(&mut self, windows: &[Vec<f64>]) {
        let over_windows =
            |pct: f64| -> Vec<f64> { windows.iter().map(|w| percentile(w, pct)).collect() };
        let medians: Vec<f64> = windows.iter().map(|w| median(w)).collect();
        self.push(Metric::of("p50_ms", &medians));
        self.push(Metric::of("p90_ms", &over_windows(90.0)));
        self.note("p99_ms", Json::Num(median(&over_windows(99.0))));
    }

    /// The uncalibrated wall-clock readings and the host speed they were
    /// taken at, for the output file.
    pub fn describe_raw(
        &mut self,
        calibrator: &Calibrator,
        raw_ops_per_s: f64,
        raw_millis: &[f64],
    ) {
        let factors = calibrator.factors();
        let (low, high) = factors.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), f| {
            (lo.min(*f), hi.max(*f))
        });
        if raw_millis.len() <= 4096 {
            let list = |values: &[f64]| Json::Arr(values.iter().map(|v| Json::Num(*v)).collect());
            self.note("raw_samples_ms", list(raw_millis));
            self.note("probe_factors", list(factors));
        }
        self.note("raw_ops_per_s", Json::Num(raw_ops_per_s));
        self.note("raw_p50_ms", Json::Num(median(raw_millis)));
        self.note("raw_p90_ms", Json::Num(percentile(raw_millis, 90.0)));
        self.note(
            "host_speed_factor",
            Json::obj(vec![
                ("median", Json::Num(median(factors))),
                ("min", Json::Num(low)),
                ("max", Json::Num(high)),
                ("probes", Json::Int(factors.len() as i128)),
            ]),
        );
    }

    /// Account one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[benchmark] FAILED: {}", what());
        }
    }
}

/// One metric declaration from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the reference median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract file.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = root
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array \"{key}\""))?;
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without \"{field}\""))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Load the contract file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is missing or not of the
    /// contract's shape.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let root = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workloads = root
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: missing array \"workloads\"")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Self {
            workloads,
            end_to_end: metric_specs(&root, "end_to_end")?,
            per_layer: metric_specs(&root, "per_layer")?,
        })
    }

    fn declared(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The metrics a run must print, in declaration order: every
    /// end-to-end metric for an untraced run, every per-layer metric for a
    /// traced one. A layer a workload never enters reads 0 (`n = 0`).
    ///
    /// # Errors
    ///
    /// A measured metric the contract does not declare, or an end-to-end
    /// metric the run did not measure, is a harness bug and reported.
    pub fn resolve(
        &self,
        outcome: &Outcome,
        traced: bool,
    ) -> Result<Vec<(MetricSpec, Metric)>, String> {
        let declared = self.declared(traced);
        if let Some(stray) = outcome
            .metrics
            .iter()
            .find(|m| !declared.iter().any(|d| d.name == m.name))
        {
            return Err(format!(
                "metric \"{}\" is not declared in BENCHMARK.json",
                stray.name
            ));
        }
        declared
            .iter()
            .map(|spec| {
                let measured = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .cloned();
                match measured {
                    Some(metric) => Ok((spec.clone(), metric)),
                    None if traced => Ok((
                        spec.clone(),
                        Metric {
                            name: spec.name.clone(),
                            value: 0.0,
                            n: 0,
                            q1: 0.0,
                            q3: 0.0,
                        },
                    )),
                    None => Err(format!(
                        "end-to-end metric \"{}\" was not measured",
                        spec.name
                    )),
                }
            })
            .collect()
    }
}

/// JSON has no NaN or infinity; a metric that is either is a harness bug
/// made visible as 0 with a complaint on stderr.
fn finite(name: &str, value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        eprintln!("[benchmark] metric {name} is not finite ({value}); reporting 0");
        0.0
    }
}

/// Print one `workload metric unit value n q1 q3` row per metric.
pub fn print_rows(workload: &str, resolved: &[(MetricSpec, Metric)]) {
    for (spec, metric) in resolved {
        println!(
            "{workload} {} {} {} {} {} {}",
            spec.name,
            spec.unit,
            finite(&spec.name, metric.value),
            metric.n,
            finite(&spec.name, metric.q1),
            finite(&spec.name, metric.q3),
        );
    }
}

/// The contract's result object, printed as the last line of stdout.
pub fn result_line(outcome: &Outcome, resolved: &[(MetricSpec, Metric)]) -> String {
    let metrics = resolved
        .iter()
        .map(|(spec, metric)| {
            (
                spec.name.as_str(),
                Json::obj(vec![
                    ("value", Json::Num(finite(&spec.name, metric.value))),
                    ("unit", Json::str(&spec.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(i128::from(outcome.attempted))),
        ("failed", Json::Int(i128::from(outcome.failed))),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// The full output file of one run: stamp, arguments, metrics with their
/// spread, exact counts and workload context.
pub fn output_file(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    stamp: Json,
    outcome: &Outcome,
    resolved: &[(MetricSpec, Metric)],
) -> String {
    let metrics = resolved
        .iter()
        .map(|(spec, m)| {
            (
                spec.name.as_str(),
                Json::obj(vec![
                    ("value", Json::Num(finite(&spec.name, m.value))),
                    ("unit", Json::str(&spec.unit)),
                    ("n", Json::Int(m.n as i128)),
                    ("q1", Json::Num(finite(&spec.name, m.q1))),
                    ("q3", Json::Num(finite(&spec.name, m.q3))),
                ]),
            )
        })
        .collect();
    let counts = outcome
        .counts
        .iter()
        .map(|(name, value)| (name.as_str(), Json::Int(*value as i128)))
        .collect();
    let info = outcome
        .info
        .iter()
        .map(|(name, value)| (name.as_str(), value.clone()))
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Int(i128::from(seed))),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("host", stamp),
        ("attempted", Json::Int(i128::from(outcome.attempted))),
        ("failed", Json::Int(i128::from(outcome.failed))),
        ("metrics", Json::obj(metrics)),
        ("counts", Json::obj(counts)),
        ("info", Json::obj(info)),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(|v| Json::str(v)).collect()),
        ),
    ])
    .render()
}

fn load_output(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two sets of end-to-end output files of the same code: every
/// median of `second` must be within the metric's own bound of `first`,
/// no run may have failed operations, and every exact count must be
/// identical. Returns the list of disagreements.
pub fn compare(spec: &Spec, first: &Path, second: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for workload in &spec.workloads {
        let (a, b) = match (load_output(first, workload), load_output(second, workload)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                problems.push(e);
                continue;
            }
        };
        for (label, run) in [("first", &a), ("second", &b)] {
            if run.get("failed").and_then(Json::as_usize) != Some(0) {
                problems.push(format!("{workload}: {label} run has failed operations"));
            }
        }
        for metric in &spec.end_to_end {
            let read = |run: &Json| {
                run.get("metrics")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb), Some(bound)) = (read(&a), read(&b), metric.bound) else {
                problems.push(format!(
                    "{workload}: {} missing from an output file",
                    metric.name
                ));
                continue;
            };
            let worse_by = if metric.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            println!(
                "{workload} {} {} first {va} second {vb} worse_by {worse_by:.4} bound {bound}",
                metric.name, metric.unit
            );
            if worse_by > bound {
                problems.push(format!(
                    "{workload}: {} moved {worse_by:.4} (> bound {bound}): {va} -> {vb}",
                    metric.name
                ));
            }
        }
        if a.get("counts") != b.get("counts") {
            problems.push(format!(
                "{workload}: exact counts differ: {} vs {}",
                a.get("counts").map_or_else(String::new, Json::render),
                b.get("counts").map_or_else(String::new, Json::render)
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Spec {
        Spec::load(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json loads")
    }

    #[test]
    fn contract_file_has_the_shape_the_harness_relies_on() {
        let spec = contract();
        assert_eq!(
            spec.workloads,
            ["exec2d", "exec3d", "exec_nonlinear", "compile", "serve"]
        );
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
    }

    #[test]
    fn resolve_fills_unentered_layers_and_rejects_undeclared_metrics() {
        let spec = contract();
        let mut outcome = Outcome::default();
        outcome.push(Metric::scalar("host.nproc", 2.0));
        let resolved = spec.resolve(&outcome, true).unwrap();
        assert_eq!(resolved.len(), spec.per_layer.len());
        assert!(resolved
            .iter()
            .any(|(s, m)| s.name == "host.nproc" && m.value == 2.0));
        assert!(resolved.iter().any(|(_, m)| m.n == 0 && m.value == 0.0));
        assert!(
            spec.resolve(&outcome, false).is_err(),
            "end-to-end metrics missing"
        );
        outcome.push(Metric::scalar("no.such.metric", 1.0));
        assert!(spec.resolve(&outcome, true).is_err());
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let spec = contract();
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.check(false, || "deliberately wrong".to_string());
        for metric in &spec.end_to_end {
            outcome.push(Metric::of(&metric.name, &[1.0, 2.0, 4.0]));
        }
        let resolved = spec.resolve(&outcome, false).unwrap();
        let line = parse_json(&result_line(&outcome, &resolved)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_usize), Some(2));
        assert_eq!(line.get("failed").and_then(Json::as_usize), Some(1));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound_and_count_changes() {
        let spec = contract();
        let dir =
            std::env::temp_dir().join(format!("an5d-benchmark-compare-{}", std::process::id()));
        let (first, second) = (dir.join("a"), dir.join("b"));
        std::fs::create_dir_all(&first).unwrap();
        std::fs::create_dir_all(&second).unwrap();
        let write = |to: &Path, scale: f64, count: u128| {
            for workload in &spec.workloads {
                let mut outcome = Outcome::default();
                outcome.check(true, String::new);
                outcome.count("ops", count);
                for metric in &spec.end_to_end {
                    // Scale every metric in its "worse" direction.
                    let value = if metric.higher_is_better {
                        100.0 / scale
                    } else {
                        100.0 * scale
                    };
                    outcome.push(Metric::scalar(&metric.name, value));
                }
                let resolved = spec.resolve(&outcome, false).unwrap();
                let text = output_file(workload, 1, 1.0, false, Json::Null, &outcome, &resolved);
                std::fs::write(to.join(format!("{workload}.json")), text).unwrap();
            }
        };
        write(&first, 1.0, 7);
        write(&second, 1.01, 7);
        assert_eq!(compare(&spec, &first, &second), Vec::<String>::new());
        write(&second, 1.5, 7);
        assert!(!compare(&spec, &first, &second).is_empty());
        write(&second, 1.0, 8);
        assert!(compare(&spec, &first, &second)
            .iter()
            .all(|p| p.contains("counts")));
        assert_eq!(compare(&spec, &first, &second).len(), spec.workloads.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
