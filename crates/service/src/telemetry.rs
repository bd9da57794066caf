//! Rendering for the observability endpoints: `GET /metrics` is the
//! Prometheus text exposition of one [`Registry::snapshot`], and knows no
//! metric by name, so a series registered anywhere in the process shows
//! up there. `GET /trace` renders the trace ring.
//!
//! [`Registry::snapshot`]: an5d_obs::Registry::snapshot

use crate::handlers::ServiceState;
use crate::json::Json;
use an5d_obs::{FamilySnapshot, FinishedTrace, HistogramSnapshot, Sample};
use std::fmt::Write as _;

/// Cumulative `le` bucket edges for latency histograms, microseconds.
/// Chosen to bracket everything from a cache-hit `/plan` (tens of µs)
/// to a cold paper-scale `/tune` (seconds).
const LE_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Quantiles exported per histogram series: the Prometheus `quantile`
/// label and the rank.
const QUANTILES: &[(&str, f64)] = &[
    ("0.5", 0.5),
    ("0.95", 0.95),
    ("0.99", 0.99),
    ("0.999", 0.999),
];

/// `{name="value",…}` for a series' labels plus one line-specific label
/// (`le`, `quantile`); nothing at all for an empty set.
fn label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let labels = labels
        .iter()
        .map(|(name, value)| (name.as_str(), value.as_str()));
    let pairs: Vec<String> = labels
        .chain(extra)
        .map(|(name, value)| {
            let escaped = value
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{name}=\"{escaped}\"")
        })
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Append one histogram series as Prometheus `_bucket`/`_sum`/`_count`
/// lines plus a companion `<name>_quantile` series.
fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snapshot: &HistogramSnapshot,
) {
    for &bound in LE_BUCKETS_US {
        let le = label_set(labels, Some(("le", &bound.to_string())));
        let _ = writeln!(out, "{name}_bucket{le} {}", snapshot.count_le(bound));
    }
    let inf = label_set(labels, Some(("le", "+Inf")));
    let _ = writeln!(out, "{name}_bucket{inf} {}", snapshot.count());
    let plain = label_set(labels, None);
    let _ = writeln!(out, "{name}_sum{plain} {}", snapshot.sum());
    let _ = writeln!(out, "{name}_count{plain} {}", snapshot.count());
    for (text, q) in QUANTILES {
        let quantile = label_set(labels, Some(("quantile", text)));
        let _ = writeln!(out, "{name}_quantile{quantile} {}", snapshot.quantile(*q));
    }
}

/// The Prometheus text exposition of a registry snapshot (`/metrics`).
#[must_use]
pub(crate) fn render_prometheus(families: &[FamilySnapshot]) -> String {
    let mut out = String::new();
    for family in families {
        let name = &family.name;
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
        for series in &family.series {
            match &series.sample {
                Sample::Value(value) => {
                    let _ = writeln!(out, "{name}{} {value}", label_set(&series.labels, None));
                }
                Sample::Histogram(snapshot) => {
                    write_histogram(&mut out, name, &series.labels, snapshot);
                }
            }
        }
    }
    out
}

/// Summary JSON for `GET /trace`: the retained traces, oldest first.
#[must_use]
pub(crate) fn traces_summary(state: &ServiceState) -> Json {
    let traces = state.traces().recent();
    Json::obj(vec![
        (
            "capacity",
            Json::Int(i128::try_from(state.traces().capacity()).unwrap_or(0)),
        ),
        (
            "count",
            Json::Int(i128::try_from(traces.len()).unwrap_or(0)),
        ),
        (
            "traces",
            Json::Arr(
                traces
                    .iter()
                    .map(|trace| {
                        Json::obj(vec![
                            ("id", Json::Str(trace.id.to_string())),
                            ("root", trace.root_name().map_or(Json::Null, Json::str)),
                            ("total_us", Json::Int(i128::from(trace.total_us))),
                            (
                                "spans",
                                Json::Int(i128::try_from(trace.spans.len()).unwrap_or(0)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Detail JSON for `GET /trace?id=`: the flat span list with parent
/// indices (a tree encoded by index).
#[must_use]
pub(crate) fn trace_detail(trace: &FinishedTrace) -> Json {
    Json::obj(vec![
        ("id", Json::Str(trace.id.to_string())),
        ("total_us", Json::Int(i128::from(trace.total_us))),
        ("dropped", Json::Int(i128::from(trace.dropped))),
        (
            "spans",
            Json::Arr(
                trace
                    .spans
                    .iter()
                    .map(|span| {
                        Json::obj(vec![
                            ("name", Json::str(span.name)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Int(i128::from(p))),
                            ),
                            ("start_us", Json::Int(i128::from(span.start_us))),
                            ("dur_us", Json::Int(i128::from(span.dur_us))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_obs::Registry;

    fn snapshot() -> Vec<FamilySnapshot> {
        let registry = Registry::new();
        let jobs = registry.counter("jobs_total", "Jobs run.", &[("device", "v100")]);
        jobs.add(3);
        let info = registry.gauge("db_info", "Constant 1.", &[("path", "/tmp/a \"b\"\\c")]);
        info.set(1);
        let wall = registry.histogram("wall_us", "Wall time.", &[]);
        wall.record(40);
        wall.record(60);
        registry.sampled_gauge("workers", "Threads.", &[], || 4);
        registry.snapshot()
    }

    #[test]
    fn prometheus_view_renders_every_kind_and_omits_empty_braces() {
        let text = render_prometheus(&snapshot());
        let families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(
            families,
            [
                "# TYPE db_info gauge",
                "# TYPE jobs_total counter",
                "# TYPE wall_us histogram",
                "# TYPE workers gauge",
            ]
        );
        for line in [
            "# HELP jobs_total Jobs run.",
            "jobs_total{device=\"v100\"} 3",
            "db_info{path=\"/tmp/a \\\"b\\\"\\\\c\"} 1",
            "wall_us_bucket{le=\"50\"} 1",
            "wall_us_bucket{le=\"+Inf\"} 2",
            "wall_us_sum 100",
            "wall_us_count 2",
            "wall_us_quantile{quantile=\"0.5\"} 40",
            "workers 4",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
        assert!(!text.contains("{}"), "{text}");
    }
}
