//! Rendering for the observability endpoints: the Prometheus text
//! exposition behind `GET /metrics` and the trace JSON behind
//! `GET /trace`.

use crate::handlers::ServiceState;
use crate::json::Json;
use an5d_obs::{FinishedTrace, HistogramSnapshot};
use std::fmt::Write as _;

/// Cumulative `le` bucket edges for latency histograms, microseconds.
/// Chosen to bracket everything from a cache-hit `/stats` (tens of µs)
/// to a cold paper-scale `/tune` (seconds).
const LE_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Quantiles exported per latency series.
const QUANTILES: &[(&str, f64)] = &[
    ("0.5", 0.5),
    ("0.95", 0.95),
    ("0.99", 0.99),
    ("0.999", 0.999),
];

/// Append one histogram as Prometheus `_bucket`/`_sum`/`_count` lines
/// plus a companion `<name>_quantile` gauge series.
fn render_histogram(out: &mut String, name: &str, label: &str, snapshot: &HistogramSnapshot) {
    for &bound in LE_BUCKETS_US {
        let _ = writeln!(
            out,
            "{name}_bucket{{{label}le=\"{bound}\"}} {}",
            snapshot.count_le(bound)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{label}le=\"+Inf\"}} {}",
        snapshot.count()
    );
    let _ = writeln!(
        out,
        "{name}_sum{{{label_trimmed}}} {}",
        snapshot.sum(),
        label_trimmed = label.trim_end_matches(',')
    );
    let _ = writeln!(
        out,
        "{name}_count{{{label_trimmed}}} {}",
        snapshot.count(),
        label_trimmed = label.trim_end_matches(',')
    );
    for (text, q) in QUANTILES {
        let _ = writeln!(
            out,
            "{name}_quantile{{{label}quantile=\"{text}\"}} {}",
            snapshot.quantile(*q)
        );
    }
}

/// Render the full `/metrics` exposition for the service.
#[must_use]
pub fn render_prometheus(state: &ServiceState) -> String {
    let mut out = String::new();

    // Per-endpoint request latency histograms and counters.
    out.push_str("# HELP an5d_request_latency_us Handler latency by endpoint, microseconds.\n");
    out.push_str("# TYPE an5d_request_latency_us histogram\n");
    let snapshots = state.metrics().snapshots();
    for (path, _, histogram) in &snapshots {
        render_histogram(
            &mut out,
            "an5d_request_latency_us",
            &format!("endpoint=\"{path}\","),
            histogram,
        );
    }
    out.push_str("# HELP an5d_requests_total Requests dispatched, by endpoint.\n");
    out.push_str("# TYPE an5d_requests_total counter\n");
    for (path, stats, _) in &snapshots {
        let _ = writeln!(
            out,
            "an5d_requests_total{{endpoint=\"{path}\"}} {}",
            stats.count
        );
    }
    out.push_str("# HELP an5d_request_errors_total Non-2xx responses, by endpoint.\n");
    out.push_str("# TYPE an5d_request_errors_total counter\n");
    for (path, stats, _) in &snapshots {
        let _ = writeln!(
            out,
            "an5d_request_errors_total{{endpoint=\"{path}\"}} {}",
            stats.errors
        );
    }
    // backend.execute latency per backend (fed by the metered backend
    // wrappers; empty until the first /execute).
    let backend_snapshots = state.metrics().backend_snapshots();
    out.push_str(
        "# HELP an5d_backend_execute_us backend.execute latency by backend, microseconds.\n",
    );
    out.push_str("# TYPE an5d_backend_execute_us histogram\n");
    for (name, _, histogram) in &backend_snapshots {
        render_histogram(
            &mut out,
            "an5d_backend_execute_us",
            &format!("backend=\"{name}\","),
            histogram,
        );
    }
    out.push_str("# HELP an5d_backend_executes_total backend.execute calls, by backend.\n");
    out.push_str("# TYPE an5d_backend_executes_total counter\n");
    for (name, stats, _) in &backend_snapshots {
        let _ = writeln!(
            out,
            "an5d_backend_executes_total{{backend=\"{name}\"}} {}",
            stats.count
        );
    }

    // Streaming: per-endpoint chunk/byte counters and the
    // time-to-first-byte histogram (empty until the first streamed
    // response — `?stream=1` on /codegen or /execute, or /batch).
    let stream_snapshots = state.metrics().stream_snapshots();
    out.push_str("# HELP an5d_streams_total Streamed responses started, by endpoint.\n");
    out.push_str("# TYPE an5d_streams_total counter\n");
    for (path, snap) in &stream_snapshots {
        let _ = writeln!(
            out,
            "an5d_streams_total{{endpoint=\"{path}\"}} {}",
            snap.streams
        );
    }
    out.push_str(
        "# HELP an5d_stream_chunks_total Chunks produced on streamed responses, by endpoint.\n",
    );
    out.push_str("# TYPE an5d_stream_chunks_total counter\n");
    for (path, snap) in &stream_snapshots {
        let _ = writeln!(
            out,
            "an5d_stream_chunks_total{{endpoint=\"{path}\"}} {}",
            snap.chunks
        );
    }
    out.push_str(
        "# HELP an5d_stream_bytes_total Payload bytes streamed (before chunked framing), by endpoint.\n",
    );
    out.push_str("# TYPE an5d_stream_bytes_total counter\n");
    for (path, snap) in &stream_snapshots {
        let _ = writeln!(
            out,
            "an5d_stream_bytes_total{{endpoint=\"{path}\"}} {}",
            snap.bytes
        );
    }
    out.push_str(
        "# HELP an5d_stream_ttfb_us Handler start to first streamed chunk, microseconds.\n",
    );
    out.push_str("# TYPE an5d_stream_ttfb_us histogram\n");
    for (path, snap) in &stream_snapshots {
        render_histogram(
            &mut out,
            "an5d_stream_ttfb_us",
            &format!("endpoint=\"{path}\","),
            &snap.ttfb,
        );
    }

    out.push_str("# HELP an5d_rejected_connections_total Requests shed by admission control.\n");
    out.push_str("# TYPE an5d_rejected_connections_total counter\n");
    let _ = writeln!(
        out,
        "an5d_rejected_connections_total {}",
        state.metrics().rejected()
    );

    // Deadline and durability-degradation counters (the robustness
    // layer: x-an5d-deadline-ms handling and tune-DB append failures).
    for (metric, help, value) in [
        (
            "an5d_deadline_shed_total",
            "Requests shed with 503 at admission for an already-expired deadline.",
            state.metrics().deadline_shed(),
        ),
        (
            "an5d_deadline_expired_total",
            "Requests answered 504 after their deadline expired mid-processing.",
            state.metrics().deadline_expired(),
        ),
        (
            "an5d_tunedb_append_failures_total",
            "Tune results served but not persisted (append to the tune DB failed).",
            state.metrics().tunedb_append_failures(),
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }

    // Connection layer: reactor gauges and loop-latency histogram.
    let conns = state.metrics().connections().snapshot();
    for (metric, help, kind, value) in [
        (
            "an5d_connections_open",
            "Currently open client connections.",
            "gauge",
            conns.open,
        ),
        (
            "an5d_connections_parked",
            "Open connections idle between requests (parked in the reactor).",
            "gauge",
            conns.parked,
        ),
        (
            "an5d_connections_active",
            "Open connections reading, executing, or writing a request.",
            "gauge",
            conns.active(),
        ),
        (
            "an5d_connections_accepted_total",
            "Connections accepted since startup.",
            "counter",
            conns.accepted,
        ),
        (
            "an5d_connections_closed_total",
            "Connections closed since startup.",
            "counter",
            conns.closed,
        ),
        (
            "an5d_connections_aborted",
            "Connections that died mid-request or mid-response (truncated \
             head or body, or a response that failed while draining).",
            "counter",
            conns.aborted,
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(out, "# TYPE {metric} {kind}");
        let _ = writeln!(out, "{metric} {value}");
    }
    out.push_str(
        "# HELP an5d_reactor_loop_us Reactor loop busy time per iteration, microseconds.\n",
    );
    out.push_str("# TYPE an5d_reactor_loop_us histogram\n");
    render_histogram(
        &mut out,
        "an5d_reactor_loop_us",
        "",
        &state.metrics().connections().loop_snapshot(),
    );

    // Fleet: per-device request and tune-DB counters, the one plan cache.
    out.push_str("# HELP an5d_shard_requests_total Requests counted on each device shard.\n");
    out.push_str("# TYPE an5d_shard_requests_total counter\n");
    for shard in state.fleet().shards() {
        let stats = shard.stats();
        let id = shard.id().as_str();
        let _ = writeln!(
            out,
            "an5d_shard_requests_total{{device=\"{id}\"}} {}",
            stats.requests
        );
    }
    out.push_str("# HELP an5d_shard_errors_total Failed requests per device shard.\n");
    out.push_str("# TYPE an5d_shard_errors_total counter\n");
    for shard in state.fleet().shards() {
        let id = shard.id().as_str();
        let _ = writeln!(
            out,
            "an5d_shard_errors_total{{device=\"{id}\"}} {}",
            shard.stats().errors
        );
    }
    let cache = state.fleet().aggregate_cache_stats();
    for (metric, help, kind, value) in [
        (
            "an5d_plan_cache_hits_total",
            "Plan-cache lookups answered without building.",
            "counter",
            cache.hits,
        ),
        (
            "an5d_plan_cache_misses_total",
            "Plan-cache lookups that built a plan.",
            "counter",
            cache.misses,
        ),
        (
            "an5d_plan_cache_entries",
            "Plans currently cached.",
            "gauge",
            cache.entries as u64,
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(out, "# TYPE {metric} {kind}");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (metric, help, pick) in [
        (
            "an5d_tunedb_hits_total",
            "/tune queries answered from the persisted DB.",
            0usize,
        ),
        (
            "an5d_tunedb_misses_total",
            "/tune queries that missed the DB and ran the tuner.",
            1,
        ),
        (
            "an5d_tunedb_refreshes_total",
            "/tune?refresh=true overwrites.",
            2,
        ),
        (
            "an5d_tunedb_warmed",
            "DB entries each shard warm-started from.",
            3,
        ),
        (
            "an5d_tuner_runs_total",
            "Tuner search invocations per shard.",
            4,
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(
            out,
            "# TYPE {metric} {}",
            if metric.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            }
        );
        for shard in state.fleet().shards() {
            let stats = shard.tunedb_stats();
            let value = match pick {
                0 => stats.hits,
                1 => stats.misses,
                2 => stats.refreshes,
                3 => stats.warmed,
                _ => stats.tuner_runs,
            };
            let _ = writeln!(
                out,
                "{metric}{{device=\"{}\"}} {value}",
                shard.id().as_str()
            );
        }
    }
    if let Some(db) = state.fleet().tune_db() {
        let stats = db.stats();
        out.push_str("# HELP an5d_tunedb_live_records Distinct keys stored in the tune DB.\n");
        out.push_str("# TYPE an5d_tunedb_live_records gauge\n");
        let _ = writeln!(out, "an5d_tunedb_live_records {}", stats.live);
        out.push_str("# HELP an5d_tunedb_stale_records Superseded records awaiting compaction.\n");
        out.push_str("# TYPE an5d_tunedb_stale_records gauge\n");
        let _ = writeln!(out, "an5d_tunedb_stale_records {}", stats.stale);
        out.push_str("# HELP an5d_tunedb_appends_total Records appended through this handle.\n");
        out.push_str("# TYPE an5d_tunedb_appends_total counter\n");
        let _ = writeln!(out, "an5d_tunedb_appends_total {}", stats.appends);
        out.push_str("# HELP an5d_tunedb_compactions_total Log rewrites performed.\n");
        out.push_str("# TYPE an5d_tunedb_compactions_total counter\n");
        let _ = writeln!(out, "an5d_tunedb_compactions_total {}", stats.compactions);
    }

    // Shared worker pool: gauges plus batch-wall and queue-wait
    // histograms from the runtime crate.
    let pool = an5d::global_pool();
    let stats = pool.stats();
    for (metric, help, kind, value) in [
        (
            "an5d_pool_workers",
            "Persistent pool worker threads.",
            "gauge",
            stats.workers as u64,
        ),
        (
            "an5d_pool_queued_batches",
            "Batches registered with unclaimed work.",
            "gauge",
            stats.queued_batches as u64,
        ),
        (
            "an5d_pool_items_executed_total",
            "Items executed by completed batches.",
            "counter",
            stats.items_executed,
        ),
        (
            "an5d_pool_batches_executed_total",
            "Batches fully completed.",
            "counter",
            stats.batches_executed,
        ),
    ] {
        let _ = writeln!(out, "# HELP {metric} {help}");
        let _ = writeln!(out, "# TYPE {metric} {kind}");
        let _ = writeln!(out, "{metric} {value}");
    }
    out.push_str("# HELP an5d_pool_batch_wall_us Completed-batch wall time, microseconds.\n");
    out.push_str("# TYPE an5d_pool_batch_wall_us histogram\n");
    render_histogram(
        &mut out,
        "an5d_pool_batch_wall_us",
        "",
        &pool.batch_wall_snapshot(),
    );
    out.push_str(
        "# HELP an5d_pool_queue_wait_us Batch publication to first helper claim, microseconds.\n",
    );
    out.push_str("# TYPE an5d_pool_queue_wait_us histogram\n");
    render_histogram(
        &mut out,
        "an5d_pool_queue_wait_us",
        "",
        &pool.queue_wait_snapshot(),
    );

    // Trace ring occupancy.
    out.push_str("# HELP an5d_trace_ring_size Completed traces currently retained.\n");
    out.push_str("# TYPE an5d_trace_ring_size gauge\n");
    let _ = writeln!(out, "an5d_trace_ring_size {}", state.traces().len());

    out
}

/// Summary JSON for `GET /trace`: the retained traces, oldest first.
#[must_use]
pub fn traces_summary(state: &ServiceState) -> Json {
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
pub fn trace_detail(trace: &FinishedTrace) -> Json {
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
