//! Tune-DB durability across server restarts: a second `an5d-serve`
//! process started against the DB written by a first one must answer
//! `/tune` for a previously-tuned key **without invoking the tuner**
//! (observed through the `/stats` tuner-invocation and DB-hit counters)
//! and with **byte-identical** response bodies; `/tune?refresh=true`
//! must bypass the stored record and force a re-tune.

use an5d::SerialBackend;
use an5d_service::{client, parse_json, Json, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

struct TempDb(PathBuf);

impl TempDb {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "an5d-service-tunedb-{label}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

fn start_server(db_path: &std::path::Path) -> Server {
    Server::start_with_backend(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 64,
            tune_db: Some(db_path.display().to_string()),
            ..ServerConfig::default()
        },
        Arc::new(SerialBackend),
    )
    .expect("bind ephemeral port")
}

/// The v100 shard's `"tunedb"` object plus the top-level one.
fn tunedb_stats(addr: SocketAddr) -> (Json, Json) {
    let (status, body) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let parsed = parse_json(&body).unwrap();
    let shard = parsed
        .get("devices")
        .and_then(|d| d.get("v100"))
        .and_then(|d| d.get("tunedb"))
        .expect("per-device tunedb stats")
        .clone();
    let top = parsed
        .get("tunedb")
        .expect("top-level tunedb stats")
        .clone();
    (shard, top)
}

fn counter(stats: &Json, key: &str) -> usize {
    stats.get(key).and_then(Json::as_usize).unwrap()
}

const TUNE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
    "device":"v100","precision":"single","space":"quick"}"#;

#[test]
fn a_restarted_server_answers_tuned_keys_from_the_db_without_the_tuner() {
    let db = TempDb::new("restart");

    // ---- First server: cold DB, the query must run the tuner. ----
    let first = start_server(&db.0);
    let addr = first.addr();
    let (shard, top) = tunedb_stats(addr);
    assert_eq!(counter(&top, "records"), 0, "DB starts empty");
    assert_eq!(counter(&shard, "warmed"), 0);

    let (status, cold_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{cold_body}");
    let (shard, top) = tunedb_stats(addr);
    assert_eq!(counter(&shard, "tuner_runs"), 1, "cold query tunes");
    assert_eq!(counter(&shard, "misses"), 1);
    assert_eq!(counter(&shard, "hits"), 0);
    assert_eq!(counter(&top, "records"), 1, "result persisted");

    // A repeat on the same process is already a DB hit.
    let (_, repeat_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(repeat_body, cold_body);
    let (shard, _) = tunedb_stats(addr);
    assert_eq!(counter(&shard, "hits"), 1);
    assert_eq!(counter(&shard, "tuner_runs"), 1, "no second search");

    let (status, _) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    first.wait();

    // ---- Second server: same DB file, fresh process. ----
    let second = start_server(&db.0);
    let addr = second.addr();
    let (shard, top) = tunedb_stats(addr);
    assert_eq!(counter(&shard, "warmed"), 1, "v100 warm-started");
    assert_eq!(counter(&top, "records"), 1);
    assert_eq!(counter(&top, "recovered"), 1);

    let (status, warm_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!(
        warm_body, cold_body,
        "a DB-served response must be byte-identical to the cold one"
    );
    let (shard, _) = tunedb_stats(addr);
    assert_eq!(
        counter(&shard, "tuner_runs"),
        0,
        "the warm server must not invoke the tuner for a stored key"
    );
    assert_eq!(counter(&shard, "hits"), 1, "answered from the DB");
    assert_eq!(counter(&shard, "misses"), 0);

    // ---- refresh=true bypasses the DB and forces a re-tune. ----
    let (status, refreshed_body) = client::post(addr, "/tune?refresh=true", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{refreshed_body}");
    assert_eq!(
        refreshed_body, cold_body,
        "tuning is deterministic: the re-tuned bytes still match"
    );
    let (shard, top) = tunedb_stats(addr);
    assert_eq!(counter(&shard, "refreshes"), 1);
    assert_eq!(
        counter(&shard, "tuner_runs"),
        1,
        "refresh re-ran the search"
    );
    assert_eq!(counter(&top, "records"), 1, "overwrite, not a new key");
    assert!(counter(&top, "appends") >= 1, "the overwrite was appended");

    let (status, _) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    second.wait();
}

#[test]
fn different_devices_tune_into_their_own_db_entries() {
    let db = TempDb::new("devices");
    let server = start_server(&db.0);
    let addr = server.addr();

    let body_for = |device: &str| {
        format!(
            r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                 "device":"{device}","precision":"single","space":"quick"}}"#
        )
    };
    let (status, v100_body) = client::post(addr, "/tune", &body_for("v100")).unwrap();
    assert_eq!(status, 200);
    let (status, p100_body) = client::post(addr, "/tune", &body_for("p100")).unwrap();
    assert_eq!(status, 200);
    assert_ne!(v100_body, p100_body, "device-specific tunings differ");

    let (_, top) = tunedb_stats(addr);
    assert_eq!(counter(&top, "records"), 2, "one record per device key");

    // Restart: each shard warms only from its own entries.
    let (status, _) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();

    let server = start_server(&db.0);
    let addr = server.addr();
    let (status, body) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let parsed = parse_json(&body).unwrap();
    for (device, expect) in [("v100", 1), ("p100", 1), ("a100", 0)] {
        let warmed = parsed
            .get("devices")
            .and_then(|d| d.get(device))
            .and_then(|d| d.get("tunedb"))
            .and_then(|t| t.get("warmed"))
            .and_then(Json::as_usize)
            .unwrap();
        assert_eq!(warmed, expect, "{device}");
    }
    // Both warmed keys answer without the tuner.
    for device in ["v100", "p100"] {
        let (status, _) = client::post(addr, "/tune", &body_for(device)).unwrap();
        assert_eq!(status, 200);
    }
    let (status, body) = client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let parsed = parse_json(&body).unwrap();
    for device in ["v100", "p100"] {
        let tunedb = parsed
            .get("devices")
            .and_then(|d| d.get(device))
            .and_then(|d| d.get("tunedb"))
            .unwrap();
        assert_eq!(counter(tunedb, "tuner_runs"), 0, "{device}");
        assert_eq!(counter(tunedb, "hits"), 1, "{device}");
    }

    let (status, _) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    server.wait();
}
