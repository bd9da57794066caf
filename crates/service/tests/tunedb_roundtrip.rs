//! Tune-DB durability across server restarts: a second `an5d-serve`
//! process started against the DB written by a first one must answer
//! `/tune` for a previously-tuned key **without invoking the tuner**
//! (observed through the `/metrics` tuner-invocation and DB-hit counters)
//! and with **byte-identical** response bodies; `/tune?refresh=true`
//! must bypass the stored record and force a re-tune.

mod common;

use an5d_service::{client, Server, ServerConfig};
use an5d_tunedb::codec::result_to_json;
use common::{metric, scrape, shutdown, TempDb};

fn start_server(db: &TempDb) -> Server {
    common::server(ServerConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: 64,
        tune_db: db.config(),
        ..ServerConfig::default()
    })
}

/// One device's tune-DB counter from a `/metrics` exposition.
fn shard(text: &str, family: &str, device: &str) -> u64 {
    metric(text, family, &[("device", device)]).unwrap_or_else(|| panic!("{family} of {device}"))
}

/// A database-wide tune-DB series from a `/metrics` exposition.
fn top(text: &str, family: &str) -> u64 {
    metric(text, family, &[]).unwrap_or_else(|| panic!("{family}"))
}

const TUNE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
    "device":"v100","precision":"single","space":"quick"}"#;

#[test]
fn a_restarted_server_answers_tuned_keys_from_the_db_without_the_tuner() {
    let db = TempDb::new("restart");

    // ---- First server: cold DB, the query must run the tuner. ----
    let first = start_server(&db);
    let addr = first.addr();
    let seen = scrape(addr);
    assert_eq!(top(&seen, "an5d_tunedb_live_records"), 0, "DB starts empty");
    assert_eq!(shard(&seen, "an5d_tunedb_warmed", "v100"), 0);

    let (status, cold_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{cold_body}");
    let seen = scrape(addr);
    assert_eq!(
        shard(&seen, "an5d_tuner_runs_total", "v100"),
        1,
        "cold query tunes"
    );
    assert_eq!(shard(&seen, "an5d_tunedb_misses_total", "v100"), 1);
    assert_eq!(shard(&seen, "an5d_tunedb_hits_total", "v100"), 0);
    assert_eq!(
        top(&seen, "an5d_tunedb_live_records"),
        1,
        "result persisted"
    );

    // A repeat on the same process is already a DB hit.
    let (_, repeat_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(repeat_body, cold_body);
    let seen = scrape(addr);
    assert_eq!(shard(&seen, "an5d_tunedb_hits_total", "v100"), 1);
    assert_eq!(
        shard(&seen, "an5d_tuner_runs_total", "v100"),
        1,
        "no second search"
    );
    shutdown(first);

    // The body is the stored result in the DB's own codec — which is why
    // a record read back renders to the bytes the fresh result did.
    let stored = an5d::TuneDb::open(&db.0).unwrap().entries();
    assert_eq!(stored.len(), 1);
    assert_eq!(result_to_json(&stored[0].result).render(), cold_body);

    // ---- Second server: same DB file, fresh process. ----
    let second = start_server(&db);
    let addr = second.addr();
    let seen = scrape(addr);
    assert_eq!(
        shard(&seen, "an5d_tunedb_warmed", "v100"),
        1,
        "v100 warm-started"
    );
    assert_eq!(top(&seen, "an5d_tunedb_live_records"), 1);
    assert_eq!(top(&seen, "an5d_tunedb_recovered_records"), 1);
    let path = db.0.display().to_string();
    assert_eq!(
        metric(&seen, "an5d_tunedb_info", &[("path", &path)]),
        Some(1),
        "the DB path is the info gauge's label"
    );

    let (status, warm_body) = client::post(addr, "/tune", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{warm_body}");
    assert_eq!(
        warm_body, cold_body,
        "a DB-served response must be byte-identical to the cold one"
    );
    let seen = scrape(addr);
    assert_eq!(
        shard(&seen, "an5d_tuner_runs_total", "v100"),
        0,
        "the warm server must not invoke the tuner for a stored key"
    );
    assert_eq!(
        shard(&seen, "an5d_tunedb_hits_total", "v100"),
        1,
        "answered from the DB"
    );
    assert_eq!(shard(&seen, "an5d_tunedb_misses_total", "v100"), 0);

    // ---- refresh=true bypasses the DB and forces a re-tune. ----
    let (status, refreshed_body) = client::post(addr, "/tune?refresh=true", TUNE_BODY).unwrap();
    assert_eq!(status, 200, "{refreshed_body}");
    assert_eq!(
        refreshed_body, cold_body,
        "tuning is deterministic: the re-tuned bytes still match"
    );
    let seen = scrape(addr);
    assert_eq!(shard(&seen, "an5d_tunedb_refreshes_total", "v100"), 1);
    assert_eq!(
        shard(&seen, "an5d_tuner_runs_total", "v100"),
        1,
        "refresh re-ran the search"
    );
    assert_eq!(
        top(&seen, "an5d_tunedb_live_records"),
        1,
        "overwrite, not a new key"
    );
    assert!(
        top(&seen, "an5d_tunedb_appends_total") >= 1,
        "the overwrite was appended"
    );
    shutdown(second);
}

#[test]
fn different_devices_tune_into_their_own_db_entries() {
    let db = TempDb::new("devices");
    let server = start_server(&db);
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

    assert_eq!(
        top(&scrape(addr), "an5d_tunedb_live_records"),
        2,
        "one record per device key"
    );

    // Restart: each shard warms only from its own entries.
    shutdown(server);

    let server = start_server(&db);
    let addr = server.addr();
    let seen = scrape(addr);
    for (device, expect) in [("v100", 1), ("p100", 1), ("a100", 0)] {
        assert_eq!(
            shard(&seen, "an5d_tunedb_warmed", device),
            expect,
            "{device}"
        );
    }
    // Both warmed keys answer without the tuner.
    for device in ["v100", "p100"] {
        let (status, _) = client::post(addr, "/tune", &body_for(device)).unwrap();
        assert_eq!(status, 200);
    }
    let seen = scrape(addr);
    for device in ["v100", "p100"] {
        assert_eq!(shard(&seen, "an5d_tuner_runs_total", device), 0, "{device}");
        assert_eq!(
            shard(&seen, "an5d_tunedb_hits_total", device),
            1,
            "{device}"
        );
    }
    shutdown(server);
}
