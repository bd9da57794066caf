//! Fleet integration test: one `an5d-serve` process fronting the
//! standard four-device fleet, driven by concurrent mixed-device
//! clients.
//!
//! The core guarantee under test is **cross-device plan sharing with
//! device-specific responses**: a plan has no device in its key, so the
//! one built for a V100 request answers the same request for a P100 from
//! the service's one cache — while the two `/predict` bodies still
//! differ, because the model reads the device profile.

mod common;

use an5d_service::{client, parse_json, ServerConfig};
use common::{server, shutdown, stat, stats};
use std::net::SocketAddr;

const DEVICES: [&str; 4] = ["a100", "p100", "small", "v100"];

/// A `/predict` body for one device and temporal blocking degree (each
/// distinct `bt` is a distinct plan-cache key).
fn predict_body(device: &str, bt: usize) -> String {
    format!(
        r#"{{"benchmark":"j2d5pt","interior":[256,256],"steps":16,"device":"{device}",
             "config":{{"bt":{bt},"bs":[64],"precision":"double"}}}}"#
    )
}

/// `(hits, misses, entries)` of the one plan cache, from `/stats`.
fn cache_stats(addr: SocketAddr) -> (u64, u64, u64) {
    let seen = stats(addr);
    let series = |family: &str| {
        stat(&seen, family, &[]).unwrap_or_else(|| panic!("/stats must report {family}"))
    };
    (
        series("an5d_plan_cache_hits_total"),
        series("an5d_plan_cache_misses_total"),
        series("an5d_plan_cache_entries"),
    )
}

#[test]
fn a_plan_built_for_one_device_is_a_hit_for_every_other() {
    const CAPACITY: u64 = 4;
    let server = server(ServerConfig {
        workers: 4,
        queue_depth: 64,
        cache_capacity: CAPACITY as usize,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // The fleet is visible before any traffic.
    let (status, body) = client::get(addr, "/devices").unwrap();
    assert_eq!(status, 200);
    let devices = parse_json(&body).unwrap();
    let listed = devices.get("devices").unwrap().as_array().unwrap().len();
    assert_eq!(listed, DEVICES.len());

    // Three plan keys, each requested once per device: the first device
    // builds, the other three hit.
    let mut bodies = Vec::new();
    for bt in 1..=3 {
        for device in DEVICES {
            let (status, response) =
                client::post(addr, "/predict", &predict_body(device, bt)).unwrap();
            assert_eq!(status, 200, "{response}");
            bodies.push(response);
        }
    }
    assert_eq!(
        cache_stats(addr),
        (3 * (DEVICES.len() as u64 - 1), 3, 3),
        "one miss and N-1 hits per key; entries = distinct plan keys"
    );
    // Same plan, different device: different prediction.
    for per_key in bodies.chunks(DEVICES.len()) {
        for (i, body) in per_key.iter().enumerate() {
            assert!(
                !per_key[..i].contains(body),
                "per-device predictions differ"
            );
        }
    }

    // Concurrent mixed-device flood of 12 distinct keys (3× capacity):
    // the one cache stays within its bound whichever device asks.
    const ROUNDS: u64 = 2;
    const KEYS: u64 = 12;
    std::thread::scope(|scope| {
        for device in DEVICES {
            scope.spawn(move || {
                let mut conn = client::KeepAliveClient::new(addr);
                for round in 0..ROUNDS {
                    for bt in 1..=KEYS as usize {
                        let (status, response) =
                            conn.post("/predict", &predict_body(device, bt)).unwrap();
                        assert_eq!(status, 200, "{device} round {round} bt {bt}: {response}");
                    }
                }
            });
        }
    });
    let (hits, misses, entries) = cache_stats(addr);
    assert_eq!(entries, CAPACITY, "capacity bound holds under the flood");
    assert!(
        misses > CAPACITY,
        "the flood overflows the cache (misses {misses})"
    );
    assert_eq!(
        hits + misses,
        (3 + ROUNDS * KEYS) * DEVICES.len() as u64,
        "every /predict is one lookup"
    );

    shutdown(server);
}

#[test]
fn device_agnostic_requests_are_routed_and_all_devices_are_tunable() {
    let server = server(ServerConfig {
        workers: 2,
        queue_depth: 32,
        cache_capacity: 64,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // /plan without a device: no device enters the response, so the
    // bytes are the same every time.
    let body = r#"{"benchmark":"star2d1r","interior":[64,64],"steps":8,
                   "config":{"bt":2,"bs":[32],"precision":"double"}}"#;
    let (status, first) = client::post(addr, "/plan", body).unwrap();
    assert_eq!(status, 200, "{first}");
    let (_, second) = client::post(addr, "/plan", body).unwrap();
    assert_eq!(first, second, "device-agnostic bytes are deterministic");

    // Every registered profile serves /tune: new devices are usable
    // without touching the API layer.
    let (_, devices_body) = client::get(addr, "/devices").unwrap();
    let listing = parse_json(&devices_body).unwrap();
    let mut tuned = 0;
    for device in listing.get("devices").unwrap().as_array().unwrap() {
        let id = device.get("id").unwrap().as_str().unwrap();
        let body = format!(
            r#"{{"benchmark":"j2d5pt","interior":[512,512],"steps":50,
                 "device":"{id}","precision":"single","space":"quick"}}"#
        );
        let (status, response) = client::post(addr, "/tune", &body).unwrap();
        assert_eq!(status, 200, "device {id}: {response}");
        assert!(response.contains("\"best\""), "device {id}: {response}");
        tuned += 1;
    }
    assert!(tuned >= 4, "tuned {tuned} devices");

    shutdown(server);
}
