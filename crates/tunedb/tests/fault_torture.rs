//! Fault-injected append torture: a `tunedb.append` fault that tears a
//! record mid-write (simulating a crash, so no rollback runs) must
//! never cost more than the torn record — recovery at the next open
//! still yields the longest valid prefix and the log accepts appends
//! again.
//!
//! This complements the byte-offset truncation torture in `db.rs`
//! (which cuts a *finished* file): here the damage is injected through
//! the live write path via `an5d-fault`, covering cuts inside the
//! frame header, inside the payload, and a whole-frame near-miss.
//!
//! Lives in an integration test so the process-wide fault plan cannot
//! leak into unrelated tunedb tests; the tests here serialize on a
//! local mutex.

use an5d_fault::{uninstall, FaultAction, FaultPlan, Trigger};
use an5d_gpusim::{DeviceId, GpuDevice};
use an5d_grid::Precision;
use an5d_stencil::{suite, StencilProblem};
use an5d_tunedb::{TuneDb, TuneKey};
use an5d_tuner::{SearchSpace, Tuner, TuningResult};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

/// A plan that injects `action` into the next tune-DB append only.
fn fail_once(action: FaultAction) -> FaultPlan {
    FaultPlan::new(0).rule("tunedb.append", action, Trigger::Always, Some(1))
}

fn temp_path(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "an5d-tunedb-fault-{}-{label}-{n}.db",
        std::process::id()
    ))
}

struct TempFile(PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

fn sample(device: &str, steps: usize) -> (TuneKey, TuningResult) {
    let def = suite::j2d5pt();
    let problem = StencilProblem::new(def.clone(), &[512, 512], steps).unwrap();
    let space = SearchSpace::quick(2, Precision::Single);
    let result = Tuner::new(GpuDevice::tesla_v100())
        .tune(&def, &problem, &space)
        .unwrap();
    (
        TuneKey::for_query(&def, &problem, &DeviceId::new(device), &space, "an5d"),
        result,
    )
}

#[test]
fn torn_appends_at_every_cut_recover_the_longest_prefix() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let (key_a, result_a) = sample("v100", 50);
    let (key_b, result_b) = sample("p100", 60);

    // Cuts inside the frame header (the u32 length + u64 checksum are
    // the first 12 bytes), at the header/payload boundary, inside the
    // payload, and deep into it — every one must lose exactly the torn
    // record.
    for cut in [1usize, 4, 11, 12, 13, 40, 200, 1000] {
        let path = temp_path(&format!("cut{cut}"));
        let _cleanup = TempFile(path.clone());
        {
            let db = TuneDb::open(&path).unwrap();
            db.put(&key_a, Some("j2d5pt"), &result_a).unwrap();

            an5d_fault::install(fail_once(FaultAction::Short(cut)));
            let err = db.put(&key_b, None, &result_b).unwrap_err();
            uninstall();
            assert!(
                err.to_string().contains("injected fault at tunedb.append"),
                "cut {cut}: {err}"
            );
            // The index must stay consistent with what the log holds: the
            // torn record is not visible even on the live handle.
            assert_eq!(db.get(&key_b), None, "cut {cut}: torn record indexed");
            assert_eq!(db.get(&key_a), Some(result_a.clone()));
        }

        // Reopen: the longest valid prefix (record A) survives, the torn
        // tail is chopped and reported, and appending works again.
        let db = TuneDb::open(&path).unwrap();
        let stats = db.stats();
        assert_eq!(db.get(&key_a), Some(result_a.clone()), "cut {cut}");
        assert_eq!(stats.recovered, 1, "cut {cut}");
        assert_eq!(
            stats.truncated_bytes, cut,
            "cut {cut}: exactly the torn bytes are discarded"
        );
        db.put(&key_b, None, &result_b).unwrap();
        drop(db);

        let db = TuneDb::open(&path).unwrap();
        assert_eq!(db.get(&key_a), Some(result_a.clone()), "cut {cut}");
        assert_eq!(db.get(&key_b), Some(result_b.clone()), "cut {cut}");
        assert_eq!(db.stats().truncated_bytes, 0, "cut {cut}: clean after heal");
    }
}

#[test]
fn clean_append_failures_roll_back_and_leave_no_tail() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_path("error");
    let _cleanup = TempFile(path.clone());
    let (key_a, result_a) = sample("v100", 70);
    let (key_b, result_b) = sample("a100", 80);

    let db = TuneDb::open(&path).unwrap().sync_on_append(true);
    db.put(&key_a, None, &result_a).unwrap();

    // An `error` action fails the append before any byte is written —
    // the process survives, the rollback logic keeps the file clean.
    an5d_fault::install(fail_once(FaultAction::Error));
    assert!(db.put(&key_b, None, &result_b).is_err());
    uninstall();
    assert_eq!(db.get(&key_b), None);
    db.put(&key_b, None, &result_b).unwrap();
    drop(db);

    let db = TuneDb::open(&path).unwrap();
    let stats = db.stats();
    assert_eq!(stats.recovered, 2);
    assert_eq!(
        stats.truncated_bytes, 0,
        "no torn tail from a clean failure"
    );
    assert_eq!(db.get(&key_a), Some(result_a));
    assert_eq!(db.get(&key_b), Some(result_b));
}

#[test]
fn sync_on_append_survives_reopen_round_trips() {
    let path = temp_path("sync");
    let _cleanup = TempFile(path.clone());
    let (key, result) = sample("v100", 90);
    {
        let db = TuneDb::open(&path).unwrap().sync_on_append(true);
        db.put(&key, Some("durable"), &result).unwrap();
        assert_eq!(db.get(&key), Some(result.clone()));
    }
    let db = TuneDb::open(&path).unwrap().sync_on_append(true);
    assert_eq!(db.get(&key), Some(result), "fsynced record survives reopen");
}
