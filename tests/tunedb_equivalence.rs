//! Equivalence of cold-tuned and DB-warmed tuning results across the
//! whole device registry: persisting a `TuningResult` and reading it
//! back must change *nothing* — not the chosen configuration, not a
//! single `f64`, not the generated kernel name, not the executed grid.

use an5d::{
    kernel_name_for, An5d, BatchDriver, BatchJob, DeviceId, GridInit, Precision, SearchSpace,
    SerialBackend, TuneDb,
};
use std::sync::Arc;

struct TempDb(std::path::PathBuf);

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

fn temp_db(label: &str) -> TempDb {
    let path = std::env::temp_dir().join(format!(
        "an5d-equivalence-{label}-{}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    TempDb(path)
}

#[test]
fn cold_and_db_warmed_results_are_bit_identical_across_the_registry() {
    let db_file = temp_db("registry");
    let registry = an5d::standard_registry();
    let an5d = An5d::benchmark("j2d5pt").unwrap();
    let problem = an5d.problem(&[512, 512], 50).unwrap();
    let space = SearchSpace::quick(2, Precision::Single);

    // Phase 1: tune cold on every registered device, persisting as we go.
    let mut cold = Vec::new();
    {
        let db = TuneDb::open(&db_file.0).unwrap();
        for (id, device) in registry.devices() {
            let outcome = an5d
                .tune_with_db(&problem, id, device, &space, &db, false)
                .unwrap();
            assert!(!outcome.from_db, "{id}: first tune must run the search");
            cold.push((id.clone(), outcome.result));
        }
        assert_eq!(db.len(), registry.len(), "one record per device");
    }

    // Phase 2: a fresh handle (simulating a new process) must hand back
    // every result untouched.
    let db = TuneDb::open(&db_file.0).unwrap();
    assert_eq!(db.stats().recovered, registry.len());
    for (id, cold_result) in &cold {
        let device = registry.get(id).unwrap();
        let warmed = an5d
            .tune_with_db(&problem, id, device, &space, &db, false)
            .unwrap();
        assert!(warmed.from_db, "{id}: second process must hit the DB");
        assert_eq!(
            &warmed.result, cold_result,
            "{id}: every field (configs, caps, f64 scores) must survive the disk round-trip"
        );

        // The chosen configuration plans to the same kernel name…
        let cold_plan = an5d.plan(&problem, &cold_result.best.config).unwrap();
        let warm_plan = an5d.plan(&problem, &warmed.result.best.config).unwrap();
        assert_eq!(
            kernel_name_for(&cold_plan),
            kernel_name_for(&warm_plan),
            "{id}"
        );

        // …and executes to the identical grid (same tuned config, a
        // test-sized run).
        let execute = |config: &an5d::BlockConfig| {
            let job = BatchJob::new(an5d.def().clone(), &[256, 256], 4, *config)
                .with_init(GridInit::Hash { seed: 0x5EED });
            BatchDriver::new(Arc::new(SerialBackend))
                .run_job(&job)
                .unwrap()
        };
        let cold_run = execute(&cold_result.best.config);
        let warm_run = execute(&warmed.result.best.config);
        assert_eq!(cold_run.checksum, warm_run.checksum, "{id}: grids differ");
        assert_eq!(cold_run.counters, warm_run.counters, "{id}");
    }

    // Distinct devices genuinely tuned to device-specific entries: the
    // stored keys differ even for the same stencil/problem/space.
    let v100_key = an5d.tune_key(&problem, &DeviceId::new("v100"), &space);
    let p100_key = an5d.tune_key(&problem, &DeviceId::new("p100"), &space);
    assert_ne!(v100_key, p100_key);
    assert!(db.get(&v100_key).is_some());
    assert!(db.get(&p100_key).is_some());
}

#[test]
fn the_db_never_leaks_results_across_lookup_axes() {
    let db_file = temp_db("axes");
    let db = TuneDb::open(&db_file.0).unwrap();
    let registry = an5d::standard_registry();
    let an5d = An5d::benchmark("j2d5pt").unwrap();
    let problem = an5d.problem(&[512, 512], 50).unwrap();
    let space = SearchSpace::quick(2, Precision::Single);
    let (id, device) = registry.resolve("v100").unwrap();

    an5d.tune_with_db(&problem, &id, device, &space, &db, false)
        .unwrap();

    // Same device, different problem → miss.
    let other_problem = an5d.problem(&[512, 512], 100).unwrap();
    assert!(db
        .get(&an5d.tune_key(&other_problem, &id, &space))
        .is_none());
    // Same problem, different device → miss.
    assert!(db
        .get(&an5d.tune_key(&problem, &DeviceId::new("a100"), &space))
        .is_none());
    // Same everything, different space → miss.
    let paper = SearchSpace::paper(2, Precision::Single);
    assert!(db.get(&an5d.tune_key(&problem, &id, &paper)).is_none());
    // A different stencil with the same problem shape → miss.
    let other = An5d::benchmark("j2d9pt").unwrap();
    let other_problem = other.problem(&[512, 512], 50).unwrap();
    assert!(db
        .get(&other.tune_key(&other_problem, &id, &space))
        .is_none());
    // The exact original key → hit.
    assert!(db.get(&an5d.tune_key(&problem, &id, &space)).is_some());
}
