//! Tuner deadline checkpoints: an expired budget must abort the tune
//! cleanly — before building a single plan when the budget is already
//! gone at entry, and without ever returning a winner ranked over a
//! partial sweep when it expires mid-flight.
//!
//! This lives in an integration test (its own process) because the
//! mid-sweep cases install a process-wide fault plan to stretch
//! candidates deterministically; the plan-installing tests serialize
//! on a local mutex so their rules never interleave.

use an5d_fault::{uninstall, Deadline, FaultPlan};
use an5d_gpusim::GpuDevice;
use an5d_grid::Precision;
use an5d_stencil::{suite, StencilDef, StencilProblem};
use an5d_tuner::{SearchSpace, Tuner, TunerError};
use std::sync::Mutex;
use std::time::Duration;

static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

fn problem(def: &StencilDef) -> StencilProblem {
    StencilProblem::new(def.clone(), &[128, 128], 100).unwrap()
}

#[test]
fn zero_budget_returns_deadline_error_without_building_a_single_plan() {
    let def = suite::star2d(1);
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100());

    let trace = an5d_obs::ActiveTrace::begin();
    let _deadline = Deadline::in_ms(0).install();
    let err = tuner.tune(&def, &problem(&def), &space).unwrap_err();
    match err {
        TunerError::DeadlineExceeded { completed, total } => {
            assert_eq!(completed, 0, "no candidate may complete on a 0ms budget");
            assert_eq!(total, space.len());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let trace = trace.finish();
    assert!(
        trace.spans.iter().all(|span| span.name != "plan.build"),
        "an expired budget must not build a single KernelPlan"
    );
    assert_eq!(trace.dropped, 0);
}

#[test]
fn mid_sweep_expiry_never_returns_a_partially_ranked_winner() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let def = suite::star2d(1);
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100());

    // Stretch every ranking candidate by 30ms under a 10ms budget: no
    // matter how the pool interleaves candidates, the budget is gone
    // before any sleeper finishes, so the sweep is interrupted partway
    // and must surface as an error — never as a winner ranked over
    // whatever subset happened to finish.
    an5d_fault::install(FaultPlan::parse("tuner.candidate=delay:30").unwrap());
    let _deadline = Deadline::after(Duration::from_millis(10)).install();
    let result = tuner.tune(&def, &problem(&def), &space);
    uninstall();
    match result {
        Err(TunerError::DeadlineExceeded { completed, total }) => {
            assert!(
                completed < total,
                "an interrupted sweep must report partial progress ({completed}/{total})"
            );
        }
        Ok(r) => panic!(
            "mid-sweep expiry returned a winner ranked over {} of {} candidates",
            r.ranked_candidates, r.total_candidates
        ),
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn expiry_between_topk_measurements_aborts_with_partial_progress() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let def = suite::star2d(1);
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100()).with_top_k(5);

    // A budget generous enough for the ranking sweep, with every
    // top-k measurement stretched past the *whole* budget: the
    // checkpoint between candidates must trip before a second
    // measurement starts, and the partial measurements must surface as
    // an error, not a winner.
    an5d_fault::install(FaultPlan::parse("tuner.measure=delay:400").unwrap());
    let _deadline = Deadline::after(Duration::from_millis(300)).install();
    let result = tuner.tune(&def, &problem(&def), &space);
    uninstall();
    match result {
        Err(TunerError::DeadlineExceeded { completed, total }) => {
            assert!(
                completed < total,
                "partial progress must be partial ({completed}/{total})"
            );
        }
        Ok(_) => panic!("expiry between measurements returned a winner"),
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn without_a_deadline_the_tuner_is_unaffected() {
    let def = suite::star2d(1);
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100());
    let result = tuner.tune(&def, &problem(&def), &space).unwrap();
    assert!(result.best.measured_gflops > 0.0);
}
