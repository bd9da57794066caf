//! What the tuner's fault points do, and what its deadline error counts.
//!
//! An `error` at `tuner.candidate` drops that candidate from the ranking,
//! as a configuration that cannot run is dropped; an `error` at
//! `tuner.measure` drops that measurement, as a source that cannot run the
//! candidate does. `DeadlineExceeded { completed, total }` counts in one
//! unit per stage: candidates of the space processed by the sweep, pruned
//! or ranked, and measurements attempted by the top-k stage.
//!
//! A fault plan is process-wide, so every test here holds one lock for its
//! whole run, its fault-free baselines included.

use an5d_fault::{uninstall, Deadline, FaultAction, FaultPlan, Trigger};
use an5d_gpusim::GpuDevice;
use an5d_grid::Precision;
use an5d_plan::KernelPlan;
use an5d_stencil::{suite, StencilDef, StencilProblem};
use an5d_tuner::{
    MeasurementSource, SearchSpace, SimulatedMeasurement, TunedCandidate, Tuner, TunerError,
    TuningResult,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static GLOBAL_PLAN: Mutex<()> = Mutex::new(());

/// A plan that fails the first call at `point`.
fn fail_once(point: &str) -> FaultPlan {
    FaultPlan::new(0).rule(point, FaultAction::Error, Trigger::Always, Some(1))
}

fn problem(def: &StencilDef) -> StencilProblem {
    StencilProblem::new(def.clone(), &[128, 128], 100).unwrap()
}

/// Tune star2d1r over `space` with `plan` installed for the call.
fn tune_under(
    plan: FaultPlan,
    tuner: &Tuner,
    space: &SearchSpace,
) -> Result<TuningResult, TunerError> {
    let def = suite::star2d(1);
    an5d_fault::install(plan);
    let result = tuner.tune(&def, &problem(&def), space);
    uninstall();
    result
}

#[test]
fn an_error_at_a_candidate_drops_it_from_the_ranking() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100());
    let baseline = tune_under(FaultPlan::new(0), &tuner, &space).unwrap();
    // The first candidate (bT 1, bS 128, hS_N 256) is valid, so failing
    // it costs the ranking exactly one.
    let faulted = tune_under(fail_once("tuner.candidate"), &tuner, &space).unwrap();
    assert_eq!(faulted.ranked_candidates, baseline.ranked_candidates - 1);
    assert_eq!(faulted.total_candidates, baseline.total_candidates);
    let first = space.iter().next().unwrap();
    assert!(faulted.measured.iter().all(|c| c.config != first));
}

#[test]
fn an_error_at_a_measurement_drops_that_measurement() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let space = SearchSpace::quick(2, Precision::Single);
    let tuner = Tuner::new(GpuDevice::tesla_v100());
    let baseline = tune_under(FaultPlan::new(0), &tuner, &space).unwrap();
    let faulted = tune_under(fail_once("tuner.measure"), &tuner, &space).unwrap();
    assert_eq!(faulted.measured.len(), baseline.measured.len() - 1);
    assert_eq!(faulted.ranked_candidates, baseline.ranked_candidates);
    // The others are measured as before.
    assert!(faulted
        .measured
        .iter()
        .all(|c| baseline.measured.contains(c)));
}

#[test]
fn a_sweep_deadline_counts_pruned_candidates_as_processed() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    // star2d1r: at bT 4 the halo 2·4·1 = 8 leaves no compute region in a
    // block of 8, so the first two candidates are pruned; bT 1 and 2 fit.
    let space = SearchSpace::new(
        vec![4, 1, 2],
        vec![vec![8]],
        vec![Some(32), Some(64)],
        Precision::Single,
    );
    let tuner = Tuner::new(GpuDevice::tesla_v100());
    let baseline = tune_under(FaultPlan::new(0), &tuner, &space).unwrap();
    assert_eq!(baseline.total_candidates, 6);
    assert_eq!(baseline.ranked_candidates, 4);

    // The third candidate is stretched past the whole budget: the
    // checkpoint after it trips with the two pruned candidates done.
    let def = suite::star2d(1);
    an5d_fault::install(FaultPlan::new(0).rule(
        "tuner.candidate",
        FaultAction::Delay(Duration::from_millis(300)),
        Trigger::every(3),
        Some(1),
    ));
    let deadline = Deadline::after(Duration::from_millis(100)).install();
    let result = tuner.tune(&def, &problem(&def), &space);
    drop(deadline);
    uninstall();
    assert_eq!(
        result.unwrap_err(),
        TunerError::DeadlineExceeded {
            completed: 2,
            total: 6
        }
    );
}

/// The simulated source, except that it cannot run the first candidate
/// it is given and takes `stall` over the second.
#[derive(Debug)]
struct FirstFailsSecondStalls {
    calls: AtomicUsize,
    stall: Duration,
}

impl MeasurementSource for FirstFailsSecondStalls {
    fn is_measured(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        "first fails, second stalls".to_string()
    }

    fn measure_candidate(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        device: &GpuDevice,
        predicted_gflops: f64,
    ) -> Option<TunedCandidate> {
        match self.calls.fetch_add(1, Ordering::Relaxed) {
            0 => return None,
            1 => std::thread::sleep(self.stall),
            _ => {}
        }
        SimulatedMeasurement.measure_candidate(plan, problem, device, predicted_gflops)
    }
}

#[test]
fn a_top_k_deadline_counts_measurements_attempted() {
    let _global = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let def = suite::star2d(1);
    let space = SearchSpace::quick(2, Precision::Single);
    let source = Arc::new(FirstFailsSecondStalls {
        calls: AtomicUsize::new(0),
        stall: Duration::from_millis(400),
    });
    let tuner = Tuner::new(GpuDevice::tesla_v100())
        .with_top_k(5)
        .with_measurement_source(source);
    // The sweep takes well under the budget; the second measurement
    // overruns it, so the checkpoint before the third trips with two
    // attempted, of which one measured.
    let deadline = Deadline::after(Duration::from_millis(200)).install();
    let result = tuner.tune(&def, &problem(&def), &space);
    drop(deadline);
    assert_eq!(
        result.unwrap_err(),
        TunerError::DeadlineExceeded {
            completed: 2,
            total: 5
        }
    );
}
