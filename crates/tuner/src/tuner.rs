//! The model-guided tuning flow of Section 6.3.
//!
//! The paper tunes by model because a candidate's geometry, resources and
//! traffic are closed-form, so ranking hundreds of them costs next to
//! nothing. Here a candidate costs a few multiplies and one run of the §5
//! formula, and the sweep builds no plan. It walks the space's axes
//! `bT → bS → hS_N` and does each piece of work at the level that owns it:
//!
//! * once per `(bT, bS)`: validity — the blocked geometry
//!   ([`BlockConfig::blocked_geometry`], a `PlanError` drops the pair) and
//!   the §6.3 register rule on the pair's [`ResourceUsage`] — and the
//!   blocked dimensions' tile sums;
//! * once per `(bT, hS_N)`: the streaming dimension's tile sums;
//! * per candidate: [`an5d_model::price`] on the sums put together, with a
//!   deadline checkpoint and the `tuner.candidate` fault point before it.
//!
//! The sweep runs inline on the calling thread, in candidate order, and
//! keeps the best k `(BlockConfig, score)` pairs in a k-slot buffer; only
//! those k are built as plans and measured: simulated on the device under
//! every register cap ([`an5d_model::measure_best_cap`]).

use an5d_fault::FaultAction;
use an5d_gpusim::GpuDevice;
use an5d_model::{measure_best_cap, price, PlanSums, StencilCost, TileSums};
use an5d_plan::{
    BlockConfig, FrameworkScheme, KernelPlan, OptimizationClass, RegisterCap, ResourceUsage,
};
use an5d_stencil::{StencilDef, StencilProblem};
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

use crate::SearchSpace;

/// How many model-ranked candidates are actually "run" (simulated); the
/// paper uses the top 5.
const DEFAULT_TOP_K: usize = 5;

/// Descending, NaN-safe score comparison for candidate ranking.
///
/// Built on [`f64::total_cmp`] so the sort is a total order even when a
/// prediction or measurement goes NaN; NaN is additionally mapped *below*
/// every real score (including −∞), so a poisoned candidate can never
/// out-rank a finite one or scramble the order of its neighbours the way
/// `partial_cmp(..).unwrap_or(Equal)` silently did.
fn cmp_scores_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// The best k `(config, score)` pairs offered so far, best first in
/// [`cmp_scores_desc`] order. Among equal scores the pair offered first
/// stays ahead, so the slots hold what a stable sort of every offer would
/// put first.
#[derive(Debug)]
struct TopK {
    slots: Vec<(BlockConfig, f64)>,
    k: usize,
}

impl TopK {
    /// Room for `k` pairs (k ≥ 1), allocated for at most `offers`.
    fn new(k: usize, offers: usize) -> Self {
        Self {
            slots: Vec::with_capacity(k.min(offers)),
            k,
        }
    }

    fn offer(&mut self, config: BlockConfig, score: f64) {
        let ranks_ahead = |a: f64, b: f64| cmp_scores_desc(a, b) == Ordering::Less;
        if self.slots.len() < self.k {
            self.slots.push((config, score));
        } else if ranks_ahead(score, self.slots[self.k - 1].1) {
            self.slots[self.k - 1] = (config, score);
        } else {
            return;
        }
        // Up past every kept pair it ranks strictly ahead of.
        let mut at = self.slots.len() - 1;
        while at > 0 && ranks_ahead(score, self.slots[at - 1].1) {
            self.slots.swap(at, at - 1);
            at -= 1;
        }
    }
}

/// Errors produced by the tuner.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TunerError {
    /// No candidate in the search space was valid for the stencil/problem
    /// after pruning.
    NoFeasibleCandidate,
    /// The caller's deadline expired mid-tune. The run aborts cleanly
    /// rather than returning a winner ranked over a partial sweep;
    /// `completed`/`total` report how far the interrupted stage got.
    DeadlineExceeded {
        /// Candidates the interrupted stage had processed: in the ranking
        /// sweep every candidate of the space, pruned or ranked; in the
        /// top-k stage every measurement attempted.
        completed: usize,
        /// Candidates the interrupted stage was asked to process: the
        /// space's size, or the number of top-k measurements.
        total: usize,
    },
}

impl fmt::Display for TunerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunerError::NoFeasibleCandidate => {
                write!(
                    f,
                    "no feasible blocking configuration found in the search space"
                )
            }
            TunerError::DeadlineExceeded { completed, total } => {
                write!(
                    f,
                    "tuning deadline exceeded after {completed}/{total} candidates"
                )
            }
        }
    }
}

impl Error for TunerError {}

/// One fully evaluated candidate configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TunedCandidate {
    /// The blocking configuration.
    pub config: BlockConfig,
    /// The register cap of Section 6.3 (no limit, 32, 64 or 96 registers
    /// per thread) under which the simulated run was fastest.
    pub register_cap: RegisterCap,
    /// Performance predicted by the Section 5 model (GFLOP/s).
    pub predicted_gflops: f64,
    /// Measured performance (GFLOP/s): the `gpusim` simulation of the
    /// target GPU under `register_cap` (`an5d_model::measure_best_cap`).
    pub measured_gflops: f64,
    /// Measured performance (GCell/s) of the same simulated run.
    pub measured_gcells: f64,
    /// Simulated kernel time (seconds) of the same run.
    pub seconds: f64,
}

impl TunedCandidate {
    /// Model accuracy for this candidate: measured over predicted
    /// performance (the paper's Section 7.2 metric).
    ///
    /// This compares the Section 5 analytic model against the `gpusim`
    /// simulation; both describe the same GPU, so the paper's 0.2–1.0
    /// band applies.
    #[must_use]
    pub fn model_accuracy(&self) -> f64 {
        if self.predicted_gflops <= 0.0 {
            return 0.0;
        }
        self.measured_gflops / self.predicted_gflops
    }
}

/// Result of a tuning run: the winner plus every candidate that was
/// actually measured (the model-ranked top-k).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TuningResult {
    /// The configuration with the best measured performance.
    pub best: TunedCandidate,
    /// All measured candidates, sorted by measured performance
    /// (best first).
    pub measured: Vec<TunedCandidate>,
    /// Number of candidates surviving validity/register pruning and ranked
    /// by the model.
    pub ranked_candidates: usize,
    /// Number of raw combinations in the search space.
    pub total_candidates: usize,
}

/// The Section 6.3 tuner: prune → rank by model → measure top-k → pick best.
#[derive(Debug, Clone)]
pub struct Tuner {
    device: GpuDevice,
    scheme: FrameworkScheme,
    top_k: usize,
}

impl Tuner {
    /// Create a tuner for a device, using the AN5D scheme. The precision
    /// tuned for is the search space's (see [`Tuner::tune`]).
    #[must_use]
    pub fn new(device: GpuDevice) -> Self {
        Self {
            device,
            scheme: FrameworkScheme::an5d(),
            top_k: DEFAULT_TOP_K,
        }
    }

    /// Use a different framework scheme (e.g. STENCILGEN for comparisons).
    #[must_use]
    pub fn with_scheme(mut self, scheme: FrameworkScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Change how many model-ranked candidates are measured (default 5).
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// The device this tuner targets.
    #[must_use]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// The Section 6.3 register heuristic on a configuration's
    /// [`ResourceUsage`]: the expected per-thread register demand must not
    /// exceed 255 registers per thread or the 65,536-register SM budget.
    fn survives_register_pruning(&self, resources: &ResourceUsage, nthr: usize) -> bool {
        let regs = resources.registers_per_thread;
        if regs > self.device.max_registers_per_thread {
            return false;
        }
        regs * nthr <= self.device.registers_per_sm
    }

    /// What `(bT, bS)` decide for every `hS_N`: `None` when the pair
    /// cannot run on the problem (a `PlanError`: wrong blocked rank, or a
    /// halo that leaves no compute region) or fails the register
    /// heuristic, else the stencil's costs and the blocked dimensions'
    /// tile sums. `head` is the pair with any `hS_N`.
    fn blocked_part(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        class: OptimizationClass,
        head: &BlockConfig,
    ) -> Option<(StencilCost, TileSums)> {
        let blocked = head.blocked_geometry(problem).ok()?;
        let resources = ResourceUsage::compute(head, def.radius(), class, self.scheme);
        if !self.survives_register_pruning(&resources, head.nthr()) {
            return None;
        }
        Some((
            StencilCost::new(def, &resources),
            TileSums::product(blocked.tilings()),
        ))
    }

    /// Run the full tuning flow for a stencil and problem.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NoFeasibleCandidate`] when pruning removes every
    /// candidate or none of the measured candidates can execute on the
    /// device, and [`TunerError::DeadlineExceeded`] when the installed
    /// [`an5d_fault::Deadline`] runs out mid-tune (checkpointed before
    /// every candidate, so an expired budget never builds a plan and a
    /// mid-sweep expiry never yields a partially-ranked winner).
    pub fn tune(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        space: &SearchSpace,
    ) -> Result<TuningResult, TunerError> {
        let total_candidates = space.len();
        // Admission checkpoint: a budget that is already gone must not
        // build a single plan.
        if an5d_fault::deadline_expired() {
            return Err(TunerError::DeadlineExceeded {
                completed: 0,
                total: total_candidates,
            });
        }

        // Step 1: rank every valid candidate with the Section 5 model.
        let sweep_span = an5d_obs::Span::enter("tuner.rank_sweep");
        let (ranked_candidates, shortlist) = self.rank(def, problem, space)?;
        drop(sweep_span);
        if ranked_candidates == 0 {
            return Err(TunerError::NoFeasibleCandidate);
        }

        // Step 2: "run" the model-ranked top-k: simulate each on the
        // device under every register cap and keep its fastest run. These
        // are the only plans a tune builds.
        let _measure_span = an5d_obs::Span::enter("tuner.measure_topk");
        let measure_count = shortlist.len();
        let mut measured: Vec<TunedCandidate> = Vec::with_capacity(measure_count);
        for (attempted, (config, predicted_gflops)) in shortlist.into_iter().enumerate() {
            // Checkpoint between top-k measurements: abort with the
            // partial count rather than measuring past the budget.
            if an5d_fault::deadline_expired() {
                return Err(TunerError::DeadlineExceeded {
                    completed: attempted,
                    total: measure_count,
                });
            }
            // Fault point stretching one candidate's measurement, so tests
            // can trip the checkpoint above deterministically, or failing
            // it as a candidate the device cannot launch is.
            match an5d_fault::point("tuner.measure") {
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::Error) => continue,
                _ => {}
            }
            let plan = {
                let _span = an5d_obs::Span::enter("plan.build");
                KernelPlan::build(def, problem, &config, self.scheme)
                    .expect("a ranked configuration's blocked geometry was valid")
            };
            let run = {
                let _span = an5d_obs::Span::enter("tuner.measure");
                measure_best_cap(&plan, problem, &self.device)
            };
            // A candidate no register cap can launch is not measured.
            if let Ok(m) = run {
                measured.push(TunedCandidate {
                    config,
                    register_cap: m.register_cap,
                    predicted_gflops,
                    measured_gflops: m.gflops,
                    measured_gcells: m.gcells,
                    seconds: m.seconds,
                });
            }
        }
        if measured.is_empty() {
            return Err(TunerError::NoFeasibleCandidate);
        }
        measured.sort_by(|a, b| cmp_scores_desc(a.measured_gflops, b.measured_gflops));
        let best = measured[0].clone();
        Ok(TuningResult {
            best,
            measured,
            ranked_candidates,
            total_candidates,
        })
    }

    /// The ranking sweep: walk the axes `bT → bS → hS_N` in candidate
    /// order (that of [`SearchSpace::iter`]) and price every valid
    /// candidate from sums taken once per `(bT, bS)` and once per
    /// `(bT, hS_N)`. Returns how many were ranked and the best
    /// `self.top_k` of them, best first.
    fn rank(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        space: &SearchSpace,
    ) -> Result<(usize, Vec<(BlockConfig, f64)>), TunerError> {
        let total = space.len();
        let (bt_axis, bs_axis, hsn_axis) = space.axes();
        let precision = space.precision();
        let class = self.scheme.classify(def);
        let mut top = TopK::new(self.top_k, total);
        let mut ranked = 0;
        let mut processed = 0;
        // The streaming sums of the current bT, per hS_N, taken when a
        // candidate first needs them.
        let mut stream_sums: Vec<Option<TileSums>> = vec![None; hsn_axis.len()];
        for &bt in bt_axis {
            stream_sums.fill(None);
            for bs in bs_axis {
                // A (bT, bS) that BlockConfig::new rejects yields no
                // candidate. `head` is the pair without streaming
                // division; its candidates are `head` with each hS_N.
                let Ok(head) = BlockConfig::new(bt, bs, None, precision) else {
                    continue;
                };
                let blocked = self.blocked_part(def, problem, class, &head);
                for (&hsn, stream) in hsn_axis.iter().zip(&mut stream_sums) {
                    let Ok(config) = head.with_hsn(hsn) else {
                        continue;
                    };
                    // Deadline checkpoint per candidate: once the budget
                    // is gone the sweep stops, and the partial ranking
                    // becomes an error instead of a winner (the best
                    // candidate may be among those not reached). The fault
                    // point lets the chaos soak and tests stretch a
                    // candidate deterministically, or fail it.
                    let fault = an5d_fault::point("tuner.candidate");
                    if let Some(FaultAction::Delay(d)) = fault {
                        std::thread::sleep(d);
                    }
                    if an5d_fault::deadline_expired() {
                        return Err(TunerError::DeadlineExceeded {
                            completed: processed,
                            total,
                        });
                    }
                    processed += 1;
                    let Some((cost, blocked)) = blocked else {
                        continue;
                    };
                    if fault == Some(FaultAction::Error) {
                        continue;
                    }
                    let stream = *stream
                        .get_or_insert_with(|| TileSums::over(&config.streaming_tiling(problem)));
                    let sums = PlanSums::new(&config, cost, stream, blocked);
                    ranked += 1;
                    top.offer(config, price(&sums, problem, &self.device).gflops);
                }
            }
        }
        Ok((ranked, top.slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_stencil::suite;

    fn small_problem(def: &StencilDef) -> StencilProblem {
        let interior = match def.ndim() {
            2 => vec![2048, 2048],
            _ => vec![256, 256, 256],
        };
        StencilProblem::new(def.clone(), &interior, 100).unwrap()
    }

    #[test]
    fn tuner_finds_a_configuration_for_2d_star() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
        assert!(result.ranked_candidates > 0);
        assert!(result.ranked_candidates <= result.total_candidates);
        assert!(!result.measured.is_empty());
        assert!(result.measured.len() <= 5);
        // Measured list is sorted best-first and the winner is its head.
        for pair in result.measured.windows(2) {
            assert!(pair[0].measured_gflops >= pair[1].measured_gflops);
        }
        assert_eq!(result.best, result.measured[0]);
    }

    #[test]
    fn repeated_identical_sweeps_return_equal_results() {
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let space = SearchSpace::quick(2, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let first = tuner.tune(&def, &problem, &space).unwrap();
        let second = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn tuned_beats_bt1_baseline_for_first_order_2d() {
        // The central claim: temporal blocking pays off, so the tuned bT
        // should exceed 1 and beat the bT = 1 configuration.
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner
            .tune(&def, &problem, &SearchSpace::paper(2, Precision::Single))
            .unwrap();
        assert!(
            result.best.config.bt() > 1,
            "tuned bT = {}",
            result.best.config.bt()
        );

        let bt1 = BlockConfig::new(1, &[256], Some(256), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &bt1, FrameworkScheme::an5d()).unwrap();
        let bt1_measured =
            an5d_model::measure(&plan, &problem, tuner.device(), RegisterCap::Unlimited).unwrap();
        assert!(result.best.measured_gflops > bt1_measured.gflops);
    }

    #[test]
    fn tuner_handles_3d_stencils() {
        let def = suite::star3d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(3, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
        assert!(result.best.config.bs().len() == 2);
    }

    #[test]
    fn high_order_box_prefers_low_bt() {
        // Section 7.3: high-order 3D box stencils do not scale with temporal
        // blocking; the tuner should settle on bT = 1 (or at most 2).
        let def = suite::box3d(4);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::paper(3, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(
            result.best.config.bt() <= 2,
            "box3d4r tuned to bT = {}",
            result.best.config.bt()
        );
    }

    #[test]
    fn model_accuracy_is_within_the_papers_band() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        let acc = result.best.model_accuracy();
        assert!(acc > 0.2 && acc < 1.0, "model accuracy {acc}");
    }

    #[test]
    fn empty_space_reports_no_feasible_candidate() {
        let def = suite::j2d9pt();
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        // Blocks far too small for the requested bT: every candidate fails
        // plan validation.
        let space = SearchSpace::new(vec![16], vec![vec![32]], vec![None], Precision::Single);
        let err = tuner.tune(&def, &small_problem(&def), &space).unwrap_err();
        assert_eq!(err, TunerError::NoFeasibleCandidate);
        assert!(err.to_string().contains("no feasible"));
    }

    #[test]
    fn top_k_limits_number_of_measured_candidates() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100()).with_top_k(2);
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.measured.len() <= 2);
    }

    #[test]
    fn nan_scoring_candidate_ranks_last_and_never_wins() {
        // Regression: ranking used `partial_cmp(..).unwrap_or(Equal)`,
        // under which a NaN score compared Equal to everything and could
        // scramble the whole order (and even surface as the winner,
        // depending on the sort's comparison sequence).
        let config = BlockConfig::new(2, &[32], None, Precision::Single).unwrap();
        let candidate = |gflops: f64| TunedCandidate {
            config,
            register_cap: RegisterCap::Unlimited,
            predicted_gflops: gflops,
            measured_gflops: gflops,
            measured_gcells: 0.0,
            seconds: 0.0,
        };
        let mut measured = [
            candidate(5.0),
            candidate(f64::NAN),
            candidate(7.0),
            candidate(f64::NEG_INFINITY),
            candidate(6.0),
        ];
        measured.sort_by(|a, b| cmp_scores_desc(a.measured_gflops, b.measured_gflops));

        let order: Vec<f64> = measured.iter().map(|c| c.measured_gflops).collect();
        assert_eq!(order[0], 7.0);
        assert_eq!(order[1], 6.0);
        assert_eq!(order[2], 5.0);
        assert_eq!(order[3], f64::NEG_INFINITY);
        assert!(order[4].is_nan(), "NaN must sort strictly last");
        assert!(
            !measured[0].measured_gflops.is_nan(),
            "a NaN-scoring candidate must never be picked as best"
        );
    }

    #[test]
    fn top_k_keeps_what_a_stable_sort_puts_first() {
        // Ties, NaNs and infinities, offered in an order that makes every
        // kind of insertion happen: at the end, in front, between equals.
        let scores = [
            3.0,
            f64::NAN,
            5.0,
            3.0,
            f64::NEG_INFINITY,
            7.0,
            5.0,
            f64::INFINITY,
            3.0,
            f64::NAN,
            7.0,
            -1.0,
            0.0,
            5.0,
        ];
        let offers: Vec<(BlockConfig, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| {
                let config = BlockConfig::new(i + 1, &[64], None, Precision::Single).unwrap();
                (config, score)
            })
            .collect();
        let mut sorted = offers.clone();
        sorted.sort_by(|a, b| cmp_scores_desc(a.1, b.1));
        for k in [1, 2, 3, 5, 8, scores.len(), usize::MAX] {
            let mut top = TopK::new(k, offers.len());
            for &(config, score) in &offers {
                top.offer(config, score);
            }
            let expected = &sorted[..k.min(sorted.len())];
            assert_eq!(top.slots.len(), expected.len(), "k = {k}");
            for (kept, want) in top.slots.iter().zip(expected) {
                assert_eq!(kept.0, want.0, "k = {k}");
                assert_eq!(kept.1.to_bits(), want.1.to_bits(), "k = {k}");
            }
            assert!(top.slots.capacity() <= offers.len());
        }
    }

    #[test]
    fn nan_safe_comparison_is_a_total_order() {
        use std::cmp::Ordering;
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 2.5];
        for &a in &values {
            assert_eq!(cmp_scores_desc(a, a), Ordering::Equal, "reflexive on {a}");
            for &b in &values {
                let ab = cmp_scores_desc(a, b);
                let ba = cmp_scores_desc(b, a);
                assert_eq!(ab, ba.reverse(), "antisymmetric on ({a}, {b})");
            }
        }
        assert_eq!(
            cmp_scores_desc(f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(cmp_scores_desc(1.0, f64::NAN), Ordering::Less);
    }

    #[test]
    fn register_and_halo_busting_candidates_are_not_ranked() {
        // j2d9pt has radius 2, so a 32-wide block keeps a compute region
        // only for bT ≤ 7 (the halo 4·bT must stay below 32): the other
        // nine plans do not build.
        let def = suite::j2d9pt();
        let problem = StencilProblem::new(def.clone(), &[2048, 2048], 50).unwrap();
        let space = SearchSpace::new(
            (1..=16).collect(),
            vec![vec![32]],
            vec![None],
            Precision::Single,
        );
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 16);
        assert_eq!(result.ranked_candidates, 7, "bT 1..=7 survive");
        assert!(result.measured.iter().all(|c| c.config.bt() <= 7));

        // star2d1r at bS = 512, bT = 30 builds (halo 60) but busts the
        // 65,536-register SM budget ((4·30+20+10)·512 registers).
        let def = suite::star2d(1);
        let problem = StencilProblem::new(def.clone(), &[2048, 2048], 50).unwrap();
        let space = SearchSpace::new(vec![1, 30], vec![vec![512]], vec![None], Precision::Single);
        let busting = BlockConfig::new(30, &[512], None, Precision::Single).unwrap();
        assert!(KernelPlan::build(&def, &problem, &busting, FrameworkScheme::an5d()).is_ok());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 2);
        assert_eq!(result.ranked_candidates, 1, "bT=30 busts the SM budget");
        assert_eq!(result.best.config.bt(), 1);
    }

    #[test]
    fn tuning_a_paper_space_streams_without_materialising_candidates() {
        // The full paper(3) sweep must work through the lazy iterator and
        // produce a result whose counters are consistent with the space.
        let def = suite::star3d(1);
        let problem = StencilProblem::new(def.clone(), &[128, 128, 128], 32).unwrap();
        let space = SearchSpace::paper(3, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 64);
        assert!(result.ranked_candidates <= 64);
        assert!(result.best.measured_gflops > 0.0);
    }

    #[test]
    fn concurrent_tuning_on_the_shared_pool_is_deterministic() {
        // Four threads tuning simultaneously (each sweep inline on its own
        // thread); every run must produce the identical result.
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let space = SearchSpace::quick(2, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let baseline = tuner.tune(&def, &problem, &space).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let result = tuner.tune(&def, &problem, &space).unwrap();
                    assert_eq!(result, baseline);
                });
            }
        });
    }

    #[test]
    fn stencilgen_scheme_can_be_tuned_too() {
        let def = suite::j2d5pt();
        let tuner = Tuner::new(GpuDevice::tesla_v100())
            .with_scheme(FrameworkScheme::stencilgen())
            .with_top_k(3);
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
    }
}
