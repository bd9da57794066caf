//! The three solve workloads: one blocked stencil solve on the CPU
//! backend per operation, checked against the native oracle every time.

use an5d::{
    create_backend, default_tolerance, global_pool, temporal_chunks, BackendElement, BlockConfig,
    BlockedRun, ExecutionBackend, FrameworkScheme, Grid, GridDiff, GridInit, KernelPlan,
    StencilDef, StencilProblem, TileContext, TrafficCounters,
};
use an5d_service::Json;
use std::sync::Arc;
use std::time::Instant;

use crate::host::{self, Calibrator, Probes};
use crate::oracle::{self, StepFn};
use crate::report::{Metric, Outcome};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::Opts;

/// One solve workload: which stencil, how large, how blocked.
pub struct ExecSpec<T> {
    pub def: StencilDef,
    pub interior: Vec<usize>,
    pub steps: usize,
    pub bt: usize,
    pub bs: Vec<usize>,
    pub hsn: Option<usize>,
    pub native: StepFn<T>,
    /// The calibration probe: `probe_steps` native sweeps over an
    /// L2-resident grid of `probe_shape`; `probe_nominal_seconds` is the
    /// probe's time (see [`Calibrator`]) on the reference host in its
    /// fast regime.
    pub probe_shape: Vec<usize>,
    pub probe_steps: usize,
    pub probe_nominal_seconds: f64,
    pub min_solves: usize,
}

/// `exec2d`: the paper's flagship 2D kernel at a high temporal-blocking
/// degree with long stride-1 rows.
pub fn exec2d() -> ExecSpec<f64> {
    ExecSpec {
        def: an5d::suite::j2d5pt(),
        interior: vec![1024, 1024],
        steps: 40,
        bt: 10,
        bs: vec![256],
        hsn: Some(256),
        native: oracle::j2d5pt_step,
        probe_shape: vec![514, 514],
        probe_steps: 80,
        probe_nominal_seconds: 0.022,
        min_solves: 10,
    }
}

/// `exec3d`: the same executor used differently — two blocked
/// dimensions, 32-element rows, `f32` lanes, halo-heavy tiles.
pub fn exec3d() -> ExecSpec<f32> {
    ExecSpec {
        def: an5d::suite::star3d(1),
        interior: vec![128, 128, 128],
        steps: 12,
        bt: 4,
        bs: vec![32, 32],
        hsn: Some(64),
        native: oracle::star3d1r_step,
        probe_shape: vec![66, 66, 66],
        probe_steps: 80,
        probe_nominal_seconds: 0.017,
        min_solves: 10,
    }
}

/// `exec_nonlinear`: square root, division, non-associative — bypasses
/// any linear-normal-form fast path, so such a change predicts *no move*
/// here while a slower generic tape path is caught.
pub fn exec_nonlinear() -> ExecSpec<f32> {
    ExecSpec {
        def: an5d::suite::gradient2d(),
        interior: vec![1024, 1024],
        steps: 20,
        bt: 4,
        bs: vec![256],
        hsn: None,
        native: oracle::gradient2d_step,
        probe_shape: vec![514, 514],
        probe_steps: 80,
        probe_nominal_seconds: 0.0175,
        min_solves: 10,
    }
}

/// Everything one set-up produces.
struct Ready<T> {
    problem: StencilProblem,
    config: BlockConfig,
    initial: Grid<T>,
    expected: Grid<T>,
    backend: Arc<dyn ExecutionBackend>,
}

fn backend(spec: &str) -> Arc<dyn ExecutionBackend> {
    create_backend(spec).unwrap_or_else(|| panic!("backend spec {spec:?} is registered"))
}

/// One timed solve: `KernelPlan::build` + `backend.execute_*`. The input
/// clone is made before the clock starts.
fn solve<T: BackendElement>(
    spec: &ExecSpec<T>,
    ready: &Ready<T>,
    backend: &dyn ExecutionBackend,
    tracer: &mut Tracer,
    op: u64,
) -> (f64, BlockedRun<T>) {
    let grid = ready.initial.clone();
    let started = Instant::now();
    let run = tracer.span("solve", op, |t| {
        let plan = t
            .span("plan.build", op, |_| {
                KernelPlan::build(
                    &spec.def,
                    &ready.problem,
                    &ready.config,
                    FrameworkScheme::an5d(),
                )
            })
            .expect("the workload's blocking configuration is valid");
        t.span("backend.execute", op, |_| {
            T::execute_on(backend, &plan, &ready.problem, grid)
        })
    });
    (started.elapsed().as_secs_f64(), run)
}

/// `true` when `grid` is the oracle's grid within the precision's
/// tolerance (exact for `f64`).
fn matches_oracle<T: BackendElement>(
    spec: &ExecSpec<T>,
    expected: &Grid<T>,
    grid: &Grid<T>,
) -> bool {
    let tolerance = default_tolerance(T::PRECISION, spec.steps);
    GridDiff::compute(expected, grid).is_ok_and(|diff| diff.max_abs <= tolerance)
}

fn setup<T: BackendElement>(spec: &ExecSpec<T>, seed: u64, outcome: &mut Outcome) -> Ready<T> {
    let wrong = oracle::self_check();
    outcome.check(wrong.is_empty(), || {
        format!("native oracle disagrees with the reference interpreter on {wrong:?}")
    });
    let problem = StencilProblem::new(spec.def.clone(), &spec.interior, spec.steps)
        .expect("the workload's extents match the stencil rank");
    let config = BlockConfig::new(spec.bt, &spec.bs, spec.hsn, T::PRECISION)
        .expect("the workload's blocking configuration is well-formed");
    let initial = oracle::seeded_grid::<T>(&problem.grid_shape(), &mut Rng::new(seed));
    let expected = oracle::run_native(spec.native, &initial, spec.steps);
    let ready = Ready {
        problem,
        config,
        initial,
        expected,
        backend: backend("vector"),
    };
    let mut untraced = Tracer::new(Instant::now(), false);
    // One warm-up solve: the pool's threads and the allocator's arenas.
    let (_, run) = solve(spec, &ready, &*ready.backend, &mut untraced, 0);
    outcome.check(matches_oracle(spec, &ready.expected, &run.grid), || {
        "warm-up solve differs from the oracle".to_string()
    });
    ready
}

/// Valid (interior × steps) updates of one solve, in millions.
fn valid_mcells<T>(spec: &ExecSpec<T>) -> f64 {
    spec.interior.iter().product::<usize>() as f64 * spec.steps as f64 / 1e6
}

fn describe<T: BackendElement>(spec: &ExecSpec<T>, ready: &Ready<T>, outcome: &mut Outcome) {
    let grid_bytes = ready.initial.len() * T::PRECISION.bytes();
    outcome.note("stencil", Json::str(spec.def.name()));
    outcome.note("precision", Json::Str(T::PRECISION.to_string()));
    outcome.note("interior", Json::usize_array(&spec.interior));
    outcome.note("steps", Json::Int(spec.steps as i128));
    outcome.note(
        "blocking",
        Json::Str(format!(
            "bT={} bS={:?} hSN={:?}",
            spec.bt, spec.bs, spec.hsn
        )),
    );
    outcome.note("backend", Json::Str(ready.backend.describe()));
    outcome.note("grid_bytes", Json::Int(grid_bytes as i128));
}

/// The end-to-end run: set up `opts.setups` times, then solve until
/// `opts.seconds` have passed, checking every grid. Times are calibrated
/// (see [`Calibrator`]): a probe runs between any two timed spans.
pub fn run<T: BackendElement>(spec: &ExecSpec<T>, opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let mut calibrator = Calibrator::stencil(
        spec.native,
        &spec.probe_shape,
        spec.probe_steps,
        spec.probe_nominal_seconds,
    );
    let (ready, setups) =
        calibrator.timed_setups(opts.setups, || setup(spec, opts.seed, &mut outcome), drop);
    describe(spec, &ready, &mut outcome);

    let mut untraced = Tracer::new(Instant::now(), false);
    let mut solves = Vec::new();
    let mut counters: Option<TrafficCounters> = None;
    let measuring = Instant::now();
    let mut mark = calibrator.probe();
    while solves.len() < spec.min_solves || measuring.elapsed().as_secs_f64() < opts.seconds {
        let op = solves.len() as u64;
        let (seconds, run) = solve(spec, &ready, &*ready.backend, &mut untraced, op);
        solves.push((seconds, mark));
        outcome.check(matches_oracle(spec, &ready.expected, &run.grid), || {
            format!("solve {op} differs from the oracle")
        });
        let first = *counters.get_or_insert(run.counters);
        outcome.check(first == run.counters, || {
            format!("solve {op} counted different work than solve 0")
        });
        mark = calibrator.probe();
    }

    let calibrated: Vec<f64> = solves
        .iter()
        .map(|&(s, mark)| calibrator.calibrated(s, mark))
        .collect();
    let raw: Vec<f64> = solves.iter().map(|&(s, _)| s).collect();
    outcome.push_setup(&calibrator, &setups);
    outcome.push(Metric::of(
        "ops_per_s",
        &calibrated.iter().map(|s| 1.0 / s).collect::<Vec<_>>(),
    ));
    // Windows of `min_solves`; an incomplete last window is left out.
    let millis: Vec<f64> = calibrated.iter().map(|s| s * 1e3).collect();
    let windows: Vec<Vec<f64>> = millis
        .chunks_exact(spec.min_solves)
        .map(<[f64]>::to_vec)
        .collect();
    outcome.push_latency(&windows);
    outcome.describe_raw(
        &calibrator,
        1.0 / median(&raw),
        &raw.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    outcome.note(
        "solve_mcells_per_s",
        Json::Num(valid_mcells(spec) / median(&calibrated)),
    );
    let counters = counters.expect("at least one solve ran");
    push_counts(&mut outcome, &counters, T::PRECISION.bytes());
    outcome
}

fn push_counts(outcome: &mut Outcome, counters: &TrafficCounters, element_bytes: usize) {
    outcome.count("gpusim.cell_updates", counters.cell_updates);
    outcome.count("gpusim.valid_updates", counters.valid_updates);
    outcome.count("gpusim.flops", counters.flops);
    outcome.count("gpusim.computed_bytes", counters.gm_bytes(element_bytes));
    outcome.count("gpusim.kernel_launches", counters.kernel_launches);
}

/// One solve replayed on this thread through the public tile API — the
/// same driver loop as `VectorCpuBackend`, every stage in its own span.
fn replay<T: BackendElement>(
    spec: &ExecSpec<T>,
    ready: &Ready<T>,
    tracer: &mut Tracer,
    op: u64,
) -> BlockedRun<T> {
    let mut current = ready.initial.clone();
    tracer.span("replay", op, |t| {
        let plan = t
            .span("plan.build", op, |_| {
                KernelPlan::build(
                    &spec.def,
                    &ready.problem,
                    &ready.config,
                    FrameworkScheme::an5d(),
                )
            })
            .expect("the workload's blocking configuration is valid");
        let ctx = t.span("gpusim.context", op, |_| {
            TileContext::new(&plan, &ready.problem)
        });
        let mut counters = TrafficCounters::new();
        for chunk in temporal_chunks(spec.steps, spec.bt) {
            // As in the backend: every tile of the temporal block is
            // computed and retained before the first one is applied.
            let runs: Vec<_> = ctx
                .tiles()
                .iter()
                .map(|tile| {
                    t.span("gpusim.tile_compute", op, |_| {
                        ctx.execute_tile_rows(&current, tile, chunk)
                    })
                })
                .collect();
            let mut next = t.span("grid.clone", op, |_| current.clone());
            for run in runs {
                t.span("gpusim.apply", op, |_| run.apply_to(&mut next));
                counters += run.counters;
            }
            counters.kernel_launches += 1;
            current = next;
        }
        BlockedRun {
            grid: current,
            counters,
        }
    })
}

/// What one round of the traced run measured, in seconds.
struct Round {
    native: f64,
    plain: f64,
    traced: f64,
    context: f64,
    compute: f64,
    apply: f64,
    clone: f64,
    t1: f64,
    tn: f64,
}

/// The traced run: per-layer numbers from spans around the public API,
/// never the end-to-end metrics.
///
/// The host changes speed every few seconds, so everything that is later
/// divided by something else is measured in the same **round**: native
/// sweep, plain solve, traced solve, tile-API replay, `vector:1` solve,
/// `vector:nproc` solve, back to back. Ratios are taken per round and
/// their median reported.
pub fn run_traced<T: BackendElement>(
    spec: &ExecSpec<T>,
    opts: &Opts,
    probes: &Probes,
    tracer: &mut Tracer,
) -> Outcome {
    let mut outcome = Outcome::default();
    let nproc = host::nproc();
    let ready = setup(spec, opts.seed, &mut outcome);
    describe(spec, &ready, &mut outcome);

    // grid layer: the library's own deterministic initialiser.
    let init_seconds: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let grid = Grid::<T>::from_init(
                &ready.problem.grid_shape(),
                GridInit::Hash { seed: opts.seed },
            );
            std::hint::black_box(grid);
            started.elapsed().as_secs_f64()
        })
        .collect();

    let one = backend("vector:1");
    let all = backend(&format!("vector:{nproc}"));
    let mut rounds: Vec<Round> = Vec::new();
    let mut counters = TrafficCounters::new();
    let (mut pool_items, mut pool_batches, mut pool_micros) = (0u64, 0u64, 0u64);
    let mut op = 0u64;
    let started = Instant::now();
    while rounds.is_empty() || (started.elapsed().as_secs_f64() < opts.seconds && rounds.len() < 32)
    {
        let native_started = Instant::now();
        let grid = oracle::run_native(spec.native, &ready.initial, spec.steps);
        let native = native_started.elapsed().as_secs_f64();
        outcome.check(grid == ready.expected, || {
            "native sweep is not repeatable".to_string()
        });

        // One solve on `backend`, checked; returns (whole solve, execute span).
        let mut checked =
            |backend: &dyn ExecutionBackend, tracer: &mut Tracer, outcome: &mut Outcome| {
                let (seconds, run) = solve(spec, &ready, backend, tracer, op);
                let execute = tracer
                    .seconds_per_op("backend.execute")
                    .get(&op)
                    .copied()
                    .unwrap_or(seconds);
                op += 1;
                outcome.check(matches_oracle(spec, &ready.expected, &run.grid), || {
                    format!("{} solve differs from the oracle", backend.describe())
                });
                (seconds, execute, run.counters)
            };
        tracer.enabled = false;
        let (plain, _, _) = checked(&*ready.backend, tracer, &mut outcome);
        tracer.enabled = true;
        let (traced, _, _) = checked(&*ready.backend, tracer, &mut outcome);
        let (_, t1, counted) = checked(&*one, tracer, &mut outcome);
        let before = global_pool().stats();
        let (_, tn, _) = checked(&*all, tracer, &mut outcome);
        let after = global_pool().stats();
        pool_items += after.items_executed - before.items_executed;
        pool_batches += after.batches_executed - before.batches_executed;
        pool_micros += after.total_batch_micros - before.total_batch_micros;

        let replay_op = op;
        op += 1;
        let run = replay(spec, &ready, tracer, replay_op);
        outcome.check(matches_oracle(spec, &ready.expected, &run.grid), || {
            "tile-API replay differs from the oracle".to_string()
        });
        outcome.check(run.counters == counted, || {
            "the backend counted different work than the tile-API replay".to_string()
        });
        counters = run.counters;
        let of = |name: &str| {
            tracer
                .seconds_per_op(name)
                .get(&replay_op)
                .copied()
                .unwrap_or(0.0)
        };
        rounds.push(Round {
            native,
            plain,
            traced,
            context: of("gpusim.context"),
            compute: of("gpusim.tile_compute"),
            apply: of("gpusim.apply"),
            clone: of("grid.clone"),
            t1,
            tn,
        });
    }

    let column = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let us = |seconds: &[f64]| -> Vec<f64> { seconds.iter().map(|s| s * 1e6).collect() };
    let element_bytes = T::PRECISION.bytes();
    let flops = counters.flops as f64;
    let computed_bytes = counters.gm_bytes(element_bytes) as f64;
    let flops_per_byte = flops / computed_bytes;
    let roof_gflops = probes.fma_gflops.min(probes.triad_gbps * flops_per_byte);
    let t1 = column(&|r| r.t1);
    let compute = column(&|r| r.compute);
    let tiles_per_solve = tracer.seconds_of("gpusim.tile_compute").len() / rounds.len();

    outcome.push(Metric::of(
        "plan.build_us",
        &us(&tracer.seconds_of("plan.build")),
    ));
    outcome.push(Metric::of("grid.init_s", &init_seconds));
    outcome.push(Metric::of("grid.clone_s", &column(&|r| r.clone)));
    outcome.push(Metric::of(
        "gpusim.context_us",
        &us(&column(&|r| r.context)),
    ));
    outcome.push(Metric::of("gpusim.tile_compute_s", &compute));
    outcome.push(Metric::of("gpusim.apply_s", &column(&|r| r.apply)));
    outcome.push(Metric::scalar("gpusim.tiles", tiles_per_solve as f64));
    outcome.push(Metric::of(
        "gpusim.compute_mcells_per_s",
        &compute
            .iter()
            .map(|s| counters.cell_updates as f64 / 1e6 / s)
            .collect::<Vec<_>>(),
    ));
    outcome.push(Metric::scalar(
        "gpusim.cell_updates",
        counters.cell_updates as f64,
    ));
    outcome.push(Metric::scalar(
        "gpusim.valid_updates",
        counters.valid_updates as f64,
    ));
    outcome.push(Metric::scalar(
        "gpusim.redundancy_ratio",
        counters.redundancy_ratio(),
    ));
    outcome.push(Metric::scalar("gpusim.flops", flops));
    outcome.push(Metric::scalar("gpusim.computed_bytes", computed_bytes));
    outcome.push(Metric::scalar("gpusim.flops_per_byte", flops_per_byte));
    outcome.push(Metric::of(
        "gpusim.roofline_fraction",
        &t1.iter()
            .map(|s| flops / s / 1e9 / roof_gflops)
            .collect::<Vec<_>>(),
    ));
    outcome.push(Metric::of(
        "oracle.native_mcells_per_s",
        &column(&|r| valid_mcells(spec) / r.native),
    ));
    outcome.push(Metric::of(
        "gpusim.vs_native",
        &column(&|r| r.native / r.t1),
    ));
    outcome.push(Metric::of(
        "solve_mcells_per_s",
        &column(&|r| valid_mcells(spec) / r.plain),
    ));
    outcome.push(Metric::of("backend.execute_s.t1", &t1));
    outcome.push(Metric::of("backend.execute_s.tn", &column(&|r| r.tn)));
    outcome.push(Metric::of(
        "backend.driver_share",
        &column(&|r| 1.0 - (r.context + r.compute + r.apply + r.clone) / r.t1),
    ));
    outcome.push(Metric::of(
        "runtime.parallel_efficiency",
        &column(&|r| r.t1 / (nproc as f64 * r.tn)),
    ));
    outcome.push(Metric::scalar(
        "runtime.pool_items",
        pool_items as f64 / rounds.len() as f64,
    ));
    outcome.push(Metric::scalar(
        "runtime.pool_mean_batch_us",
        if pool_batches > 0 {
            pool_micros as f64 / pool_batches as f64
        } else {
            0.0
        },
    ));
    outcome.push(Metric::of(
        "trace_overhead_share",
        &column(&|r| r.traced / r.plain - 1.0),
    ));
    push_counts(&mut outcome, &counters, element_bytes);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy<T>(mut spec: ExecSpec<T>, interior: &[usize], bs: &[usize]) -> ExecSpec<T> {
        spec.interior = interior.to_vec();
        spec.steps = 4;
        spec.bt = 2;
        spec.bs = bs.to_vec();
        spec.hsn = None;
        spec.min_solves = 2;
        spec
    }

    #[test]
    fn toy_solves_pass_their_checks_and_report_every_end_to_end_metric() {
        let opts = Opts::toy(7);
        let outcome = run(&toy(exec2d(), &[16, 16], &[12]), &opts);
        assert_eq!(outcome.failed, 0);
        assert!(
            outcome.attempted >= 5,
            "self-check + warm-up + 2 × (grid, counters)"
        );
        for name in ["setup_s", "ops_per_s", "p50_ms", "p90_ms"] {
            assert!(outcome.value(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(run(&toy(exec3d(), &[8, 8, 8], &[6, 6]), &opts).failed, 0);
        assert_eq!(
            run(&toy(exec_nonlinear(), &[16, 16], &[12]), &opts).failed,
            0
        );
    }

    #[test]
    fn a_wrong_grid_counts_as_failed() {
        // An oracle for a different stencil: every solve must be flagged.
        let mut spec = toy(exec_nonlinear(), &[16, 16], &[12]);
        spec.native = |src, dst, shape| {
            oracle::gradient2d_step(src, dst, shape);
            dst[shape[1] + 1] += 1.0;
        };
        let outcome = run(&spec, &Opts::toy(7));
        assert!(outcome.failed >= 2, "failed {}", outcome.failed);
        assert!(outcome.failed < outcome.attempted);
    }

    #[test]
    fn toy_traced_run_attributes_the_replay() {
        let opts = Opts::toy(7);
        let mut tracer = Tracer::new(Instant::now(), true);
        let spec = toy(exec2d(), &[16, 16], &[12]);
        let probes = Probes {
            triad_gbps: 10.0,
            fma_gflops: 10.0,
        };
        let outcome = run_traced(&spec, &opts, &probes, &mut tracer);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.value("gpusim.valid_updates"),
            Some(16.0 * 16.0 * 4.0)
        );
        assert!(outcome.value("gpusim.cell_updates").unwrap() > 16.0 * 16.0 * 4.0);
        assert!(outcome.value("gpusim.tiles").unwrap() >= 4.0);
        assert!(outcome.value("backend.execute_s.t1").unwrap() > 0.0);
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "gpusim.apply" && s.parent.is_some()));
    }
}
