//! The compile workload: frozen C text → detected stencil → tuned
//! configuration → CUDA source, once per (program, device, precision).

use an5d::{
    generate_cuda_for_plan, predict, standard_registry, suite, An5d, An5dError, FrameworkScheme,
    GpuDevice, KernelPlan, Precision, SearchSpace, TunedCandidate,
};
use an5d_service::Json;
use std::path::Path;
use std::time::Instant;

use crate::host::Calibrator;
use crate::report::{Metric, Outcome};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::Opts;

/// One frozen input program.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
}

/// Read the 21 Table-3 sources from `dir` — never regenerated at run
/// time; the files are the input.
///
/// # Errors
///
/// Returns a message naming the first file that cannot be read.
pub fn load_programs(dir: &Path) -> Result<Vec<Program>, String> {
    suite::all_benchmarks()
        .iter()
        .map(|def| {
            let path = dir.join(format!("{}.c", def.name()));
            std::fs::read_to_string(&path)
                .map(|source| Program {
                    name: def.name().to_string(),
                    source,
                })
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

/// How much compiling one run does.
pub struct CompileSpec {
    pub programs: Vec<Program>,
    pub devices: Vec<&'static str>,
    pub precisions: Vec<Precision>,
    /// Items compiled (and discarded) before the first timed pass.
    pub warmup_items: usize,
    pub min_passes: usize,
}

impl CompileSpec {
    /// 21 programs × {v100, p100} × {single, double} = 84 compiles a pass.
    pub fn full(programs: Vec<Program>) -> Self {
        Self {
            programs,
            devices: vec!["v100", "p100"],
            precisions: vec![Precision::Single, Precision::Double],
            warmup_items: 42,
            min_passes: 3,
        }
    }
}

/// One unit of work: indices into the spec.
#[derive(Debug, Clone, Copy)]
struct Item {
    program: usize,
    device: usize,
    precision: Precision,
}

struct Ready {
    items: Vec<Item>,
    devices: Vec<GpuDevice>,
}

/// What one compile produced.
struct Compiled {
    winner: TunedCandidate,
    candidates: usize,
    cuda_bytes: usize,
}

/// The one-shot compiler user: a fresh `An5d` per compile, no shared
/// plan cache.
fn compile_one(
    spec: &CompileSpec,
    ready: &Ready,
    item: Item,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Compiled, An5dError> {
    let program = &spec.programs[item.program];
    let device = &ready.devices[item.device];
    tracer.span("compile", op, |t| {
        let an5d = t.span("frontend.parse", op, |_| {
            An5d::from_c_source(&program.source, &program.name)
        })?;
        let problem = an5d.paper_problem();
        let space = SearchSpace::paper(an5d.def().ndim(), item.precision);
        let result = t.span("tuner.tune", op, |_| an5d.tune(&problem, device, &space))?;
        let plan = t.span("plan.build", op, |_| {
            an5d.plan(&problem, &result.best.config)
        })?;
        let cuda = t.span("codegen.generate", op, |_| generate_cuda_for_plan(&plan));
        Ok(Compiled {
            winner: result.best,
            candidates: result.total_candidates,
            cuda_bytes: cuda.kernel_source.len() + cuda.host_source.len(),
        })
    })
}

fn setup(spec: &CompileSpec, seed: u64, outcome: &mut Outcome) -> Ready {
    let registry = standard_registry();
    let devices = spec
        .devices
        .iter()
        .map(|name| {
            registry
                .profile(name)
                .unwrap_or_else(|| panic!("device {name} is registered"))
        })
        .collect();
    for program in &spec.programs {
        let parsed = an5d::parse_stencil(&program.source, &program.name);
        let expected = suite::by_name(&program.name);
        outcome.check(
            parsed.as_ref().ok().map(|d| &d.def) == expected.as_ref(),
            || {
                format!(
                    "{}.c does not parse to the Table-3 definition",
                    program.name
                )
            },
        );
    }
    let mut items = Vec::new();
    for program in 0..spec.programs.len() {
        for device in 0..spec.devices.len() {
            for &precision in &spec.precisions {
                items.push(Item {
                    program,
                    device,
                    precision,
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut items);
    let ready = Ready { items, devices };
    let mut untraced = Tracer::new(Instant::now(), false);
    for &item in ready.items.iter().take(spec.warmup_items) {
        let compiled = compile_one(spec, &ready, item, &mut untraced, 0);
        outcome.check(compiled.is_ok(), || {
            format!(
                "warm-up compile of {} failed",
                spec.programs[item.program].name
            )
        });
    }
    ready
}

/// The per-item results of one pass over every item.
struct Pass {
    /// Per compile: raw seconds and the calibration probe it followed.
    compiles: Vec<(f64, usize)>,
    compiled: Vec<Option<Compiled>>,
}

impl Pass {
    fn raw_seconds(&self) -> f64 {
        self.compiles.iter().map(|&(s, _)| s).sum()
    }
}

/// Compiles between two calibration probes: ~0.15 s of work, well inside
/// one host-speed regime.
const PROBE_EVERY: usize = 12;

/// One pass over every item. With a calibrator (end-to-end runs) a
/// probe runs before the pass and after every [`PROBE_EVERY`] compiles.
fn pass(
    spec: &CompileSpec,
    ready: &Ready,
    tracer: &mut Tracer,
    first_op: u64,
    mut calibrator: Option<&mut Calibrator>,
) -> Pass {
    let mut compiles = Vec::with_capacity(ready.items.len());
    let mut compiled = Vec::with_capacity(ready.items.len());
    let mut mark = 0;
    for (index, &item) in ready.items.iter().enumerate() {
        if let Some(calibrator) = calibrator.as_deref_mut() {
            if index % PROBE_EVERY == 0 {
                mark = calibrator.probe();
            }
        }
        let started = Instant::now();
        let result = compile_one(spec, ready, item, tracer, first_op + index as u64);
        compiles.push((started.elapsed().as_secs_f64(), mark));
        compiled.push(result.ok());
    }
    Pass { compiles, compiled }
}

/// Account one pass: every compile must succeed and pick the winner the
/// first pass picked.
fn check_pass(
    spec: &CompileSpec,
    ready: &Ready,
    pass: &Pass,
    winners: &mut Vec<TunedCandidate>,
    outcome: &mut Outcome,
) {
    for (index, compiled) in pass.compiled.iter().enumerate() {
        let name = &spec.programs[ready.items[index].program].name;
        let Some(compiled) = compiled else {
            outcome.check(false, || format!("compile of {name} failed"));
            continue;
        };
        if winners.len() <= index {
            winners.push(compiled.winner.clone());
        }
        outcome.check(winners[index] == compiled.winner, || {
            format!("{name}: winner changed between passes")
        });
    }
}

/// Run every distinct winner functionally on a small grid against the
/// repo's reference interpreter.
fn verify_winners(
    spec: &CompileSpec,
    ready: &Ready,
    winners: &[TunedCandidate],
    outcome: &mut Outcome,
) {
    let mut seen: Vec<(usize, &TunedCandidate)> = Vec::new();
    for (item, winner) in ready.items.iter().zip(winners) {
        if seen
            .iter()
            .any(|(p, w)| *p == item.program && w.config == winner.config)
        {
            continue;
        }
        seen.push((item.program, winner));
        let program = &spec.programs[item.program];
        let verified = An5d::from_c_source(&program.source, &program.name).and_then(|an5d| {
            let halo = 2 * winner.config.bt() * an5d.def().radius();
            let extent = if an5d.def().ndim() == 2 {
                24 + halo
            } else {
                6 + halo
            };
            let interior = vec![extent; an5d.def().ndim()];
            let problem = an5d.problem(&interior, winner.config.bt() + 1)?;
            an5d.verify(&problem, &winner.config)
        });
        outcome.check(verified.as_ref().is_ok_and(|r| r.matches_reference), || {
            format!(
                "{}: winner {:?} fails verification: {verified:?}",
                program.name, winner.config
            )
        });
    }
}

fn describe(spec: &CompileSpec, ready: &Ready, outcome: &mut Outcome) {
    outcome.note("compiles_per_pass", Json::Int(ready.items.len() as i128));
    outcome.note(
        "devices",
        Json::Arr(spec.devices.iter().map(|d| Json::str(d)).collect()),
    );
    outcome.note("search_space", Json::str("paper"));
}

fn push_counts(outcome: &mut Outcome, pass: &Pass) {
    let compiled = pass.compiled.iter().flatten();
    outcome.count(
        "tuner.candidates",
        compiled.clone().map(|c| c.candidates as u128).sum(),
    );
    outcome.count(
        "codegen.cuda_bytes",
        compiled.map(|c| c.cuda_bytes as u128).sum(),
    );
    outcome.count("compiles_per_pass", pass.compiled.len() as u128);
}

/// The end-to-end run: full passes over the seeded item order until
/// `opts.seconds` have passed. Times are calibrated (see [`Calibrator`]).
pub fn run(spec: &CompileSpec, opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let mut calibrator = Calibrator::scalar();
    let (ready, setups) =
        calibrator.timed_setups(opts.setups, || setup(spec, opts.seed, &mut outcome), drop);
    describe(spec, &ready, &mut outcome);

    let mut untraced = Tracer::new(Instant::now(), false);
    let mut winners = Vec::new();
    let mut passes = Vec::new();
    let measuring = Instant::now();
    while passes.len() < spec.min_passes || measuring.elapsed().as_secs_f64() < opts.seconds {
        let pass = pass(spec, &ready, &mut untraced, 0, Some(&mut calibrator));
        check_pass(spec, &ready, &pass, &mut winners, &mut outcome);
        passes.push(pass);
    }
    // One more probe so the last compiles have a successor to smooth over.
    calibrator.probe();
    verify_winners(spec, &ready, &winners, &mut outcome);

    let items = ready.items.len() as f64;
    let calibrated = |pass: &Pass| -> Vec<f64> {
        pass.compiles
            .iter()
            .map(|&(s, mark)| calibrator.calibrated(s, mark))
            .collect()
    };
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| items / calibrated(p).iter().sum::<f64>())
        .collect();
    let millis: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| calibrated(p).iter().map(|s| s * 1e3).collect())
        .collect();
    let raw_rates: Vec<f64> = passes.iter().map(|p| items / p.raw_seconds()).collect();
    let raw_millis: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.compiles)
        .map(|&(s, _)| s * 1e3)
        .collect();
    outcome.push_setup(&calibrator, &setups);
    outcome.push(Metric::of("ops_per_s", &rates));
    outcome.push_latency(&millis);
    outcome.describe_raw(&calibrator, median(&raw_rates), &raw_millis);
    push_counts(&mut outcome, &passes[0]);
    outcome
}

/// The tuner's sweep replayed from outside: `KernelPlan::build` and
/// `predict` for every candidate the space yields. What the real `tune`
/// costs beyond this is the tuner's own share.
fn replay_sweep(
    spec: &CompileSpec,
    ready: &Ready,
    item: Item,
    tracer: &mut Tracer,
    op: u64,
) -> usize {
    let program = &spec.programs[item.program];
    let def = suite::by_name(&program.name).expect("program names are Table-3 names");
    let problem = An5d::from_def(def.clone()).paper_problem();
    let space = SearchSpace::paper(def.ndim(), item.precision);
    let device = &ready.devices[item.device];
    tracer.span("replay.sweep", op, |t| {
        let mut built = 0;
        for config in space.iter() {
            let plan = t.span("replay.build", op, |_| {
                KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d())
            });
            if let Ok(plan) = plan {
                built += 1;
                std::hint::black_box(
                    t.span("replay.predict", op, |_| predict(&plan, &problem, device)),
                );
            }
        }
        built
    })
}

/// The traced run: alternate untraced and traced passes, then replay
/// the sweep beside the real tuner.
pub fn run_traced(spec: &CompileSpec, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let ready = setup(spec, opts.seed, &mut outcome);
    describe(spec, &ready, &mut outcome);
    let items = ready.items.len() as u64;

    let mut winners = Vec::new();
    // Traced ÷ untraced compile time of each adjacent pair of passes.
    let mut overheads = Vec::new();
    let mut traced_pass = None;
    let mut next_op = 0u64;
    let started = Instant::now();
    while overheads.is_empty() || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let mut plain_seconds = 0.0;
        for enabled in [false, true] {
            tracer.enabled = enabled;
            let pass = pass(spec, &ready, tracer, next_op, None);
            next_op += items;
            check_pass(spec, &ready, &pass, &mut winners, &mut outcome);
            if enabled {
                overheads.push(pass.raw_seconds() / plain_seconds - 1.0);
                traced_pass.get_or_insert(pass);
            } else {
                plain_seconds = pass.raw_seconds();
            }
        }
    }
    tracer.enabled = true;

    let mut builds = Vec::new();
    let replay_started = Instant::now();
    let mut replayed = 0usize;
    for (index, &item) in ready.items.iter().enumerate() {
        builds.push(replay_sweep(spec, &ready, item, tracer, next_op + index as u64) as f64);
        replayed += 1;
        // Keep the traced run inside its time budget on slow hosts; the
        // share is computed over the items actually replayed.
        if replay_started.elapsed().as_secs_f64() > opts.seconds / 2.0 {
            break;
        }
    }

    // tuner.self_share over the replayed items: their first traced tune
    // against their replayed build + predict time.
    let tune_per_op = tracer.seconds_per_op("tuner.tune");
    let first_traced_op = items; // pass order: untraced (0..items), traced (items..2·items)
    let tuned: f64 = (0..replayed as u64)
        .filter_map(|i| tune_per_op.get(&(first_traced_op + i)))
        .sum();
    let replay_seconds: f64 = tracer.seconds_of("replay.build").iter().sum::<f64>()
        + tracer.seconds_of("replay.predict").iter().sum::<f64>();

    let us = |seconds: Vec<f64>| -> Vec<f64> { seconds.iter().map(|s| s * 1e6).collect() };
    let pass = traced_pass.expect("at least one traced pass ran");
    let compiled: Vec<&Compiled> = pass.compiled.iter().flatten().collect();
    outcome.push(Metric::of(
        "frontend.parse_us",
        &us(tracer.seconds_of("frontend.parse")),
    ));
    outcome.push(Metric::of(
        "tuner.tune_ms",
        &tracer
            .seconds_of("tuner.tune")
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<_>>(),
    ));
    outcome.push(Metric::of(
        "tuner.candidates",
        &compiled
            .iter()
            .map(|c| c.candidates as f64)
            .collect::<Vec<_>>(),
    ));
    outcome.push(Metric::scalar(
        "tuner.self_share",
        1.0 - replay_seconds / tuned,
    ));
    outcome.push(Metric::of(
        "plan.build_us",
        &us(tracer.seconds_of("replay.build")),
    ));
    outcome.push(Metric::of("plan.builds_per_compile", &builds));
    outcome.push(Metric::of(
        "model.predict_us",
        &us(tracer.seconds_of("replay.predict")),
    ));
    outcome.push(Metric::of(
        "codegen.generate_us",
        &us(tracer.seconds_of("codegen.generate")),
    ));
    outcome.push(Metric::of(
        "codegen.cuda_bytes",
        &compiled
            .iter()
            .map(|c| c.cuda_bytes as f64)
            .collect::<Vec<_>>(),
    ));
    outcome.push(Metric::of("trace_overhead_share", &overheads));
    push_counts(&mut outcome, &pass);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CompileSpec {
        let programs = load_programs(Path::new("programs")).expect("frozen programs load");
        assert_eq!(programs.len(), 21);
        CompileSpec {
            programs: vec![programs[8].clone()],
            devices: vec!["v100"],
            precisions: vec![Precision::Single, Precision::Double],
            warmup_items: 1,
            min_passes: 2,
        }
    }

    #[test]
    fn two_toy_compiles_pass_their_checks() {
        let spec = toy();
        assert_eq!(spec.programs[0].name, "j2d5pt");
        let outcome = run(&spec, &Opts::toy(3));
        assert_eq!(outcome.failed, 0);
        assert!(outcome.value("ops_per_s").unwrap() > 0.0);
        assert!(outcome
            .counts
            .iter()
            .any(|(n, v)| n == "compiles_per_pass" && *v == 2));
    }

    #[test]
    fn a_program_that_is_not_its_table3_definition_counts_as_failed() {
        let mut spec = toy();
        spec.programs[0].source = spec.programs[0].source.replace("15.0f", "15.5f");
        let outcome = run(&spec, &Opts::toy(3));
        assert!(outcome.failed >= 1);
    }

    #[test]
    fn toy_traced_run_splits_the_tuner_from_its_sweep() {
        let mut tracer = Tracer::new(Instant::now(), true);
        let outcome = run_traced(&toy(), &Opts::toy(3), &mut tracer);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.value("plan.builds_per_compile").unwrap() >= 1.0);
        assert!(outcome.value("tuner.candidates").unwrap() >= 1.0);
        assert!(outcome.value("codegen.cuda_bytes").unwrap() > 100.0);
        assert!(tracer.unattributed_share() < 0.5);
    }

    #[test]
    fn the_hand_written_fig4_program_is_j2d5pt() {
        let source = std::fs::read_to_string("programs/fig4_j2d5pt.c").unwrap();
        let parsed = an5d::parse_stencil(&source, "j2d5pt").unwrap();
        assert_eq!(parsed.def, suite::j2d5pt());
    }
}
