//! `an5d_benchmark`: the repo benchmark.
//!
//! ```text
//! an5d_benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                [--out DIR]
//! an5d_benchmark --compare DIR_A DIR_B
//! ```
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics with no span recorded; with `--trace 1` it records
//! benchmark-side spans around the calls into each library layer and
//! reports the per-layer metrics instead. Every layer is measured from
//! outside, through its public functions. The last line of stdout is the
//! result object; the rows before it name every metric with its unit.

#![forbid(unsafe_code)]

mod compile;
mod exec;
mod host;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use an5d_service::Json;
use host::Probes;
use report::{Metric, Outcome, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The contract file and the frozen input programs, relative to the
/// repository root every run starts in.
const SPEC_FILE: &str = "BENCHMARK.json";
const PROGRAMS_DIR: &str = "benchmark/programs";

/// The largest share of root-span time a traced run may leave
/// unattributed to child spans.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

/// Everything a workload function is told.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The only source of input variation.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// How many times the set-up is performed; `setup_s` is their median.
    pub setups: usize,
    /// Where temporary files (the serve workload's tune DB) live.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Options for the toy-sized harness tests: minimum work, one set-up.
    #[cfg(test)]
    pub fn toy(seed: u64) -> Self {
        let out_dir =
            std::env::temp_dir().join(format!("an5d-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).expect("temp dir is writable");
        Self {
            seed,
            seconds: 0.0,
            setups: 1,
            out_dir,
        }
    }
}

struct Args {
    workload: String,
    trace: bool,
    opts: Opts,
}

fn usage() -> String {
    "usage: an5d_benchmark --workload NAME --seed N --seconds S --trace 0|1 \
     [--out DIR]\n       \
     an5d_benchmark --compare DIR_A DIR_B"
        .to_string()
}

enum Command {
    Run(Args),
    Compare { first: PathBuf, second: PathBuf },
}

fn parse_args(raw: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut compare = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if let Some((first, second)) = compare {
        return Ok(Command::Compare { first, second });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or_else(usage)?,
        trace,
        opts: Opts {
            seed,
            seconds,
            setups: 3,
            out_dir,
        },
    }))
}

fn run_exec<T: an5d::BackendElement>(
    spec: &exec::ExecSpec<T>,
    opts: &Opts,
    traced: Option<(&mut Tracer, &Probes)>,
) -> Outcome {
    match traced {
        Some((tracer, probes)) => exec::run_traced(spec, opts, probes, tracer),
        None => exec::run(spec, opts),
    }
}

/// Run one workload; `traced` is `Some` for a traced run.
fn run_workload(args: &Args, traced: Option<(&mut Tracer, &Probes)>) -> Result<Outcome, String> {
    let opts = &args.opts;
    let programs = Path::new(PROGRAMS_DIR);
    Ok(match args.workload.as_str() {
        "exec2d" => run_exec(&exec::exec2d(), opts, traced),
        "exec3d" => run_exec(&exec::exec3d(), opts, traced),
        "exec_nonlinear" => run_exec(&exec::exec_nonlinear(), opts, traced),
        "compile" => {
            let spec = compile::CompileSpec::full(compile::load_programs(programs)?);
            match traced {
                Some((tracer, _)) => compile::run_traced(&spec, opts, tracer),
                None => compile::run(&spec, opts),
            }
        }
        "serve" => {
            let spec = serve::ServeSpec::full(compile::load_programs(programs)?, programs)?;
            match traced {
                Some((tracer, _)) => serve::run_traced(&spec, opts, tracer)?,
                None => serve::run(&spec, opts)?,
            }
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::load(Path::new(SPEC_FILE))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!("workload {} is not in {SPEC_FILE}", args.workload));
    }
    std::fs::create_dir_all(&args.opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.opts.out_dir.display()))?;

    let mut tracer = args.trace.then(|| Tracer::new(Instant::now(), true));
    // The roofline probes, taken in the same process as the kernels they
    // bound: before a traced workload, which divides by them, and after
    // an untraced one, so the triad's arrays never count into
    // `peak_rss_mib`.
    let probes = args.trace.then(Probes::measure);
    let mut outcome = run_workload(args, tracer.as_mut().zip(probes.as_ref()))?;
    if !args.trace {
        // `VmHWM` once the workload is done: set-ups, every timed
        // operation, the checks. A peak read earlier still depends on
        // which allocator arena has grown by then (compile: 23–32 MiB
        // after three passes, 25–28 MiB at the end).
        outcome.push(Metric::scalar("peak_rss_mib", host::peak_rss_mib()));
    }
    let probes = probes.unwrap_or_else(Probes::measure);
    outcome.note(
        "host_probes",
        Json::obj(vec![
            ("triad_gbps", Json::Num(probes.triad_gbps)),
            ("fma_gflops", Json::Num(probes.fma_gflops)),
            (
                "triad_working_set_bytes",
                Json::Int((3 * host::TRIAD_ELEMENTS * 8) as i128),
            ),
        ]),
    );

    if let Some(tracer) = &tracer {
        outcome.push(Metric::scalar("host.nproc", host::nproc() as f64));
        outcome.push(Metric::scalar("host.triad_gbps", probes.triad_gbps));
        outcome.push(Metric::scalar("host.fma_gflops", probes.fma_gflops));
        // Reconciliation: the child spans must cover their roots.
        let unattributed = tracer.unattributed_share();
        outcome.push(Metric::scalar("unattributed_share", unattributed));
        if unattributed > MAX_UNATTRIBUTED_SHARE {
            outcome.violations.push(format!(
                "unattributed_share {unattributed:.4} exceeds {MAX_UNATTRIBUTED_SHARE}"
            ));
        }
        let path = args
            .opts
            .out_dir
            .join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, tracer.render_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let resolved = spec.resolve(&outcome, args.trace)?;
    let file = report::output_file(
        &args.workload,
        args.opts.seed,
        args.opts.seconds,
        args.trace,
        host::stamp(),
        &outcome,
        &resolved,
    );
    let leaf = if args.trace { "layers.json" } else { "json" };
    let path = args.opts.out_dir.join(format!("{}.{leaf}", args.workload));
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    report::print_rows(&args.workload, &resolved);
    for violation in &outcome.violations {
        eprintln!(
            "[benchmark] {}: traced-run violation: {violation}",
            args.workload
        );
    }
    println!("{}", report::result_line(&outcome, &resolved));
    // Wrong outputs are reported in the result object; only a traced run
    // whose layers do not add up fails the process.
    Ok(if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|command| match command {
        Command::Run(args) => run(&args),
        Command::Compare { first, second } => {
            let problems = report::compare(&Spec::load(Path::new(SPEC_FILE))?, &first, &second);
            for problem in &problems {
                eprintln!("[benchmark] repeat: {problem}");
            }
            Ok(if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    });
    result.unwrap_or_else(|message| {
        eprintln!("an5d_benchmark: {message}");
        ExitCode::from(2)
    })
}
