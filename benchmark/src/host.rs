//! Host stamp (what machine and build produced a number) and the two
//! roofline probes measured in the same run as the kernels they bound.

use an5d::Element;
use an5d_service::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::oracle::StepFn;

/// `std::thread::available_parallelism`, the count every thread-sized
/// choice in the benchmark derives from.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Sizes of cpu0's caches as sysfs reports them, e.g. `L2 4096K`.
fn cache_sizes() -> Vec<String> {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |leaf: &str| {
            std::fs::read_to_string(format!("{base}/{leaf}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        out.push(format!("L{level} {kind} {size}"));
    }
    out
}

/// The stamp written into every output file.
pub fn stamp() -> Json {
    // The driver's checkout is not a git repository; only ask git where
    // this directory itself is one, so nothing above the checkout is read.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Json::obj(vec![
        ("nproc", Json::Int(nproc() as i128)),
        (
            "commit",
            Json::Str(commit.unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "caches_cpu0",
            Json::Arr(cache_sizes().iter().map(|s| Json::str(s)).collect()),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The two single-thread roofline probes of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub triad_gbps: f64,
    pub fma_gflops: f64,
}

impl Probes {
    /// Measure both at full size.
    pub fn measure() -> Self {
        Self {
            triad_gbps: triad_gbps(TRIAD_ELEMENTS, 3),
            fma_gflops: fma_gflops(1 << 24),
        }
    }
}

/// Elements per triad array: three 64 MiB `f64` arrays, 192 MiB in all.
/// On hosts whose last-level cache is larger than that (the reference
/// host reports a 260 MiB L3) the triad is cache-resident and the figure
/// is an LLC bandwidth, not DRAM — the output states both sizes.
pub const TRIAD_ELEMENTS: usize = 8 << 20;

/// Single-thread STREAM triad `a[i] = b[i] + s·c[i]`; GB/s counting the
/// three arrays once each per pass (the STREAM convention), best of
/// `passes`.
pub fn triad_gbps(elements: usize, passes: usize) -> f64 {
    let mut a = vec![0.0f64; elements];
    let b = vec![1.5f64; elements];
    let c = vec![2.5f64; elements];
    let scalar = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let started = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + scalar * *c;
        }
        black_box(&mut a);
        best = best.min(started.elapsed().as_secs_f64());
    }
    (3 * elements * std::mem::size_of::<f64>()) as f64 / best / 1e9
}

/// Single-thread multiply-add rate in GFLOP/s (two flops per element
/// update) over 32 independent accumulators, so the loop is bound by
/// arithmetic throughput rather than latency. Written as `v * m + a`,
/// not `mul_add`: the workspace builds for the baseline target, where a
/// fused call would go through libm, and the row kernel under test gets
/// the same separate multiply and add. The compiler picks the vector
/// width, as it does for the kernel.
pub fn fma_gflops(iterations: usize) -> f64 {
    const LANES: usize = 32;
    let mut acc = [0.0f64; LANES];
    for (i, v) in acc.iter_mut().enumerate() {
        *v = i as f64 * 1e-3;
    }
    let mul = black_box(0.999_999f64);
    let add = black_box(1e-9f64);
    let started = Instant::now();
    for _ in 0..iterations {
        for v in &mut acc {
            *v = *v * mul + add;
        }
    }
    black_box(&acc);
    let seconds = started.elapsed().as_secs_f64();
    (2 * LANES * iterations) as f64 / seconds / 1e9
}

/// Host-speed calibration.
///
/// The reference host is a 2-vCPU VM that switches between faster and
/// slower regimes every 5–30 s (neighbours on its physical cores): raw
/// wall-clock medians of identical 12 s runs differ by 15–35 %, more
/// than any regression bound the contract allows. Every timed operation
/// is therefore bracketed by a fixed **probe kernel** of the benchmark's
/// own, ~20 ms of plain compiled code with the workload's instruction
/// mix — how hard a regime hits depends on the mix: the same regime
/// change that slows the `f64` multiply-add sweep by 1.4× slows the
/// `sqrt`/division sweep by 2.3× — and its time is multiplied by the
/// host-speed factor measured around it (`nominal probe seconds ÷
/// measured probe seconds`). A time so scaled is in *calibrated
/// seconds*: what the operation would have taken had the probe run at
/// its nominal speed throughout. Probes run between timed operations,
/// never inside one.
///
/// A probe runs the kernel twice: alone on this thread, then on `nproc`
/// threads at once, and takes the geometric mean of the two times. The
/// operations fan out over `nproc` threads for part of their work, and
/// the host has regimes only one of the two sees — a slower core slows
/// both, vCPUs that come to share a core slow only the second. Over 30
/// interleaved runs the solve times scaled by the mean spread 0.09 /
/// 0.05 (`exec2d` / `exec3d`), by either alone 0.11 / 0.08.
pub struct Calibrator {
    /// One kernel per thread of the parallel half; the first also runs
    /// alone.
    kernels: Vec<Box<dyn FnMut() + Send>>,
    nominal_seconds: f64,
    factors: Vec<f64>,
}

impl Calibrator {
    fn new(kernel: impl Fn() -> Box<dyn FnMut() + Send>, nominal_seconds: f64) -> Self {
        Self {
            kernels: (0..nproc()).map(|_| kernel()).collect(),
            nominal_seconds,
            factors: Vec::new(),
        }
    }

    /// Calibrate with `steps` native sweeps of `step` over an L2-resident
    /// grid of `shape` — the exec workloads' probe, each with the native
    /// kernel of its own stencil and precision. `nominal_seconds` is the
    /// probe's time on the reference host in its fast regime.
    pub fn stencil<T: Element>(
        step: StepFn<T>,
        shape: &[usize],
        steps: usize,
        nominal_seconds: f64,
    ) -> Self {
        let kernel = || -> Box<dyn FnMut() + Send> {
            let shape = shape.to_vec();
            let cells: usize = shape.iter().product();
            let mut current: Vec<T> = (0..cells)
                .map(|i| T::from_f64((i % 97) as f64 / 97.0))
                .collect();
            let mut next = current.clone();
            Box::new(move || {
                for _ in 0..steps {
                    step(&current, &mut next, &shape);
                    std::mem::swap(&mut current, &mut next);
                }
                black_box(&current);
            })
        };
        Self::new(kernel, nominal_seconds)
    }

    /// Calibrate with scalar, branchy, allocating code — number
    /// formatting and parsing, an ordered map, a byte hash, all from
    /// `std` — the compile and serve workloads' probe.
    pub fn scalar() -> Self {
        Self::new(
            || {
                Box::new(|| {
                    black_box(scalar_kernel(SCALAR_PROBE_ROUNDS));
                })
            },
            SCALAR_PROBE_NOMINAL_SECONDS,
        )
    }

    /// Run the probe once and record the host-speed factor it saw.
    /// Returns the probe's index, to pass to [`Calibrator::factor_after`].
    pub fn probe(&mut self) -> usize {
        let started = Instant::now();
        (self.kernels[0])();
        let alone = started.elapsed().as_secs_f64();
        let together = if self.kernels.len() > 1 {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for kernel in &mut self.kernels {
                    scope.spawn(kernel);
                }
            });
            started.elapsed().as_secs_f64()
        } else {
            alone
        };
        self.factors
            .push(self.nominal_seconds / (alone * together).sqrt());
        self.factors.len() - 1
    }

    /// Perform `setup` `times` times, a probe before each, handing every
    /// result but the last to `discard` before the next set-up starts, so
    /// that peak memory is one set-up's. Returns the last result and, per
    /// set-up, its raw seconds and the probe it followed.
    pub fn timed_setups<R>(
        &mut self,
        times: usize,
        mut setup: impl FnMut() -> R,
        mut discard: impl FnMut(R),
    ) -> (R, Vec<(f64, usize)>) {
        let mut timings = Vec::new();
        loop {
            let mark = self.probe();
            let started = Instant::now();
            let ready = setup();
            timings.push((started.elapsed().as_secs_f64(), mark));
            if timings.len() >= times {
                return (ready, timings);
            }
            discard(ready);
        }
    }

    /// The host-speed factor for an operation that started right after
    /// probe `index`: the median of that probe, the one before it and the
    /// two after it (regimes outlast several operations, single probes
    /// jitter).
    pub fn factor_after(&self, index: usize) -> f64 {
        let from = index.saturating_sub(1);
        let upto = (index + 3).min(self.factors.len());
        crate::stats::median(&self.factors[from..upto])
    }

    /// `seconds`, measured right after probe `index`, in calibrated
    /// seconds.
    pub fn calibrated(&self, seconds: f64, index: usize) -> f64 {
        seconds * self.factor_after(index)
    }

    /// Every factor recorded so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

/// Rounds of the scalar probe (~20 ms) and its time on the reference
/// host in its fast regime.
const SCALAR_PROBE_ROUNDS: usize = 250;
const SCALAR_PROBE_NOMINAL_SECONDS: f64 = 0.0205;

/// The scalar probe's work: `rounds` times format 256 `key:value` pairs,
/// split and parse them back, count them into an ordered map, hash the
/// text.
fn scalar_kernel(rounds: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for round in 0..rounds {
        text.clear();
        for i in 0..256u64 {
            let key = i.wrapping_mul(2_654_435_761) % 10_007 + round as u64;
            write!(text, "{key}:{:.3},", i as f64 * 0.37 + round as f64)
                .expect("writing to a String cannot fail");
        }
        for (position, field) in text.split(',').enumerate() {
            if let Some((key, value)) = field.split_once(':') {
                let key: u64 = key.parse().unwrap_or(0);
                let value: f64 = value.parse().unwrap_or(0.0);
                *index.entry(key).or_insert(0) += position + value as usize;
            }
        }
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        if index.len() > 4096 {
            index.clear();
        }
    }
    hash ^ index.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_and_stamp_produce_positive_numbers() {
        assert!(triad_gbps(1 << 12, 2) > 0.0);
        assert!(fma_gflops(1 << 10) > 0.0);
        assert!(peak_rss_mib() > 0.0);
        let stamp = stamp();
        assert!(stamp.get("nproc").and_then(Json::as_usize).unwrap() >= 1);
        assert!(stamp.get("rustc").is_some());
    }

    #[test]
    fn calibration_factors_are_smoothed_over_neighbouring_probes() {
        let mut calibrator = Calibrator::stencil(crate::oracle::j2d5pt_step, &[18, 18], 2, 1e-3);
        for expected in 0..4 {
            assert_eq!(calibrator.probe(), expected);
        }
        assert!(calibrator.factors().iter().all(|f| *f > 0.0));
        let mut sorted = calibrator.factors().to_vec();
        sorted.sort_by(f64::total_cmp);
        let factor = calibrator.factor_after(1);
        assert!(sorted[0] <= factor && factor <= sorted[3]);
        assert!(
            calibrator.factor_after(3) > 0.0,
            "the last probe has no successors"
        );
        let mut scalar = Calibrator::scalar();
        scalar.probe();
        assert!(scalar.calibrated(1.0, 0) > 0.0);
        assert_eq!(scalar_kernel(3), scalar_kernel(3));
    }
}
