//! Golden snapshot of the generated CUDA: length + FNV-1a 64 of
//! `CudaCode::kernel_source` and `host_source` for every Table-3 stencil ×
//! precision × a low, middle and high `bT`, compared against the committed
//! `golden_cuda.txt`. Any change to the generated code is a visible diff
//! of that file: on mismatch the test prints the full current listing,
//! which replaces the file when the change is intended.

use an5d_codegen::generate;
use an5d_grid::Precision;
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
use an5d_stencil::{suite, StencilProblem};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_cuda.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn current_listing() -> String {
    let mut out = String::new();
    for def in suite::all_benchmarks() {
        let (interior, bs, bts): (&[usize], &[usize], &[usize]) = match def.ndim() {
            2 => (&[2048, 2048], &[256], &[1, 4, 10]),
            _ => (&[256, 256, 256], &[32, 32], &[1, 3]),
        };
        let problem = StencilProblem::new(def.clone(), interior, 100).unwrap();
        for precision in [Precision::Single, Precision::Double] {
            for &bt in bts {
                let config = BlockConfig::new(bt, bs, Some(256), precision).unwrap();
                let plan =
                    KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
                let code = generate(&plan);
                writeln!(
                    out,
                    "{} {} bt{bt} kernel {} {:016x} host {} {:016x}",
                    def.name(),
                    precision.cuda_type(),
                    code.kernel_source.len(),
                    fnv1a64(code.kernel_source.as_bytes()),
                    code.host_source.len(),
                    fnv1a64(code.host_source.as_bytes()),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn generated_cuda_matches_the_committed_snapshot() {
    let current = current_listing();
    assert_eq!(
        current.lines().count(),
        GOLDEN.lines().count(),
        "snapshot covers a different set of kernels; current listing:\n{current}"
    );
    for (now, golden) in current.lines().zip(GOLDEN.lines()) {
        assert_eq!(
            now, golden,
            "generated CUDA changed; current listing:\n{current}"
        );
    }
}
