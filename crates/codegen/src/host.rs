//! Host-side CUDA driver generation (Section 4.3.1).

use crate::{push_comment_text, push_kernel_name, push_uint};
use an5d_plan::KernelPlan;
use std::fmt::{self, Write};

/// Generate the host driver for a plan.
///
/// The host code follows the paper's description: the time loop is executed
/// as repeated kernel launches, each advancing the solution by `bT`
/// time-steps; because the input code is double-buffered with `t % 2`, the
/// driver statically emits conditional branches that shorten the final
/// temporal block whenever `I_T mod bT ≠ 0` or the parity of the number of
/// launches would leave the result in the wrong buffer.
pub(crate) fn generate_host(plan: &KernelPlan) -> String {
    let mut out = String::with_capacity(estimated_len(plan));
    write_host(&mut out, plan).expect("writing to a String cannot fail");
    out
}

/// Bytes of the host file outside its launches and remainder branches.
const PRELUDE_BYTES: usize = 1_450;
/// Bytes of one launch outside the kernel name and the extents.
const LAUNCH_BYTES: usize = 80;
/// Bytes of one remainder branch outside its launch.
const BRANCH_BYTES: usize = 50;
/// Bytes of one extent argument (`i_sD, `).
const EXTENT_BYTES: usize = 6;

/// The host file's length: one launch per remainder `1..bT` besides the
/// full block's, and the kernel name three times more.
fn estimated_len(plan: &KernelPlan) -> usize {
    let bt = plan.config().bt();
    let name = "an5d__bt10".len() + plan.def().name().len();
    let launch = LAUNCH_BYTES + name + EXTENT_BYTES * plan.def().ndim();
    PRELUDE_BYTES + 3 * name + bt * launch + (bt - 1) * BRANCH_BYTES
}

/// Append `{prefix}i_s{ndim}, …, {prefix}i_s1`.
fn push_extents(out: &mut String, prefix: &str, ndim: usize) {
    for d in (1..=ndim).rev() {
        out.push_str(prefix);
        out.push_str("i_s");
        push_uint(out, d as u64);
        if d > 1 {
            out.push_str(", ");
        }
    }
}

fn write_host(out: &mut String, plan: &KernelPlan) -> fmt::Result {
    let def = plan.def();
    let config = plan.config();
    let scalar = config.precision().cuda_type();
    let bt = config.bt();
    let ndim = def.ndim();
    let rad = def.radius();
    let grid_dim = plan.geometry().total_thread_blocks();

    // One launch of the kernel for `steps` time-steps, from buffer `t % 2`.
    let launch = |out: &mut String, steps: usize| {
        out.push_str("        ");
        push_kernel_name(out, plan, steps);
        out.push_str("<<<grid, block>>>(d_buf[t % 2], d_buf[(t + ");
        push_uint(out, steps as u64);
        out.push_str(") % 2], ");
        push_extents(out, "", ndim);
        out.push_str(", 0, i_s");
        push_uint(out, ndim as u64);
        out.push_str(");\n");
    };

    out.push_str("// Generated by AN5D-rs: host driver for ");
    push_comment_text(out, def.name());
    writeln!(out, " ({config})")?;
    out.push_str("#include <cuda_runtime.h>\n#include <cstdio>\n\n");
    out.push_str("extern __global__ void ");
    push_kernel_name(out, plan, bt);
    out.push_str("(const ");
    out.push_str(scalar);
    out.push_str("*, ");
    out.push_str(scalar);
    out.push_str("*, ");
    for _ in 0..ndim {
        out.push_str("const int, ");
    }
    out.push_str("const int, const int);\n\n");

    out.push_str(
        "/* Advances the solution by i_t time-steps; the result ends up in h_a,\n   exactly as the original double-buffered C code would leave it. */\nint ",
    );
    push_kernel_name(out, plan, bt);
    out.push_str("_host(");
    out.push_str(scalar);
    out.push_str("* h_a, ");
    push_extents(out, "const int ", ndim);
    out.push_str(", const int i_t)\n{\n");
    out.push_str("    const size_t cells = ");
    for d in 0..ndim {
        if d > 0 {
            out.push_str(" * ");
        }
        out.push_str("(size_t)(i_s");
        push_uint(out, (ndim - d) as u64);
        out.push_str(" + ");
        push_uint(out, 2 * rad as u64);
        out.push(')');
    }
    out.push_str(";\n");
    writeln!(out, "    const size_t bytes = cells * sizeof({scalar});")?;
    out.push_str("    ");
    out.push_str(scalar);
    out.push_str(
        "* d_buf[2];\n    cudaMalloc(&d_buf[0], bytes);\n    cudaMalloc(&d_buf[1], bytes);\n",
    );
    out.push_str("    cudaMemcpy(d_buf[0], h_a, bytes, cudaMemcpyHostToDevice);\n");
    out.push_str("    cudaMemcpy(d_buf[1], h_a, bytes, cudaMemcpyHostToDevice);\n\n");
    // One thread per cell of the block: CUDA's x is the innermost blocked
    // extent. The plan blocks the ndim − 1 ≤ 2 non-streaming dimensions,
    // so z is 1.
    let block = config.bs().iter().rev().copied().chain([1, 1]).take(3);
    out.push_str("    dim3 block(");
    for (d, extent) in block.enumerate() {
        if d > 0 {
            out.push_str(", ");
        }
        push_uint(out, extent as u64);
    }
    out.push_str(");\n");
    out.push_str("    dim3 grid(");
    match u64::try_from(grid_dim) {
        Ok(blocks) => push_uint(out, blocks),
        // No device launches 2^64 blocks; the count still prints exactly.
        Err(_) => out.push_str(&grid_dim.to_string()),
    }
    out.push_str(", 1, 1);\n\n");

    writeln!(
        out,
        "    /* One kernel launch per temporal block of bT = {bt} time-steps. */"
    )?;
    out.push_str("    int t = 0;\n");
    writeln!(out, "    for (; t + {bt} <= i_t; t += {bt}) {{")?;
    launch(out, bt);
    out.push_str("    }\n\n");

    out.push_str("    /* Remainder handling (Section 4.3.1): statically generated branches\n");
    out.push_str("       shorten the final temporal block when (i_t % bT) != 0 or the launch\n");
    out.push_str("       parity would leave the result in the wrong buffer. */\n");
    for remainder in 1..bt {
        out.push_str("    if (i_t - t == ");
        push_uint(out, remainder as u64);
        out.push_str(") {\n");
        launch(out, remainder);
        out.push_str("        t += ");
        push_uint(out, remainder as u64);
        out.push_str(";\n    }\n");
    }
    out.push('\n');
    out.push_str("    cudaMemcpy(h_a, d_buf[t % 2], bytes, cudaMemcpyDeviceToHost);\n");
    out.push_str("    cudaFree(d_buf[0]);\n    cudaFree(d_buf[1]);\n");
    out.push_str("    return cudaGetLastError() == cudaSuccess ? 0 : -1;\n}\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilProblem};

    fn host_for(bt: usize, ndim: usize) -> String {
        let def = if ndim == 2 {
            suite::j2d5pt()
        } else {
            suite::star3d(1)
        };
        let interior = if ndim == 2 {
            vec![2048, 2048]
        } else {
            vec![256, 256, 256]
        };
        let bs: Vec<usize> = if ndim == 2 { vec![256] } else { vec![32, 16] };
        let problem = StencilProblem::new(def.clone(), &interior, 100).unwrap();
        let config = BlockConfig::new(bt, &bs, Some(128), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        generate_host(&plan)
    }

    #[test]
    fn host_launches_one_kernel_per_temporal_block() {
        let src = host_for(4, 2);
        assert!(src.contains("for (; t + 4 <= i_t; t += 4)"));
        assert!(src.contains("an5d_j2d5pt_bt4<<<grid, block>>>"));
        assert!(src.contains("d_buf[t % 2], d_buf[(t + 4) % 2]"));
        assert!(src.contains("dim3 block(256, 1, 1);"));
    }

    #[test]
    fn host_emits_static_remainder_branches() {
        let src = host_for(4, 2);
        for remainder in 1..4 {
            assert!(
                src.contains(&format!("if (i_t - t == {remainder})")),
                "missing branch for remainder {remainder}"
            );
            assert!(src.contains(&format!("an5d_j2d5pt_bt{remainder}<<<grid, block>>>")));
        }
        // bT = 1 needs no remainder branch at all.
        let src1 = host_for(1, 2);
        assert!(!src1.contains("if (i_t - t =="));
    }

    #[test]
    fn host_allocates_double_buffers_and_copies_back() {
        let src = host_for(2, 2);
        assert_eq!(src.matches("cudaMalloc").count(), 2);
        assert!(src.contains("cudaMemcpyHostToDevice"));
        assert!(src.contains("cudaMemcpy(h_a, d_buf[t % 2], bytes, cudaMemcpyDeviceToHost)"));
        assert_eq!(src.matches("cudaFree").count(), 2);
    }

    #[test]
    fn estimated_length_covers_every_suite_host() {
        let mut hosts = 0;
        for def in suite::all_benchmarks() {
            let (interior, bs, bts): (&[usize], &[usize], _) = match def.ndim() {
                2 => (&[2048, 2048], &[512], 1..=16),
                _ => (&[256, 256, 256], &[64, 32], 1..=8),
            };
            let problem = StencilProblem::new(def.clone(), interior, 100).unwrap();
            for precision in [Precision::Single, Precision::Double] {
                for bt in bts.clone() {
                    let config = BlockConfig::new(bt, bs, None, precision).unwrap();
                    let Ok(plan) =
                        KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d())
                    else {
                        continue;
                    };
                    let len = generate_host(&plan).len();
                    let estimate = estimated_len(&plan);
                    assert!(
                        (len..2 * len).contains(&estimate),
                        "{} bT={bt}: {len} bytes, estimated {estimate}",
                        def.name()
                    );
                    hosts += 1;
                }
            }
        }
        assert!(hosts > 400, "{hosts} hosts");
    }

    #[test]
    fn three_dimensional_host_uses_two_block_dimensions() {
        let src = host_for(2, 3);
        assert!(src.contains("dim3 block(16, 32, 1);"));
        assert!(src.contains("const int i_s3"));
    }
}
