//! Kernel-side CUDA code generation (Fig. 5 structure).

use crate::{push_comment_text, push_int, push_kernel_name, push_uint};
use an5d_expr::Offset;
use an5d_plan::{KernelPlan, MacroOp, OptimizationClass, Phase, RegSlot, RegWindow};
use std::fmt::{self, Write};

/// Generate the kernel source for a plan.
///
/// The emitted file contains, in order: configuration defines, the
/// shared-memory load wrapper (Section 4.3.2 disables vectorised shared
/// accesses by routing every load through a device function), the `LOAD` /
/// `CALC1..bT` / `STORE` macros, and the kernel body with its head, inner
/// and tail phases. It is printed in one pass into one buffer sized up
/// front ([`estimated_len`]).
pub(crate) fn generate_kernel(plan: &KernelPlan) -> String {
    let mut out = String::with_capacity(estimated_len(plan));
    write_kernel(&mut out, plan).expect("writing to a String cannot fail");
    out
}

/// Bytes of the kernel file outside its CALC macros and its op lines.
const PRELUDE_BYTES: usize = 1_600;
/// Bytes of one CALC macro outside its parameter list and its body.
const CALC_MACRO_BYTES: usize = 240;
/// Bytes of a macro body per flop of the update expression (one operator
/// and one more leaf), for 2D and 3D stencils: a 3D shared-memory leaf
/// indexes two in-plane components.
const BODY_BYTES_PER_FLOP: [usize; 2] = [30, 45];
/// Bytes of one printed register argument (`reg_T_M, `).
const REG_BYTES: usize = 10;
/// Bytes of an op line outside its register arguments, by op kind.
const SYNC_LINE_BYTES: usize = 25;
const LOAD_LINE_BYTES: usize = 45;
const CALC_LINE_BYTES: usize = 20;
const STORE_LINE_BYTES: usize = 35;

/// The kernel file's length, closed-form in `(bT, rad)` and the update
/// expression's flop count, so the output is allocated once: the walk
/// prints O(bT²·rad) op lines of O(rad) register arguments each.
fn estimated_len(plan: &KernelPlan) -> usize {
    let def = plan.def();
    let (bt, rad) = (plan.config().bt(), def.radius());
    let unroll = 2 * rad + 1;
    let lag = bt * rad;
    let head = lag + unroll;
    // Head and inner phase each load every plane front they advance to;
    // CALC_T runs on `head − T·rad` fronts of the head, every front of the
    // inner loop and `rad·(bT − T)` of the tail, which sums over T to:
    let loads = head + unroll;
    let calcs = bt * (head + unroll - rad);
    let stores = 2 * unroll + lag;
    let window = REG_BYTES * unroll;
    let body = BODY_BYTES_PER_FLOP[def.ndim() - 2] * def.flops_per_cell();
    PRELUDE_BYTES
        + bt * (CALC_MACRO_BYTES + window + body)
        + (loads + calcs) * SYNC_LINE_BYTES
        + loads * (LOAD_LINE_BYTES + REG_BYTES)
        + calcs * (CALC_LINE_BYTES + REG_BYTES + window)
        + stores * (STORE_LINE_BYTES + window)
}

fn write_kernel(out: &mut String, plan: &KernelPlan) -> fmt::Result {
    let def = plan.def();
    let config = plan.config();
    let scalar = config.precision().cuda_type();
    let bt = config.bt();
    let rad = def.radius();
    let unroll = 2 * rad + 1;
    let nthr = plan.geometry().nthr;
    let buffers = plan.resources().shared_buffers;
    let smem_words_per_buffer = nthr * plan.class().resident_planes(rad);
    let schedule = plan.schedule();

    out.push_str("// Generated by AN5D-rs: stencil ");
    push_comment_text(out, def.name());
    writeln!(out, " ({}), {}", plan.class(), config)?;
    out.push_str(
        "// Kernel structure: head / inner / tail phases with fixed register allocation\n",
    );
    out.push_str("// and double-buffered shared memory (CGO 2020, Sections 4.1-4.3).\n");
    out.push_str("#include <cuda_runtime.h>\n\n");

    writeln!(out, "#define AN5D_BT {bt}")?;
    writeln!(out, "#define AN5D_RAD {rad}")?;
    writeln!(out, "#define AN5D_NTHR {nthr}")?;
    for (d, &bs) in config.bs().iter().enumerate() {
        writeln!(out, "#define AN5D_BS{} {}", d + 1, bs)?;
    }
    out.push('\n');

    // Shared-memory access wrapper (disables NVCC's vectorised shared loads).
    write!(
        out,
        "__device__ __forceinline__ {scalar} an5d_sm_load(const {scalar}* buf, int idx) {{\n    return buf[idx];\n}}\n\n"
    )?;

    write_macros(out, plan, scalar)?;

    // Kernel signature.
    out.push_str("__global__ void ");
    push_kernel_name(out, plan, bt);
    write!(
        out,
        "(const {scalar}* __restrict__ a_in, {scalar}* __restrict__ a_out, "
    )?;
    for d in (1..=def.ndim()).rev() {
        out.push_str("const int i_s");
        push_uint(out, d as u64);
        out.push_str(", ");
    }
    out.push_str("const int stream_begin, const int stream_end)\n{\n");

    // Shared memory: AN5D's two buffers (double buffering, Table 1).
    for b in 0..buffers {
        writeln!(
            out,
            "    __shared__ {scalar} sm{b}[{smem_words_per_buffer}];"
        )?;
    }
    out.push_str("    const int tx = threadIdx.x;\n");
    if def.ndim() == 3 {
        out.push_str("    const int ty = threadIdx.y;\n");
    }
    out.push('\n');

    // Fixed register file: bT streams × (2·rad + 1) slots, never shifted.
    out.push_str("    /* Fixed per-stream register windows (no shifting, Fig. 3 (b)) */\n");
    for time_step in 0..bt {
        out.push_str("    ");
        out.push_str(scalar);
        out.push(' ');
        push_window(
            out,
            RegWindow {
                time_step,
                first: 0,
                len: unroll,
            },
        );
        out.push_str(";\n");
    }
    out.push('\n');

    // Head phase.
    out.push_str("    /* Head phase: statically generated pipeline fill (Section 4.3.2) */\n");
    for op in schedule.ops(Phase::Head) {
        write_op(out, op, Phase::Head);
    }
    out.push('\n');

    // Inner phase.
    out.push_str("    /* Inner phase: steady state, unrolled by the register window */\n");
    write!(
        out,
        "    int s = stream_begin + {};\n    for (; s + {unroll} <= stream_end; s += {unroll}) {{\n",
        schedule.head_planes()
    )?;
    for op in schedule.ops(Phase::Inner) {
        out.push_str("    ");
        write_op(out, op, Phase::Inner);
    }
    out.push_str("    }\n\n");

    // Tail phase.
    out.push_str("    /* Tail phase: statically generated pipeline drain */\n");
    for op in schedule.ops(Phase::Tail) {
        write_op(out, op, Phase::Tail);
    }

    out.push_str("}\n");
    Ok(())
}

/// Emit the `LOAD`, `CALC1..bT` and `STORE` macro definitions.
fn write_macros(out: &mut String, plan: &KernelPlan, scalar: &str) -> fmt::Result {
    let rad = plan.def().radius();
    let unroll = 2 * rad + 1;
    let bt = plan.config().bt();

    out.push_str("/* LOAD: fetch one sub-plane cell of the T = 0 stream from global memory */\n");
    out.push_str(
        "#define LOAD(reg, sidx) do { reg = a_in[an5d_global_index((sidx), tx)]; } while (0)\n\n",
    );

    // One CALC macro per combined time-step; all go through the same
    // double-buffered shared memory, so the update expression differs only
    // in which of the two buffers it reads: it is rendered at the first
    // CALC reading each buffer and copied from there for the later ones.
    let mut bodies = [0..0, 0..0];
    for t in 1..=bt {
        let buffer = plan.schedule().shared_buffer(t);
        writeln!(
            out,
            "/* CALC{t}: compute one sub-plane of time-step {t} from the {unroll} source registers of time-step {} */",
            t - 1
        )?;
        if plan.class() == OptimizationClass::Associative {
            out.push_str(
                "/* associative stencil: evaluated as per-sub-plane partial summations */\n",
            );
        }
        write!(out, "#define CALC{t}(dst, ")?;
        push_params(out, unroll);
        write!(out, ") do {{ \\\n    {scalar} an5d_result = ")?;
        if bodies[buffer].is_empty() {
            let start = out.len();
            write_update_expression(out, plan, buffer);
            bodies[buffer] = start..out.len();
        } else {
            out.extend_from_within(bodies[buffer].clone());
        }
        write!(
            out,
            "; \\\n    sm{buffer}[tx] = an5d_result; \\\n    dst = an5d_result; \\\n}} while (0)\n\n"
        )?;
    }

    out.push_str("/* STORE: write one finished sub-plane of time-step bT to global memory */\n");
    out.push_str("#define STORE(sidx, ");
    push_params(out, unroll);
    write!(
        out,
        ") do {{ \\\n    if (an5d_in_compute_region(tx)) a_out[an5d_global_index((sidx), tx)] = r{rad}; \\\n}} while (0)\n\n"
    )
}

/// Append the stencil update expression of a CALC macro reading shared
/// buffer `sm{buffer}`: streaming-column neighbours come from the macro's
/// register parameters `r0..`, in-plane neighbours from shared memory.
fn write_update_expression(out: &mut String, plan: &KernelPlan, buffer: usize) {
    let def = plan.def();
    let rad = def.radius() as i64;
    let ndim = def.ndim();
    let access = |out: &mut String, offset: Offset| {
        if offset.in_plane_components().iter().all(|&c| c == 0) {
            out.push('r');
            push_int(out, i64::from(offset.streaming_component()) + rad);
            return;
        }
        out.push_str("an5d_sm_load(sm");
        push_uint(out, buffer as u64);
        if ndim == 2 {
            out.push_str(", tx + (");
        } else {
            out.push_str(", (ty + (");
            push_int(out, i64::from(offset.component(1)));
            out.push_str(")) * AN5D_BS2 + tx + (");
        }
        push_int(out, i64::from(offset.component(ndim - 1)));
        out.push_str("))");
    };
    def.expr().write_c(out, &access);
}

/// Append the macro parameter list `r0, r1, …, r{n − 1}`.
fn push_params(out: &mut String, n: usize) {
    for m in 0..n {
        if m > 0 {
            out.push_str(", ");
        }
        out.push('r');
        push_uint(out, m as u64);
    }
}

/// Append a register name, `reg_T_M`.
fn push_reg(out: &mut String, reg: RegSlot) {
    out.push_str("reg_");
    push_uint(out, reg.time_step as u64);
    out.push('_');
    push_uint(out, reg.slot as u64);
}

/// Append a register window as a macro argument list, `reg_T_a, reg_T_b, …`.
fn push_window(out: &mut String, window: RegWindow) {
    for (m, reg) in window.slots().enumerate() {
        if m > 0 {
            out.push_str(", ");
        }
        push_reg(out, reg);
    }
}

/// Append a plane index as the phase addresses it: relative to
/// `stream_begin` in the head, the loop variable `s` in the inner loop and
/// `stream_end` in the tail.
fn push_plane(out: &mut String, plane: i64, phase: Phase) {
    if phase == Phase::Inner && plane == 0 {
        out.push('s');
        return;
    }
    out.push_str(match phase {
        Phase::Inner => "s + ",
        Phase::Head => "stream_begin + ",
        Phase::Tail => "stream_end + ",
    });
    push_int(out, plane);
}

/// Write one macro call of the schedule as a source line.
fn write_op(out: &mut String, op: MacroOp, phase: Phase) {
    match op {
        MacroOp::Load { dst, plane } => {
            out.push_str("    LOAD(");
            push_reg(out, dst);
            out.push_str(", ");
            push_plane(out, plane, phase);
        }
        MacroOp::Calc {
            time_step,
            dst,
            srcs,
        } => {
            out.push_str("    CALC");
            push_uint(out, time_step as u64);
            out.push('(');
            push_reg(out, dst);
            out.push_str(", ");
            push_window(out, srcs);
        }
        MacroOp::Store { plane, regs } => {
            out.push_str("    STORE(");
            push_plane(out, plane, phase);
            out.push_str(", ");
            push_window(out, regs);
        }
        MacroOp::Sync => {
            out.push_str("    __syncthreads();\n");
            return;
        }
    }
    out.push_str(");\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilDef, StencilProblem};

    fn plan_for(def: StencilDef, bt: usize, bs: &[usize], precision: Precision) -> KernelPlan {
        let interior = match def.ndim() {
            2 => vec![2048, 2048],
            _ => vec![256, 256, 256],
        };
        let problem = StencilProblem::new(def.clone(), &interior, 100).unwrap();
        let config = BlockConfig::new(bt, bs, Some(256), precision).unwrap();
        KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap()
    }

    fn count(haystack: &str, needle: &str) -> usize {
        haystack.matches(needle).count()
    }

    #[test]
    fn printed_body_has_one_line_per_op_of_the_walk() {
        for (def, bs) in [
            (suite::j2d9pt(), &[512][..]),
            (suite::star3d(1), &[32, 32][..]),
        ] {
            for bt in [1, 4, 10] {
                let plan = plan_for(def.clone(), bt, bs, Precision::Single);
                let src = generate_kernel(&plan);
                let (_, body) = src.split_once("/* Head phase").unwrap();
                let (head, rest) = body.split_once("/* Inner phase").unwrap();
                let (inner, tail) = rest.split_once("/* Tail phase").unwrap();
                for (phase, text) in [
                    (Phase::Head, head),
                    (Phase::Inner, inner),
                    (Phase::Tail, tail),
                ] {
                    let printed = ["LOAD(", "CALC", "STORE(", "__syncthreads();"].map(|op| {
                        text.lines()
                            .filter(|line| line.trim_start().starts_with(op))
                            .count()
                    });
                    let mut walked = [0; 4];
                    for op in plan.schedule().ops(phase) {
                        walked[match op {
                            MacroOp::Load { .. } => 0,
                            MacroOp::Calc { .. } => 1,
                            MacroOp::Store { .. } => 2,
                            MacroOp::Sync => 3,
                        }] += 1;
                    }
                    assert_eq!(printed, walked, "{} bT={bt} {phase:?}", def.name());
                }
            }
        }
    }

    #[test]
    fn kernel_has_double_buffered_shared_memory() {
        let src = generate_kernel(&plan_for(suite::j2d5pt(), 4, &[256], Precision::Single));
        assert_eq!(count(&src, "__shared__ float sm"), 2);
        assert!(src.contains("sm0["));
        assert!(src.contains("sm1["));
    }

    #[test]
    fn kernel_defines_one_calc_macro_per_time_step() {
        for bt in [1usize, 4, 10] {
            let src = generate_kernel(&plan_for(suite::star2d(1), bt, &[512], Precision::Single));
            assert_eq!(count(&src, "#define CALC"), bt, "bT={bt}");
            assert!(src.contains(&format!("CALC{bt}(")), "bT={bt}");
        }
    }

    #[test]
    fn kernel_declares_fixed_register_windows() {
        let plan = plan_for(suite::j2d9pt(), 3, &[256], Precision::Single);
        let src = generate_kernel(&plan);
        // bT streams × (2·rad + 1) = 3 × 5 registers, all declared once.
        for t in 0..3 {
            for m in 0..5 {
                assert!(src.contains(&format!("reg_{t}_{m}")), "missing reg_{t}_{m}");
            }
        }
        // Fixed allocation: CALC writes its destination exactly once per
        // macro (`dst = an5d_result`), never shifting other registers.
        assert_eq!(count(&src, "dst = an5d_result"), 3);
    }

    #[test]
    fn kernel_has_head_inner_tail_phases_and_barriers() {
        let src = generate_kernel(&plan_for(suite::j2d5pt(), 4, &[256], Precision::Single));
        assert!(src.contains("Head phase"));
        assert!(src.contains("Inner phase"));
        assert!(src.contains("Tail phase"));
        assert!(src.contains("for (; s + 3 <= stream_end; s += 3)"));
        assert!(count(&src, "__syncthreads()") > 10);
    }

    #[test]
    fn kernel_scalar_type_follows_precision() {
        let single = generate_kernel(&plan_for(suite::j2d5pt(), 2, &[256], Precision::Single));
        assert!(single.contains("const float* __restrict__ a_in"));
        let double = generate_kernel(&plan_for(suite::j2d5pt(), 2, &[256], Precision::Double));
        assert!(double.contains("const double* __restrict__ a_in"));
        assert!(double.contains("__shared__ double sm0"));
    }

    #[test]
    fn star_stencil_reads_streaming_column_from_registers_only() {
        let src = generate_kernel(&plan_for(suite::star3d(1), 2, &[32, 32], Precision::Single));
        // CALC macro body: axial streaming neighbours are register params
        // r0/r2, the centre column r1; in-plane neighbours go through the
        // shared-memory wrapper.
        assert!(src.contains("an5d_sm_load(sm"));
        assert!(src.contains("r0"));
        assert!(src.contains("r2"));
    }

    #[test]
    fn box_stencil_mentions_partial_summation() {
        let src = generate_kernel(&plan_for(suite::box2d(1), 2, &[256], Precision::Single));
        assert!(src.contains("partial summations"));
    }

    #[test]
    fn shared_memory_loads_go_through_wrapper_function() {
        let src = generate_kernel(&plan_for(suite::j2d9pt_gol(), 2, &[256], Precision::Single));
        assert!(src.contains("__device__ __forceinline__ float an5d_sm_load"));
        // Every shared read in the CALC bodies uses the wrapper.
        assert!(count(&src, "an5d_sm_load(sm") >= 4);
    }

    #[test]
    fn three_dimensional_kernel_uses_two_thread_dimensions() {
        let src = generate_kernel(&plan_for(suite::j3d27pt(), 2, &[32, 16], Precision::Single));
        assert!(src.contains("const int ty = threadIdx.y;"));
        assert!(src.contains("AN5D_BS2"));
    }

    #[test]
    fn defines_reflect_configuration() {
        let src = generate_kernel(&plan_for(suite::j2d5pt(), 7, &[512], Precision::Single));
        assert!(src.contains("#define AN5D_BT 7"));
        assert!(src.contains("#define AN5D_RAD 1"));
        assert!(src.contains("#define AN5D_NTHR 512"));
        assert!(src.contains("#define AN5D_BS1 512"));
    }

    /// An op line as the printer wrote it through `format!` and the
    /// schedule's `Display` impls.
    fn formatted_op(op: MacroOp, phase: Phase) -> String {
        let plane = |p: i64| match phase {
            Phase::Inner if p == 0 => "s".to_owned(),
            Phase::Inner => format!("s + {p}"),
            Phase::Head => format!("stream_begin + {p}"),
            Phase::Tail => format!("stream_end + {p}"),
        };
        match op {
            MacroOp::Load { dst, plane: p } => format!("    LOAD({dst}, {});\n", plane(p)),
            MacroOp::Calc {
                time_step,
                dst,
                srcs,
            } => format!("    CALC{time_step}({dst}, {srcs});\n"),
            MacroOp::Store { plane: p, regs } => format!("    STORE({}, {regs});\n", plane(p)),
            MacroOp::Sync => "    __syncthreads();\n".to_owned(),
        }
    }

    #[test]
    fn op_lines_match_the_formatted_reference() {
        let mut negative_tail_planes = 0;
        for (def, bs) in [
            (suite::j2d5pt(), &[512][..]),
            (suite::star2d(4), &[512][..]),
            (suite::star3d(2), &[32, 32][..]),
        ] {
            for bt in [1, 4, 7] {
                let plan = plan_for(def.clone(), bt, bs, Precision::Single);
                for phase in [Phase::Head, Phase::Inner, Phase::Tail] {
                    for op in plan.schedule().ops(phase) {
                        let mut line = String::new();
                        write_op(&mut line, op, phase);
                        assert_eq!(line, formatted_op(op, phase), "{} bT={bt}", def.name());
                        negative_tail_planes += usize::from(line.contains("stream_end + -"));
                    }
                }
            }
        }
        assert!(negative_tail_planes > 0);
    }

    #[test]
    fn estimated_length_covers_every_suite_kernel() {
        let mut kernels = 0;
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
                    let len = generate_kernel(&plan).len();
                    let estimate = estimated_len(&plan);
                    assert!(
                        (len..2 * len).contains(&estimate),
                        "{} bT={bt}: {len} bytes, estimated {estimate}",
                        def.name()
                    );
                    kernels += 1;
                }
            }
        }
        assert!(kernels > 400, "{kernels} kernels");
    }
}
