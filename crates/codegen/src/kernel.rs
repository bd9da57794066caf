//! Kernel-side CUDA code generation (Fig. 5 structure).

use crate::{push_comment_text, push_int, push_kernel_name, push_uint};
use an5d_expr::{LiteralType, Offset};
use an5d_grid::Precision;
use an5d_plan::{KernelPlan, MacroOp, Phase, RegSlot, RegWindow};
use std::cell::RefCell;
use std::fmt::{self, Write};
use std::ops::Range;

/// Generate the kernel source for a plan.
///
/// The emitted file contains, in order: configuration defines, the
/// shared-memory load wrapper (Section 4.3.2 disables vectorised shared
/// accesses by routing every load through a device function), the `LOAD` /
/// `CALC1..CALC{bT−1}` / `STORE` macros and the tail's guards, and the
/// kernel body with its head, inner and tail phases, printed in one pass
/// into one buffer sized up front ([`estimated_len`]).
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
/// Bytes of an op line outside its register arguments, by op kind, and a tail line's extra.
const SYNC_LINE_BYTES: usize = 25;
const LOAD_LINE_BYTES: usize = 45;
const CALC_LINE_BYTES: usize = 20;
const STORE_LINE_BYTES: usize = 35;
const TAIL_LINE_BYTES: usize = 125;

/// The kernel file's length, closed-form in `(bT, rad)` and the update
/// expression's flop count, so the output is allocated once: the walk
/// prints O(bT²·rad) op lines of O(rad) register arguments each.
fn estimated_len(plan: &KernelPlan) -> usize {
    let def = plan.def();
    let (bt, rad) = (plan.config().bt(), def.radius());
    let unroll = 2 * rad + 1;
    let head = plan.schedule().head_planes();
    // The head LOADs its planes and every other stream's `rad` first ones
    // and runs stage T on its last `head − (T+1)·rad` fronts; the inner
    // loop and the tail run every stage, and the tail adds guards and LOADs.
    let loads = head + (bt - 1) * rad + 2 * unroll;
    let calcs = (bt - 1) * (head - rad + 2 * unroll) - rad * bt * (bt - 1) / 2;
    let stores = head - (bt + 1) * rad + 2 * unroll;
    let window = REG_BYTES * unroll;
    let body = BODY_BYTES_PER_FLOP[def.ndim() - 2] * def.flops_per_cell();
    PRELUDE_BYTES
        + bt * (CALC_MACRO_BYTES + window + body)
        + (loads + calcs + stores) * SYNC_LINE_BYTES
        + loads * (LOAD_LINE_BYTES + REG_BYTES)
        + calcs * (CALC_LINE_BYTES + REG_BYTES + window)
        + stores * (STORE_LINE_BYTES + window)
        + (bt + 1) * unroll * TAIL_LINE_BYTES
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
    out.push_str("__device__ __forceinline__ ");
    out.push_str(scalar);
    out.push_str(" an5d_sm_load(const ");
    out.push_str(scalar);
    out.push_str("* buf, int idx) {\n    return buf[idx];\n}\n\n");

    write_macros(out, plan, scalar);

    // Kernel signature.
    out.push_str("__global__ void ");
    push_kernel_name(out, plan, bt);
    out.push_str("(const ");
    out.push_str(scalar);
    out.push_str("* __restrict__ a_in, ");
    out.push_str(scalar);
    out.push_str("* __restrict__ a_out, ");
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

    // A stream of `head_planes` or more runs the head and the inner loop.
    let head = schedule.head_planes() as u64;
    let mut lines = OpLines::new(bt, unroll);
    out.push_str("    /* Head phase: statically generated pipeline fill (Section 4.3.2) */\n");
    out.push_str("    int s = stream_begin;\n    if (stream_end - stream_begin >= ");
    push_uint(out, head);
    out.push_str(") {\n");
    for op in schedule.ops(Phase::Head) {
        out.push_str("    ");
        lines.write_op(out, op, Phase::Head);
    }
    out.push_str("\n        /* Inner phase: steady state, unrolled by the register window */\n");
    out.push_str("        for (s += ");
    push_uint(out, head);
    out.push_str("; ");
    push_plane(out, unroll as i64 - 1, Phase::Inner);
    out.push_str(" < stream_end; s += ");
    push_uint(out, unroll as u64);
    out.push_str(") {\n");
    for op in schedule.ops(Phase::Inner) {
        out.push_str("        ");
        lines.write_op(out, op, Phase::Inner);
    }
    out.push_str(
        "        }\n    }\n\n    /* Tail phase: pipeline drain, guarded by the stream's ends */\n",
    );
    out.push_str("    for (; ");
    push_plane(out, -(schedule.drain_planes() as i64), Phase::Tail);
    out.push_str(" < stream_end; s += ");
    push_uint(out, unroll as u64);
    out.push_str(") {\n");
    for op in schedule.ops(Phase::Tail) {
        out.push_str("    ");
        lines.write_op(out, op, Phase::Tail);
    }
    out.push_str("    }\n}\n");
    Ok(())
}

/// Emit the `LOAD`, `CALC1..CALC{bT−1}` and `STORE` macros and the guards.
fn write_macros(out: &mut String, plan: &KernelPlan, scalar: &str) {
    let rad = plan.def().radius();
    let unroll = 2 * rad + 1;
    let bt = plan.config().bt();

    out.push_str("/* LOAD: fetch one sub-plane cell of a stream from global memory */\n");
    out.push_str(concat!(
        "#define LOAD(reg, sidx) do { reg = a_in[an5d_global_index((sidx), tx)]; } while (0)\n\n",
        "/* Guards of the tail: a plane of the stream, and one that\n",
        "   every time-step updates (the AN5D_RAD planes at either end are frozen) */\n",
        "#define IN_STREAM(sidx) ((sidx) >= stream_begin && (sidx) < stream_end)\n",
        "#define UPDATABLE(sidx) ((sidx) >= stream_begin + AN5D_RAD && (sidx) < stream_end - AN5D_RAD)\n\n",
    ));

    // CALC_T computes time-step T < bT, STORE bT. The update expression is
    // rendered once; the other shared buffer's body is a copy with its
    // buffer digits rewritten, and later macros copy their buffer's body.
    let mut bodies: [Option<Range<usize>>; 2] = [None, None];
    let mut digits = Vec::new();
    for t in 1..=bt {
        let buffer = plan.schedule().shared_buffer(t);
        let store = t == bt;
        out.push_str(if store { "/* STORE" } else { "/* CALC" });
        if !store {
            push_uint(out, t as u64);
        }
        out.push_str(": compute one sub-plane of time-step ");
        push_uint(out, t as u64);
        out.push_str(" from the ");
        push_uint(out, unroll as u64);
        out.push_str(" source registers of time-step ");
        push_uint(out, t as u64 - 1);
        if store {
            out.push_str(" and write it to global memory */\n#define STORE(sidx, ");
        } else {
            out.push_str(" */\n#define CALC");
            push_uint(out, t as u64);
            out.push_str("(dst, ");
        }
        push_params(out, unroll);
        out.push_str(") do { \\\n    ");
        out.push_str(scalar);
        out.push_str(" an5d_result = ");
        let start = out.len();
        match (&bodies[buffer], &bodies[1 - buffer]) {
            (Some(body), _) => out.extend_from_within(body.clone()),
            (None, Some(other)) => copy_for_buffer(out, other.clone(), &digits, buffer),
            (None, None) => digits = write_update_expression(out, plan, buffer),
        }
        bodies[buffer].get_or_insert(start..out.len());
        if store {
            out.push_str("; \\\n    if (an5d_in_compute_region(tx)) a_out[an5d_global_index((sidx), tx)] = an5d_result; \\\n} while (0)\n\n");
        } else {
            out.push_str("; \\\n    sm");
            push_uint(out, buffer as u64);
            out.push_str("[tx] = an5d_result; \\\n    dst = an5d_result; \\\n} while (0)\n\n");
        }
    }
}

/// Append the stencil update expression of a CALC macro reading shared
/// buffer `sm{buffer}`: streaming-column neighbours come from the macro's
/// register parameters `r0..`, in-plane neighbours from shared memory;
/// constants are literals of the kernel's scalar type, so a `double`
/// kernel computes with the definition's own coefficients.
/// Returns the offsets in `out` of the buffer digits it printed, one per
/// shared-memory leaf, for [`copy_for_buffer`].
fn write_update_expression(out: &mut String, plan: &KernelPlan, buffer: usize) -> Vec<usize> {
    let def = plan.def();
    let rad = def.radius() as i64;
    let ndim = def.ndim();
    let digit = buffer_digit(buffer);
    let digits = RefCell::new(Vec::new());
    let access = |out: &mut String, offset: Offset| {
        if offset.in_plane_components().iter().all(|&c| c == 0) {
            out.push('r');
            push_int(out, i64::from(offset.streaming_component()) + rad);
            return;
        }
        out.push_str("an5d_sm_load(sm");
        digits.borrow_mut().push(out.len());
        out.push(digit);
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
    let literals = match plan.config().precision() {
        Precision::Single => LiteralType::Float,
        Precision::Double => LiteralType::Double,
    };
    def.expr().write_c(out, literals, &access);
    digits.into_inner()
}

/// The digit naming shared buffer `sm{buffer}`: AN5D has two.
fn buffer_digit(buffer: usize) -> char {
    assert!(buffer < 2, "shared buffer {buffer}: AN5D double-buffers");
    char::from(b'0' + buffer as u8)
}

/// Append a copy of the update expression at `out[body]`, rendered for the
/// other buffer, with each of its buffer digits (offsets in `out`, from
/// [`write_update_expression`]) naming `sm{buffer}` instead.
fn copy_for_buffer(out: &mut String, body: Range<usize>, digits: &[usize], buffer: usize) {
    let digit = buffer_digit(buffer);
    let mut from = body.start;
    for &at in digits {
        out.extend_from_within(from..at);
        out.push(digit);
        from = at + 1;
    }
    out.extend_from_within(from..body.end);
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
/// `stream_begin` in the head and the loop variable `s` in the inner loop
/// and the tail.
fn push_plane(out: &mut String, plane: i64, phase: Phase) {
    let base = if phase == Phase::Head {
        "stream_begin"
    } else {
        "s"
    };
    out.push_str(base);
    if plane != 0 {
        out.push_str(if plane < 0 { " - " } else { " + " });
        push_uint(out, plane.unsigned_abs());
    }
}

/// Append a tail op's guard, `if (GUARD(plane)) `; the head and the inner
/// loop have none.
fn push_guard(out: &mut String, guard: &str, plane: i64, phase: Phase) {
    if phase != Phase::Tail {
        return;
    }
    out.push_str("if (");
    out.push_str(guard);
    out.push('(');
    push_plane(out, plane, phase);
    out.push_str(")) ");
}

/// Append `LOAD(reg, plane);`, guarded by the plane being in the stream.
fn push_load(out: &mut String, dst: RegSlot, plane: i64, phase: Phase) {
    push_guard(out, "IN_STREAM", plane, phase);
    out.push_str("LOAD(");
    push_reg(out, dst);
    out.push_str(", ");
    push_plane(out, plane, phase);
    out.push_str(");");
}

/// The op-line printer of one kernel. A CALC call is a function of
/// `(T, dst slot)` and its sources, and repeats once per register window
/// in every phase, so it is printed once and copied after that: one entry
/// per `(T, slot)` holds the sources printed last and the call's bytes.
struct OpLines {
    unroll: usize,
    calcs: Vec<Option<(RegWindow, Range<usize>)>>,
}

impl OpLines {
    /// An empty table for `CALC1..CALC{bt − 1}` over `unroll` register slots.
    fn new(bt: usize, unroll: usize) -> Self {
        Self {
            unroll,
            calcs: vec![None; (bt - 1) * unroll],
        }
    }

    /// Append one macro call of the schedule as a source line, guarded in
    /// the tail: a LOAD by its plane being in the stream, a CALC or STORE
    /// by its plane being updatable, and a CALC of a frozen plane LOADs it
    /// instead. The byte ranges in the table index `out`,
    /// so every call of one table appends to the same buffer.
    fn write_op(&mut self, out: &mut String, op: MacroOp, phase: Phase) {
        out.push_str("    ");
        match op {
            MacroOp::Load { dst, plane } => push_load(out, dst, plane, phase),
            MacroOp::Calc {
                time_step,
                dst,
                srcs,
                plane,
            } => {
                push_guard(out, "UPDATABLE", plane, phase);
                let entry = &mut self.calcs[(time_step - 1) * self.unroll + dst.slot];
                match entry {
                    Some((printed, at)) if *printed == srcs => out.extend_from_within(at.clone()),
                    _ => {
                        let start = out.len();
                        out.push_str("CALC");
                        push_uint(out, time_step as u64);
                        out.push('(');
                        push_reg(out, dst);
                        out.push_str(", ");
                        push_window(out, srcs);
                        out.push_str(");");
                        *entry = Some((srcs, start..out.len()));
                    }
                }
                if phase == Phase::Tail {
                    out.push_str(" else ");
                    push_load(out, dst, plane, phase);
                }
            }
            MacroOp::Store { plane, regs } => {
                push_guard(out, "UPDATABLE", plane, phase);
                out.push_str("STORE(");
                push_plane(out, plane, phase);
                out.push_str(", ");
                push_window(out, regs);
                out.push_str(");");
            }
            MacroOp::Sync => out.push_str("__syncthreads();"),
        }
        out.push('\n');
    }
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

    /// The floating literals of a kernel's CALC bodies, each with whether
    /// an `f` suffix follows it.
    fn calc_literals(kernel: &str) -> Vec<(&str, bool)> {
        let mut literals = Vec::new();
        for body in kernel.split("an5d_result = ").skip(1) {
            let body = &body[..body.find("; \\").unwrap()];
            let bytes = body.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let starts_number = bytes[i].is_ascii_digit()
                    && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'));
                if !starts_number {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                if body[start..i].contains('.') {
                    literals.push((&body[start..i], bytes.get(i) == Some(&b'f')));
                }
            }
        }
        literals
    }

    #[test]
    fn literals_are_the_definitions_coefficients_in_the_kernels_type() {
        for def in suite::all_benchmarks() {
            let expr = def.expr();
            let magnitudes: Vec<u64> = (0..expr.node_count())
                .filter_map(|i| match expr.view(i) {
                    an5d_expr::Node::Const(c) => Some(c.abs().to_bits()),
                    _ => None,
                })
                .collect();
            let bs: &[usize] = if def.ndim() == 2 { &[256] } else { &[32, 32] };
            for precision in Precision::all() {
                let kernel = generate_kernel(&plan_for(def.clone(), 2, bs, precision));
                let literals = calc_literals(&kernel);
                // Both CALC macros print the whole expression.
                assert_eq!(literals.len(), 2 * magnitudes.len(), "{}", def.name());
                for (text, suffixed) in literals {
                    assert_eq!(
                        suffixed,
                        precision == Precision::Single,
                        "{}: {text}",
                        def.name()
                    );
                    let value: f64 = text.parse().unwrap();
                    assert!(
                        magnitudes.contains(&value.to_bits()),
                        "{} {precision}: {text} is no coefficient",
                        def.name()
                    );
                }
            }
        }
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
                    // A line is the op it calls first: a guarded CALC's
                    // LOAD of a frozen plane comes after it.
                    let mut printed = [0; 4];
                    for line in text.lines() {
                        let first = ["LOAD(", "CALC", "STORE(", "__syncthreads();"]
                            .map(|op| line.find(op).unwrap_or(usize::MAX));
                        if let Some(op) = (0..4)
                            .filter(|&op| first[op] < usize::MAX)
                            .min_by_key(|&op| first[op])
                        {
                            printed[op] += 1;
                        }
                    }
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
        // CALC1 ..= CALC{bT − 1}; the STORE computes time-step bT.
        for bt in [1usize, 4, 10] {
            let src = generate_kernel(&plan_for(suite::star2d(1), bt, &[512], Precision::Single));
            assert_eq!(count(&src, "#define CALC"), bt - 1, "bT={bt}");
            assert!(!src.contains(&format!("CALC{bt}(")), "bT={bt}");
            assert_eq!(count(&src, " an5d_result = "), bt, "bT={bt}");
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
        assert_eq!(count(&src, "dst = an5d_result"), 2);
    }

    #[test]
    fn kernel_has_head_inner_tail_phases_and_barriers() {
        let src = generate_kernel(&plan_for(suite::j2d5pt(), 4, &[256], Precision::Single));
        assert!(src.contains("Head phase"));
        assert!(src.contains("Inner phase"));
        assert!(src.contains("Tail phase"));
        // The head runs (bT + 1)·rad = 5 fronts rounded up to windows of 3;
        // the inner loop runs while its window's last front is in the
        // stream, the tail while the pipeline is: bT = 4, rad = 1 stores
        // the last plane (bT − 1)·rad = 3 fronts past the stream's end.
        assert!(src.contains("if (stream_end - stream_begin >= 6) {"));
        assert!(src.contains("for (s += 6; s + 2 < stream_end; s += 3)"));
        assert!(src.contains("for (; s - 3 < stream_end; s += 3)"));
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
        let base = if phase == Phase::Head {
            "stream_begin"
        } else {
            "s"
        };
        let plane = |p: i64| match p {
            0 => base.to_owned(),
            ..0 => format!("{base} - {}", -p),
            _ => format!("{base} + {p}"),
        };
        let guard = |name: &str, p: i64| match phase {
            Phase::Tail => format!("if ({name}({})) ", plane(p)),
            _ => String::new(),
        };
        let line = match op {
            MacroOp::Load { dst, plane: p } => {
                format!("{}LOAD({dst}, {});", guard("IN_STREAM", p), plane(p))
            }
            MacroOp::Calc {
                time_step,
                dst,
                srcs,
                plane: p,
            } => {
                let frozen = match phase {
                    Phase::Tail => {
                        format!(" else {}LOAD({dst}, {});", guard("IN_STREAM", p), plane(p))
                    }
                    _ => String::new(),
                };
                format!(
                    "{}CALC{time_step}({dst}, {srcs});{frozen}",
                    guard("UPDATABLE", p)
                )
            }
            MacroOp::Store { plane: p, regs } => {
                format!("{}STORE({}, {regs});", guard("UPDATABLE", p), plane(p))
            }
            MacroOp::Sync => "__syncthreads();".to_owned(),
        };
        format!("    {line}\n")
    }

    #[test]
    fn op_lines_match_the_formatted_reference() {
        let mut planes_below_s = 0;
        for (def, bs) in [
            (suite::j2d5pt(), &[512][..]),
            (suite::star2d(4), &[512][..]),
            (suite::star3d(2), &[32, 32][..]),
        ] {
            for bt in [1, 4, 7] {
                let plan = plan_for(def.clone(), bt, bs, Precision::Single);
                // One table for the whole kernel, as the printer keeps it:
                // most CALC lines are copies of a line printed earlier.
                let mut lines = OpLines::new(bt, plan.schedule().unroll());
                let (mut printed, mut reference) = (String::new(), String::new());
                for phase in [Phase::Head, Phase::Inner, Phase::Tail] {
                    for op in plan.schedule().ops(phase) {
                        lines.write_op(&mut printed, op, phase);
                        reference.push_str(&formatted_op(op, phase));
                    }
                }
                assert_eq!(printed, reference, "{} bT={bt}", def.name());
                assert!(!printed.contains("stream_end") && !printed.contains("+ -"));
                planes_below_s += count(&printed, "(s - ");
            }
        }
        assert!(planes_below_s > 0);
    }

    #[test]
    fn calc_ops_sharing_a_table_entry_print_their_own_text() {
        let calc = |first| MacroOp::Calc {
            time_step: 2,
            dst: RegSlot {
                time_step: 2,
                slot: 1,
            },
            srcs: RegWindow {
                time_step: 1,
                first,
                len: 3,
            },
            plane: 4,
        };
        let (a, b) = (calc(0), calc(2));
        let mut lines = OpLines::new(3, 3);
        let mut printed = String::new();
        for op in [a, b, a, a, b] {
            lines.write_op(&mut printed, op, Phase::Head);
        }
        let reference: String = [a, b, a, a, b]
            .map(|op| formatted_op(op, Phase::Head))
            .concat();
        assert_eq!(printed, reference);
        assert!(printed.contains("CALC2(reg_2_1, reg_1_0, reg_1_1, reg_1_2);"));
        assert!(printed.contains("CALC2(reg_2_1, reg_1_2, reg_1_0, reg_1_1);"));
    }

    /// The body of `#define CALC{t}`, between `an5d_result = ` and the
    /// end of its line.
    fn calc_body(src: &str, t: usize) -> &str {
        let define = src.split_once(&format!("#define CALC{t}(")).unwrap().1;
        let body = define.split_once(" an5d_result = ").unwrap().1;
        body.split_once("; \\\n").unwrap().0
    }

    #[test]
    fn the_second_buffers_body_differs_only_in_its_buffer_digit() {
        for (def, bs) in [
            (suite::j2d9pt_gol(), &[256][..]),
            (suite::box2d(2), &[256][..]),
            (suite::j3d27pt(), &[32, 32][..]),
            (suite::gradient2d(), &[256][..]),
        ] {
            // bT = 2 renders CALC1 for sm0 alone; bT = 3 renders CALC1 for
            // sm0 and copies it into CALC2 with every buffer digit sm1.
            let one = generate_kernel(&plan_for(def.clone(), 2, bs, Precision::Single));
            let two = generate_kernel(&plan_for(def.clone(), 3, bs, Precision::Single));
            let (sm0, sm1) = (calc_body(&one, 1), calc_body(&two, 2));
            assert_eq!(calc_body(&two, 1), sm0, "{}", def.name());
            assert!(sm0.contains("an5d_sm_load(sm0") && !sm0.contains("sm1"));
            assert_eq!(
                sm1,
                sm0.replace("an5d_sm_load(sm0", "an5d_sm_load(sm1"),
                "{}",
                def.name()
            );
            // … and the copy is what rendering for sm1 prints.
            let mut direct = String::new();
            let plan = plan_for(def.clone(), 2, bs, Precision::Single);
            let digits = write_update_expression(&mut direct, &plan, 1);
            assert_eq!(sm1, direct, "{}", def.name());
            assert_eq!(digits.len(), count(sm1, "an5d_sm_load(sm1"));
        }
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
