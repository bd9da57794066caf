//! CUDA host and kernel code generation for AN5D blocking plans
//! (Section 4.3 of the paper).
//!
//! The generator turns a [`an5d_plan::KernelPlan`] into the two source
//! files the original framework emits:
//!
//! * a **kernel** file containing the macro definitions (`LOAD`,
//!   `CALC1 … CALC{bT−1}`, and a `STORE` that computes time-step `bT` and
//!   writes it), the double-buffered shared-memory declarations, the fixed
//!   register file, and the three phases of Fig. 5 (statically unrolled
//!   head, the register-window-unrolled steady-state loop, and a tail loop
//!   of guarded register windows);
//! * a **host** file with the repeated kernel invocations, one per temporal
//!   block, including the shortened final block that handles
//!   `I_T mod bT ≠ 0` and the buffer-parity adjustment of Section 4.3.1.
//!
//! It prints AN5D's kernel only — fixed registers and two shared buffers —
//! which is the kernel of both AN5D schemes. A plan under the STENCILGEN
//! scheme would come out as a hybrid (its `bT` buffers declared, AN5D's two
//! used), so a caller that takes the scheme from outside (the service's
//! `/codegen`) refuses it before calling [`generate`].
//!
//! The kernel file is printed in one pass into one buffer, sized up front
//! from `(bT, rad)` and the update expression's flop count, and each
//! distinct piece of text is printed once and copied after that:
//!
//! * the body comes straight from the schedule's lazy walk,
//!   [`an5d_plan::KernelSchedule::ops`]. A CALC call is a function of
//!   `(T, dst slot)` and its sources, so a table of `bT × (2·rad + 1)`
//!   entries holds the sources printed under each key and the byte range
//!   of the call; equal sources copy those bytes, different ones are
//!   printed and replace the entry;
//! * the update expression is rendered once, through
//!   [`an5d_expr::Expr::write_c`], which appends each leaf in place; the
//!   other shared buffer's macro body is a copy with the recorded
//!   `sm0`/`sm1` digits rewritten, and later CALC macros copy the body of
//!   their buffer;
//! * register names, plane indices and the host's per-`bT` launches go
//!   through a small integer writer; `core::fmt` prints only lines that
//!   occur once per file.
//!
//! Stencil names are free-form: the kernel identifier maps every
//! byte outside `[A-Za-z0-9_]` to `_`, and the header comments print
//! control characters as spaces. The walk it prints is checked by a
//! dataflow oracle (`an5d-plan`'s `tests/schedule_oracle.rs`): over
//! concrete streams, every CALC and STORE reads the previous time step's
//! `2·rad + 1` planes around its own, and every written plane is stored
//! once. Nothing in the workspace compiles or runs the generated code, and
//! the `an5d-gpusim` executor reads only the schedule's `syncs_per_plane`,
//! so the text itself is checked structurally (tests assert exactly two
//! shared buffers, `bT − 1` CALC macros and a computing STORE, no register
//! shifting, a `2·rad + 1`-way unrolled steady state, per-time-step
//! barriers and one printed line per op of the walk) and pinned byte for
//! byte by `tests/golden_cuda.txt`.
//!
//! # Example
//!
//! ```
//! use an5d_codegen::generate;
//! use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
//! use an5d_stencil::{suite, StencilProblem};
//! use an5d_grid::Precision;
//!
//! let def = suite::j2d5pt();
//! let problem = StencilProblem::new(def.clone(), &[1024, 1024], 100).unwrap();
//! let config = BlockConfig::new(4, &[256], Some(256), Precision::Single).unwrap();
//! let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
//! let code = generate(&plan);
//! assert!(code.kernel_source.contains("__global__"));
//! assert!(code.host_source.contains("cudaMalloc"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod kernel;

use an5d_plan::KernelPlan;

/// Append the decimal digits of `n` (what `format!("{n}")` prints) without
/// going through `core::fmt`.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Append `n` in decimal, with a leading `-` when negative.
fn push_int(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_uint(out, n.unsigned_abs());
}

/// Append a stencil name inside a `//` comment: control characters
/// become spaces, so a name cannot end the comment line and start a source
/// line of its own.
fn push_comment_text(out: &mut String, text: &str) {
    out.extend(text.chars().map(|c| if c.is_control() { ' ' } else { c }));
}

/// Generated CUDA sources for one stencil/configuration pair.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CudaCode {
    /// Name of the generated kernel function.
    pub kernel_name: String,
    /// The `.cu` kernel source.
    pub kernel_source: String,
    /// The host-side driver source.
    pub host_source: String,
}

impl CudaCode {
    /// Total number of generated source lines (both files).
    #[must_use]
    pub fn total_lines(&self) -> usize {
        self.kernel_source.lines().count() + self.host_source.lines().count()
    }
}

/// Generate CUDA host and kernel code for a plan.
#[must_use]
pub fn generate(plan: &KernelPlan) -> CudaCode {
    CudaCode {
        kernel_name: kernel_name_for(plan),
        kernel_source: kernel::generate_kernel(plan),
        host_source: host::generate_host(plan),
    }
}

/// The generated kernel's identifier, e.g. `an5d_j2d5pt_bt4`.
#[must_use]
pub fn kernel_name_for(plan: &KernelPlan) -> String {
    let mut name = String::new();
    push_kernel_name(&mut name, plan, plan.config().bt());
    name
}

/// Append the identifier of `plan`'s stencil compiled for `bt` time-steps
/// per launch (the host's shortened final block launches `bt < bT`). Every
/// byte of the stencil name outside `[A-Za-z0-9_]` becomes `_`, so any name
/// yields one C identifier.
fn push_kernel_name(out: &mut String, plan: &KernelPlan, bt: usize) {
    out.push_str("an5d_");
    out.extend(plan.def().name().bytes().map(|b| {
        if b.is_ascii_alphanumeric() || b == b'_' {
            char::from(b)
        } else {
            '_'
        }
    }));
    out.push_str("_bt");
    push_uint(out, bt as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilDef, StencilProblem};

    fn plan(bt: usize) -> KernelPlan {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[1024, 1024], 100).unwrap();
        let config = BlockConfig::new(bt, &[256], Some(256), Precision::Single).unwrap();
        KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap()
    }

    #[test]
    fn generate_produces_both_sources() {
        let code = generate(&plan(4));
        assert_eq!(code.kernel_name, "an5d_j2d5pt_bt4");
        assert!(code.kernel_source.contains("an5d_j2d5pt_bt4"));
        assert!(code.host_source.contains("an5d_j2d5pt_bt4"));
        assert!(code.total_lines() > 50);
    }

    #[test]
    fn kernel_name_sanitises_dashes() {
        let def = suite::j2d9pt_gol();
        let problem = StencilProblem::new(def.clone(), &[1024, 1024], 10).unwrap();
        let config = BlockConfig::new(2, &[256], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        assert_eq!(kernel_name_for(&plan), "an5d_j2d9pt_gol_bt2");
    }

    #[test]
    fn remainder_launches_follow_the_naming_rule() {
        // A stencil whose own name ends in `_bt2`: rewriting the `_bt2` of
        // the full name would launch `an5d_heat_bt1_bt1` for the remainder.
        let def = StencilDef::new("heat_bt2", suite::j2d5pt().expr().clone()).unwrap();
        let problem = StencilProblem::new(def.clone(), &[1024, 1024], 10).unwrap();
        let config = BlockConfig::new(2, &[256], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let code = generate(&plan);
        assert_eq!(code.kernel_name, "an5d_heat_bt2_bt2");
        assert!(code.kernel_source.contains("void an5d_heat_bt2_bt2("));
        assert!(code
            .host_source
            .contains("an5d_heat_bt2_bt2<<<grid, block>>>"));
        assert!(code
            .host_source
            .contains("an5d_heat_bt2_bt1<<<grid, block>>>"));
    }

    #[test]
    fn integer_writer_prints_what_format_prints() {
        for n in [0, 9, 10, 99, 100, u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
        for n in [0, 9, -1, -3, -10, i64::MIN, i64::MAX] {
            let mut out = String::new();
            push_int(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
    }

    #[test]
    fn free_form_names_yield_one_identifier_and_one_comment_line() {
        let def = StencilDef::new("a b\n#define X 1", suite::j2d5pt().expr().clone()).unwrap();
        let problem = StencilProblem::new(def.clone(), &[1024, 1024], 10).unwrap();
        let config = BlockConfig::new(2, &[256], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let code = generate(&plan);
        let name = &code.kernel_name;
        assert_eq!(name, "an5d_a_b__define_X_1_bt2");
        assert!(name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        for source in [&code.kernel_source, &code.host_source] {
            assert!(!source
                .lines()
                .any(|line| line.trim_start().starts_with("#define X")));
        }
        assert!(code
            .kernel_source
            .contains(&format!("__global__ void {name}(")));
        assert!(code
            .host_source
            .contains(&format!("extern __global__ void {name}(")));
        assert!(code
            .host_source
            .contains(&format!("        {name}<<<grid, block>>>")));
    }
}
