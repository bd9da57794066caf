//! Hand-written native sweeps: the independent expected output of the
//! exec workloads and the plain single-threaded baseline they are
//! stated against.
//!
//! Each kernel is the paper's input form (Fig. 4) written out by hand for
//! one Table-3 stencil: a full double-buffered sweep per time-step,
//! boundary cells held constant, coefficients as the frozen
//! `programs/*.c` spell them and operations in source order, every
//! intermediate rounded to the cell type. The repo's own reference
//! interpreter is the program under test's relative (and ~100× slower),
//! so it is used only for [`self_check`].

use an5d::{reference, suite, DoubleBuffer, Element, Grid, StencilDef};

use crate::stats::Rng;

/// One time-step of a stencil over row-major storage of `shape`
/// (interior plus a one-cell boundary per side).
pub type StepFn<T> = fn(src: &[T], dst: &mut [T], shape: &[usize]);

/// `j2d5pt`, double precision (`programs/j2d5pt.c`).
pub fn j2d5pt_step(src: &[f64], dst: &mut [f64], shape: &[usize]) {
    let (rows, cols) = (shape[0], shape[1]);
    for i in 1..rows - 1 {
        let up = &src[(i - 1) * cols..i * cols];
        let mid = &src[i * cols..(i + 1) * cols];
        let down = &src[(i + 1) * cols..(i + 2) * cols];
        let out = &mut dst[i * cols..(i + 1) * cols];
        for j in 1..cols - 1 {
            out[j] = (5.1 * up[j]
                + 12.1 * mid[j - 1]
                + 15.0 * mid[j]
                + 12.2 * mid[j + 1]
                + 5.2 * down[j])
                / 118.0;
        }
    }
}

/// `gradient2d`, single precision (`programs/gradient2d.c`): square
/// root, division, differences written twice — nothing a linear-form
/// fast path can take.
pub fn gradient2d_step(src: &[f32], dst: &mut [f32], shape: &[usize]) {
    let (rows, cols) = (shape[0], shape[1]);
    for i in 1..rows - 1 {
        let up = &src[(i - 1) * cols..i * cols];
        let mid = &src[i * cols..(i + 1) * cols];
        let down = &src[(i + 1) * cols..(i + 2) * cols];
        let out = &mut dst[i * cols..(i + 1) * cols];
        for j in 1..cols - 1 {
            let c = mid[j];
            out[j] = 0.5 * c
                + 1.0
                    / (1.0
                        + (c - down[j]) * (c - down[j])
                        + (c - up[j]) * (c - up[j])
                        + (c - mid[j + 1]) * (c - mid[j + 1])
                        + (c - mid[j - 1]) * (c - mid[j - 1]))
                        .sqrt();
        }
    }
}

/// `star3d1r`, single precision (`programs/star3d1r.c`). The weights are
/// stored as `f64` and rounded to `f32` once, as the generated kernel's
/// `float` literals are.
pub fn star3d1r_step(src: &[f32], dst: &mut [f32], shape: &[usize]) {
    const C: f32 = 0.4_f64 as f32;
    const W: [f32; 6] = [
        0.028_571_428_571_428_57_f64 as f32,
        0.057_142_857_142_857_14_f64 as f32,
        0.085_714_285_714_285_7_f64 as f32,
        0.114_285_714_285_714_28_f64 as f32,
        0.142_857_142_857_142_85_f64 as f32,
        0.171_428_571_428_571_4_f64 as f32,
    ];
    let (planes, rows, cols) = (shape[0], shape[1], shape[2]);
    let plane = rows * cols;
    for i in 1..planes - 1 {
        for j in 1..rows - 1 {
            let at = i * plane + j * cols;
            let mid = &src[at..at + cols];
            let below = &src[at + plane..at + plane + cols];
            let above = &src[at - plane..at - plane + cols];
            let south = &src[at + cols..at + 2 * cols];
            let north = &src[at - cols..at];
            let out = &mut dst[at..at + cols];
            for k in 1..cols - 1 {
                out[k] = C * mid[k]
                    + W[0] * below[k]
                    + W[1] * above[k]
                    + W[2] * south[k]
                    + W[3] * north[k]
                    + W[4] * mid[k + 1]
                    + W[5] * mid[k - 1];
            }
        }
    }
}

/// Run `steps` double-buffered native sweeps from `initial`.
pub fn run_native<T: Element>(step: StepFn<T>, initial: &Grid<T>, steps: usize) -> Grid<T> {
    let mut current = initial.clone();
    let mut next = initial.clone();
    for _ in 0..steps {
        step(current.as_slice(), next.as_mut_slice(), initial.shape());
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// A grid of `shape` filled with seeded uniform values in `[0, 1)` — the
/// exec workloads' input, made from `--seed` and nothing else.
pub fn seeded_grid<T: Element>(shape: &[usize], rng: &mut Rng) -> Grid<T> {
    let mut grid = Grid::<T>::zeros(shape);
    for cell in grid.as_mut_slice() {
        *cell = T::from_f64(rng.unit());
    }
    grid
}

fn agrees_with_reference<T: Element>(
    def: &StencilDef,
    step: StepFn<T>,
    interior: &[usize],
    steps: usize,
) -> bool {
    let shape: Vec<usize> = interior.iter().map(|e| e + 2 * def.radius()).collect();
    let initial = seeded_grid::<T>(&shape, &mut Rng::new(0x0AC1E));
    let mut buffer = DoubleBuffer::new(initial.clone());
    reference::run_reference_on(def, &mut buffer, steps);
    run_native(step, &initial, steps) == buffer.into_current()
}

/// Start-up self-check: every native kernel must reproduce the repo's
/// naive interpreter bit for bit on a small problem. Returns the names
/// of the kernels that do not.
pub fn self_check() -> Vec<&'static str> {
    let mut wrong = Vec::new();
    if !agrees_with_reference::<f64>(&suite::j2d5pt(), j2d5pt_step, &[64, 64], 5) {
        wrong.push("j2d5pt");
    }
    if !agrees_with_reference::<f32>(&suite::gradient2d(), gradient2d_step, &[64, 64], 5) {
        wrong.push("gradient2d");
    }
    if !agrees_with_reference::<f32>(&suite::star3d(1), star3d1r_step, &[24, 24, 24], 5) {
        wrong.push("star3d1r");
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_kernels_match_the_reference_interpreter() {
        assert_eq!(self_check(), Vec::<&str>::new());
    }

    #[test]
    fn boundary_cells_stay_constant() {
        let initial = seeded_grid::<f64>(&[10, 12], &mut Rng::new(3));
        let after = run_native(j2d5pt_step, &initial, 3);
        assert_eq!(after.get(&[0, 5]), initial.get(&[0, 5]));
        assert_eq!(after.get(&[9, 11]), initial.get(&[9, 11]));
        assert_ne!(after.get(&[4, 4]), initial.get(&[4, 4]));
    }
}
