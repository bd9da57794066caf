//! Double-buffered grid pair, matching the paper's `A[t % 2]` input form.

use crate::{Element, Grid, GridInit};

/// A pair of equally-shaped grids used for Jacobi-style double buffering.
///
/// The AN5D input form (Fig. 4 of the paper) writes `A[(t+1)%2]` from
/// `A[t%2]`; this type captures that pattern and tracks which buffer holds
/// the most recent time-step so executors cannot mix them up.
///
/// # Example
///
/// ```
/// use an5d_grid::{DoubleBuffer, Grid, GridInit};
///
/// let initial = Grid::<f64>::from_init(&[6, 6], GridInit::Hash { seed: 1 });
/// let mut buf = DoubleBuffer::new(initial);
/// assert_eq!(buf.steps_advanced(), 0);
/// buf.swap();
/// assert_eq!(buf.steps_advanced(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleBuffer<T> {
    grids: [Grid<T>; 2],
    /// Index of the buffer holding the most recently completed time-step.
    current: usize,
    steps: usize,
}

impl<T: Element> DoubleBuffer<T> {
    /// Create a double buffer whose current state is `initial`; the scratch
    /// buffer starts as a copy of it (so boundary cells are already correct
    /// in both buffers, as the paper's host code assumes).
    #[must_use]
    pub fn new(initial: Grid<T>) -> Self {
        let scratch = initial.clone();
        Self {
            grids: [initial, scratch],
            current: 0,
            steps: 0,
        }
    }

    /// Create a zero-initialised double buffer of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid; see [`Grid::zeros`].
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self::new(Grid::zeros(shape))
    }

    /// Create a double buffer initialised from a [`GridInit`] pattern.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid; see [`Grid::zeros`].
    #[must_use]
    pub fn from_init(shape: &[usize], init: GridInit) -> Self {
        Self::new(Grid::from_init(shape, init))
    }

    /// The grid holding the most recently completed time-step (`A[t % 2]`).
    #[must_use]
    pub fn current(&self) -> &Grid<T> {
        &self.grids[self.current]
    }

    /// The grid that the next time-step will be written into
    /// (`A[(t + 1) % 2]`).
    #[must_use]
    pub fn next(&self) -> &Grid<T> {
        &self.grids[1 - self.current]
    }

    /// Borrow both buffers at once: `(source, destination)`.
    pub fn split_mut(&mut self) -> (&Grid<T>, &mut Grid<T>) {
        let (a, b) = self.grids.split_at_mut(1);
        if self.current == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        }
    }

    /// Advance time by one step: the destination buffer becomes current.
    pub fn swap(&mut self) {
        self.current = 1 - self.current;
        self.steps += 1;
    }

    /// How many time-steps have been completed since construction.
    #[must_use]
    pub fn steps_advanced(&self) -> usize {
        self.steps
    }

    /// Parity of the buffer currently holding the result — `t % 2` in the
    /// paper's notation. The host-code generator needs this to decide whether
    /// a trailing partial temporal block must be folded in (Section 4.3.1).
    #[must_use]
    pub fn parity(&self) -> usize {
        self.current
    }

    /// Consume the buffer and return the grid holding the latest result.
    #[must_use]
    pub fn into_current(self) -> Grid<T> {
        let [a, b] = self.grids;
        if self.current == 0 {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_starts_at_step_zero_with_parity_zero() {
        let buf = DoubleBuffer::<f64>::zeros(&[4, 4]);
        assert_eq!(buf.steps_advanced(), 0);
        assert_eq!(buf.parity(), 0);
    }

    #[test]
    fn swap_alternates_parity_and_counts_steps() {
        let mut buf = DoubleBuffer::<f32>::zeros(&[4, 4]);
        buf.swap();
        assert_eq!(buf.parity(), 1);
        buf.swap();
        assert_eq!(buf.parity(), 0);
        assert_eq!(buf.steps_advanced(), 2);
    }

    #[test]
    fn split_mut_gives_disjoint_source_and_destination() {
        let mut buf = DoubleBuffer::new(Grid::<f64>::from_init(&[4, 4], GridInit::Constant(1.0)));
        {
            let (src, dst) = buf.split_mut();
            assert_eq!(src.get(&[1, 1]), 1.0);
            dst.set(&[1, 1], 9.0);
        }
        // before swap the current buffer is unchanged
        assert_eq!(buf.current().get(&[1, 1]), 1.0);
        buf.swap();
        assert_eq!(buf.current().get(&[1, 1]), 9.0);
        assert_eq!(buf.next().get(&[1, 1]), 1.0);
    }

    #[test]
    fn split_mut_respects_parity_after_swap() {
        let mut buf = DoubleBuffer::<f64>::zeros(&[3, 3]);
        buf.swap();
        {
            let (_, dst) = buf.split_mut();
            dst.set(&[0, 0], 5.0);
        }
        buf.swap();
        assert_eq!(buf.current().get(&[0, 0]), 5.0);
    }

    #[test]
    fn into_current_returns_latest_grid() {
        let mut buf = DoubleBuffer::<f64>::zeros(&[2, 2]);
        {
            let (_, dst) = buf.split_mut();
            dst.set(&[1, 1], 3.0);
        }
        buf.swap();
        let g = buf.into_current();
        assert_eq!(g.get(&[1, 1]), 3.0);
    }

    #[test]
    fn scratch_starts_as_copy_so_boundaries_are_preserved() {
        let buf = DoubleBuffer::new(Grid::<f64>::from_init(
            &[4, 4],
            GridInit::Linear {
                scale: 1.0,
                offset: 0.0,
            },
        ));
        assert_eq!(buf.next().get(&[0, 3]), 3.0);
        assert_eq!(buf.current().get(&[0, 3]), 3.0);
    }
}
