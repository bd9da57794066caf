//! Deterministic grid initialisation patterns.

/// Deterministic initialisation pattern for grid cells.
///
/// The AN5D evaluation initialises stencil inputs with synthetic data; for
/// reproducibility (and so that the blocked-vs-naive equivalence tests are
/// meaningful) every pattern here is a pure function of the cell index, not
/// of any global RNG state. The [`GridInit::Hash`] pattern provides
/// pseudo-random-looking but fully deterministic values.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum GridInit {
    /// All cells equal to the given constant.
    Constant(f64),
    /// `offset + scale · (i0 + i1 + …)` — a smooth linear ramp.
    Linear {
        /// Multiplier applied to the index sum.
        scale: f64,
        /// Additive offset.
        offset: f64,
    },
    /// A separable sinusoidal bump, well-behaved for diffusion-style stencils.
    Sinusoid {
        /// Amplitude of the bump.
        amplitude: f64,
    },
    /// Deterministic pseudo-random values in `[0, 1)` derived from a seed and
    /// the cell index via a 64-bit mix function (no RNG state involved).
    Hash {
        /// Seed mixed into every cell value.
        seed: u64,
    },
    /// A centred Gaussian-like hot spot, as used by the heat-diffusion
    /// example.
    HotSpot {
        /// Peak value at the centre of the grid.
        peak: f64,
        /// Spread of the spot relative to the grid extent (0 < width ≤ 1).
        width: f64,
    },
}

impl GridInit {
    /// Evaluate the pattern at a cell index within a grid of the given shape.
    #[must_use]
    pub(crate) fn value_at(&self, index: &[usize], shape: &[usize]) -> f64 {
        match *self {
            GridInit::Constant(c) => c,
            GridInit::Linear { scale, offset } => {
                offset + scale * index.iter().sum::<usize>() as f64
            }
            GridInit::Sinusoid { amplitude } => {
                let mut v = amplitude;
                for (&i, &e) in index.iter().zip(shape) {
                    let x = i as f64 / e.max(1) as f64;
                    v *= (std::f64::consts::PI * x).sin();
                }
                v
            }
            GridInit::Hash { seed } => {
                let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
                for &i in index {
                    h ^= i as u64;
                    h = splitmix64(h);
                }
                // Map to [0, 1) with 53 bits of entropy.
                (h >> 11) as f64 / (1u64 << 53) as f64
            }
            GridInit::HotSpot { peak, width } => {
                let mut dist2 = 0.0;
                for (&i, &e) in index.iter().zip(shape) {
                    let centre = (e as f64 - 1.0) / 2.0;
                    let d = (i as f64 - centre) / (e as f64 * width.max(1e-9));
                    dist2 += d * d;
                }
                peak * (-dist2 * 4.0).exp()
            }
        }
    }
}

impl Default for GridInit {
    fn default() -> Self {
        GridInit::Hash { seed: 0 }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let init = GridInit::Constant(2.5);
        assert_eq!(init.value_at(&[0, 0], &[4, 4]), 2.5);
        assert_eq!(init.value_at(&[3, 1], &[4, 4]), 2.5);
    }

    #[test]
    fn linear_ramps_with_index_sum() {
        let init = GridInit::Linear {
            scale: 2.0,
            offset: 1.0,
        };
        assert_eq!(init.value_at(&[0, 0], &[4, 4]), 1.0);
        assert_eq!(init.value_at(&[1, 2], &[4, 4]), 7.0);
    }

    #[test]
    fn hash_is_deterministic_and_bounded() {
        let init = GridInit::Hash { seed: 42 };
        let a = init.value_at(&[1, 2, 3], &[8, 8, 8]);
        let b = init.value_at(&[1, 2, 3], &[8, 8, 8]);
        let c = init.value_at(&[1, 2, 4], &[8, 8, 8]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0.0..1.0).contains(&a));
        assert!((0.0..1.0).contains(&c));
    }

    #[test]
    fn hash_depends_on_seed() {
        let a = GridInit::Hash { seed: 1 }.value_at(&[5, 5], &[16, 16]);
        let b = GridInit::Hash { seed: 2 }.value_at(&[5, 5], &[16, 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn sinusoid_vanishes_on_faces() {
        let init = GridInit::Sinusoid { amplitude: 3.0 };
        assert_eq!(init.value_at(&[0, 3], &[8, 8]), 0.0);
        assert!(init.value_at(&[4, 4], &[8, 8]) > 0.0);
    }

    #[test]
    fn hotspot_peaks_at_centre() {
        let init = GridInit::HotSpot {
            peak: 10.0,
            width: 0.25,
        };
        let centre = init.value_at(&[4, 4], &[9, 9]);
        let corner = init.value_at(&[0, 0], &[9, 9]);
        assert!(centre > corner);
        assert!(centre <= 10.0 + 1e-12);
    }

    #[test]
    fn default_is_seeded_hash() {
        assert_eq!(GridInit::default(), GridInit::Hash { seed: 0 });
    }
}
