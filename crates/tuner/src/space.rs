//! Parameter search spaces.

use an5d_grid::Precision;
use an5d_plan::{BlockConfig, MAX_BLOCKED_DIMS};

/// A set of candidate blocking parameters to explore.
///
/// [`SearchSpace::paper`] reproduces the sets of Section 6.3:
///
/// * 2D — `bT ∈ [1, 16]`, `bS ∈ {128, 256, 512}`, `hS_N ∈ {256, 512, 1024}`
///   (144 combinations);
/// * 3D — `bT ∈ [1, 8]`, `bS ∈ {16×16, 32×16, 32×32, 64×16}`,
///   `hS_N ∈ {128, 256}` (64 combinations).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchSpace {
    bt_values: Vec<usize>,
    bs_values: Vec<Vec<usize>>,
    hsn_values: Vec<Option<usize>>,
    precision: Precision,
}

impl SearchSpace {
    /// Build a custom search space.
    #[must_use]
    pub fn new(
        bt_values: Vec<usize>,
        bs_values: Vec<Vec<usize>>,
        hsn_values: Vec<Option<usize>>,
        precision: Precision,
    ) -> Self {
        Self {
            bt_values,
            bs_values,
            hsn_values,
            precision,
        }
    }

    /// The paper's search space for the given stencil dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `ndim` is not 2 or 3.
    #[must_use]
    pub fn paper(ndim: usize, precision: Precision) -> Self {
        match ndim {
            2 => Self {
                bt_values: (1..=16).collect(),
                bs_values: vec![vec![128], vec![256], vec![512]],
                hsn_values: vec![Some(256), Some(512), Some(1024)],
                precision,
            },
            3 => Self {
                bt_values: (1..=8).collect(),
                bs_values: vec![vec![16, 16], vec![32, 16], vec![32, 32], vec![64, 16]],
                hsn_values: vec![Some(128), Some(256)],
                precision,
            },
            other => panic!("the paper's search space covers 2D and 3D stencils, not {other}D"),
        }
    }

    /// A reduced space for quick exploration in examples and tests.
    ///
    /// # Panics
    ///
    /// Panics if `ndim` is not 2 or 3.
    #[must_use]
    pub fn quick(ndim: usize, precision: Precision) -> Self {
        match ndim {
            2 => Self {
                bt_values: vec![1, 2, 4, 8],
                bs_values: vec![vec![128], vec![256]],
                hsn_values: vec![Some(256), None],
                precision,
            },
            3 => Self {
                bt_values: vec![1, 2, 3],
                bs_values: vec![vec![32, 16], vec![32, 32]],
                hsn_values: vec![Some(128), None],
                precision,
            },
            other => panic!("the quick search space covers 2D and 3D stencils, not {other}D"),
        }
    }

    /// Cell precision of the candidates.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The `bT`, `bS` and `hS_N` axes, as given: [`SearchSpace::iter`]
    /// nests them in this order and skips combinations
    /// [`BlockConfig::new`] rejects.
    pub(crate) fn axes(&self) -> (&[usize], &[Vec<usize>], &[Option<usize>]) {
        (&self.bt_values, &self.bs_values, &self.hsn_values)
    }

    /// Every syntactically valid candidate configuration, in the canonical
    /// nesting order (`bT` outermost, then `bS`, then `hS_N`); combinations
    /// [`BlockConfig::new`] rejects are skipped.
    pub fn iter(&self) -> impl Iterator<Item = BlockConfig> + '_ {
        self.bt_values.iter().flat_map(move |&bt| {
            self.bs_values.iter().flat_map(move |bs| {
                let hsn_values = self.hsn_values.iter();
                hsn_values
                    .filter_map(move |&hsn| BlockConfig::new(bt, bs, hsn, self.precision).ok())
            })
        })
    }

    /// Number of candidate configurations the space yields — exactly
    /// `self.iter().count()`, computed in O(axes) time.
    ///
    /// Validity of a combination ([`BlockConfig::new`]) is decided
    /// per-axis (`bT ≥ 1`, one or two `bS` extents, none zero,
    /// `hS_N ≠ Some(0)`), so the count is the product of the per-axis
    /// valid-value counts.
    #[must_use]
    pub fn len(&self) -> usize {
        let bt = self.bt_values.iter().filter(|&&bt| bt > 0).count();
        let bs = self
            .bs_values
            .iter()
            .filter(|bs| (1..=MAX_BLOCKED_DIMS).contains(&bs.len()) && !bs.contains(&0))
            .count();
        let hsn = self
            .hsn_values
            .iter()
            .filter(|&&hsn| hsn != Some(0))
            .count();
        bt * bs * hsn
    }

    /// `true` when the space yields no candidate at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical, order-insensitive fingerprint of the space.
    ///
    /// Two spaces that yield the same candidate *set* — the same axis
    /// values in any order, with duplicates — digest identically, so a
    /// persisted tuning key survives cosmetic reorderings of the axis
    /// lists. Built on the pinned FNV-1a of [`crate::fnv1a64`] (not
    /// `DefaultHasher`), so the digest is stable across processes and
    /// Rust releases, as an on-disk key must be.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use crate::fingerprint::Fnv1a;
        let mut bt: Vec<usize> = self.bt_values.clone();
        bt.sort_unstable();
        bt.dedup();
        let mut bs: Vec<Vec<usize>> = self.bs_values.clone();
        bs.sort_unstable();
        bs.dedup();
        // `None` (no explicit hS_N) sorts before every explicit value.
        let mut hsn: Vec<Option<usize>> = self.hsn_values.clone();
        hsn.sort_unstable();
        hsn.dedup();

        let mut hasher = Fnv1a::new();
        hasher.write(b"an5d-space-fp-v1|");
        hasher.write_usize(bt.len());
        for value in bt {
            hasher.write_usize(value);
        }
        hasher.write_usize(bs.len());
        for values in bs {
            hasher.write_usize(values.len());
            for value in values {
                hasher.write_usize(value);
            }
        }
        hasher.write_usize(hsn.len());
        for value in hsn {
            match value {
                None => hasher.write_u64(u64::MAX),
                Some(v) => {
                    hasher.write_u64(0);
                    hasher.write_usize(v);
                }
            }
        }
        hasher.write(match self.precision {
            Precision::Single => b"single",
            Precision::Double => b"double",
        });
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_sizes_match_section_6_3() {
        let s2 = SearchSpace::paper(2, Precision::Single);
        assert_eq!(s2.len(), 16 * 3 * 3);
        assert_eq!(s2.iter().count(), 144);
        let s3 = SearchSpace::paper(3, Precision::Double);
        assert_eq!(s3.len(), 8 * 4 * 2);
        assert_eq!(s3.iter().count(), 64);
    }

    #[test]
    fn quick_space_is_smaller() {
        let q = SearchSpace::quick(2, Precision::Single);
        assert!(q.len() < SearchSpace::paper(2, Precision::Single).len());
        assert!(!q.is_empty());
    }

    #[test]
    fn candidates_carry_precision_and_parameters() {
        let s = SearchSpace::paper(3, Precision::Double);
        let candidates: Vec<BlockConfig> = s.iter().collect();
        assert!(candidates
            .iter()
            .all(|c| c.precision() == Precision::Double));
        assert!(candidates.iter().any(|c| c.bs() == [64, 16]));
        assert!(candidates.iter().any(|c| c.hsn() == Some(256)));
        assert_eq!(s.precision(), Precision::Double);
    }

    #[test]
    #[should_panic(expected = "2D and 3D")]
    fn unsupported_rank_panics() {
        let _ = SearchSpace::paper(1, Precision::Single);
    }

    #[test]
    fn custom_space_enumerates_products() {
        let s = SearchSpace::new(
            vec![2, 4],
            vec![vec![64]],
            vec![None, Some(128)],
            Precision::Single,
        );
        assert_eq!(s.iter().count(), 4);
    }

    #[test]
    fn iter_yields_exactly_the_candidates_sequence() {
        // Every combination `BlockConfig::new` accepts, `bT` outermost and
        // `hS_N` fastest, and `len()` of them — on the all-valid stock
        // spaces and on axes that carry rejected values (bt = 0, an empty
        // bs, a zero bs extent and three bs extents, hsn = Some(0)).
        let spaces = [
            SearchSpace::paper(2, Precision::Single),
            SearchSpace::paper(3, Precision::Double),
            SearchSpace::quick(2, Precision::Single),
            SearchSpace::quick(3, Precision::Double),
            SearchSpace::new(
                vec![0, 1, 3],
                vec![vec![64], vec![], vec![32, 0], vec![16, 16, 16]],
                vec![None, Some(0), Some(16)],
                Precision::Single,
            ),
        ];
        for space in &spaces {
            let mut expected = Vec::new();
            for &bt in &space.bt_values {
                for bs in &space.bs_values {
                    for &hsn in &space.hsn_values {
                        expected.extend(BlockConfig::new(bt, bs, hsn, space.precision));
                    }
                }
            }
            let yielded: Vec<BlockConfig> = space.iter().collect();
            assert_eq!(yielded, expected);
            assert_eq!(yielded.len(), space.len());
            assert!(!space.is_empty());
        }
        let [paper_2d, .., invalid_axes] = &spaces;
        assert_eq!(paper_2d.len(), 144);
        // Valid per axis: bt {1, 3}, bs {[64]}, hsn {None, Some(16)}.
        assert_eq!(invalid_axes.len(), 4);
        // An iterator, not a list: taking one candidate leaves the rest.
        let mut iter = paper_2d.iter();
        let first = BlockConfig::new(1, &[128], Some(256), Precision::Single).unwrap();
        assert_eq!(iter.next(), Some(first));
        assert_eq!(iter.count(), 143);
    }

    #[test]
    fn fully_invalid_axes_make_the_space_empty() {
        let space = SearchSpace::new(vec![0], vec![vec![64]], vec![None], Precision::Single);
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
        assert_eq!(space.iter().count(), 0);
        // Empty axes short-circuit the iterator too.
        let no_bs = SearchSpace::new(vec![1], vec![], vec![None], Precision::Single);
        assert_eq!(no_bs.iter().count(), 0);
        assert_eq!(no_bs.len(), 0);
    }

    #[test]
    fn fingerprint_is_order_insensitive_but_value_sensitive() {
        let base = SearchSpace::new(
            vec![1, 2, 4],
            vec![vec![128], vec![256]],
            vec![None, Some(256)],
            Precision::Single,
        );
        let shuffled = SearchSpace::new(
            vec![4, 1, 2, 2],
            vec![vec![256], vec![128], vec![128]],
            vec![Some(256), None],
            Precision::Single,
        );
        assert_eq!(base.fingerprint(), shuffled.fingerprint());

        let other_bt = SearchSpace::new(
            vec![1, 2, 8],
            vec![vec![128], vec![256]],
            vec![None, Some(256)],
            Precision::Single,
        );
        assert_ne!(base.fingerprint(), other_bt.fingerprint());

        let other_precision = SearchSpace::new(
            vec![1, 2, 4],
            vec![vec![128], vec![256]],
            vec![None, Some(256)],
            Precision::Double,
        );
        assert_ne!(base.fingerprint(), other_precision.fingerprint());

        // Stable across calls (and — by construction — processes).
        assert_eq!(base.fingerprint(), base.fingerprint());
        assert_eq!(
            SearchSpace::paper(2, Precision::Single).fingerprint(),
            SearchSpace::paper(2, Precision::Single).fingerprint()
        );
    }
}
