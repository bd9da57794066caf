//! Table 1 and Fig. 7 pinned as text: every number they print comes from
//! the plan crate's scheme and resource rules, so a refactor of those rules
//! must leave both renderings byte for byte as they are.

use an5d_bench::experiments::{fig7, table1};

#[test]
fn table1_matches_golden_text() {
    assert_eq!(table1::render(), include_str!("table1.txt"));
}

#[test]
fn fig7_matches_golden_text() {
    assert_eq!(fig7::render(), include_str!("fig7.txt"));
}
