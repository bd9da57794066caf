//! The perf record, `BENCH_history.json` at the repository root: one entry
//! per PR that ran alternating benchmark pairs, in PR order, each with its
//! host, seeds, run lengths and, per workload and metric, the parent's and
//! the change's medians and quartiles and the pairs the change won.

use an5d_service::{parse_json, Json};
use std::path::Path;

const ENTRY_KEYS: &[&str] = &[
    "pr",
    "commit",
    "label",
    "transcribed",
    "host",
    "seeds",
    "seconds",
    "pairs",
    "perturbation",
    "results",
];
const HOST_KEYS: &[&str] = &["nproc", "row_kernel_isa", "l2"];
const RESULT_KEYS: &[&str] = &[
    "workload",
    "metric",
    "seed",
    "seconds",
    "pairs",
    "won",
    "parent",
    "change",
    "ratio",
    "quoted",
    "perturbed",
];
const SIDE_KEYS: &[&str] = &["median", "q1", "q3"];

fn repository_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn entries() -> Vec<Json> {
    let history = parse_json(&repository_file("BENCH_history.json")).expect("valid JSON");
    history
        .get("entries")
        .and_then(Json::as_array)
        .expect("an `entries` array")
        .to_vec()
}

fn pr(entry: &Json) -> usize {
    entry
        .get("pr")
        .and_then(Json::as_usize)
        .expect("a PR number")
}

fn assert_keys(value: &Json, keys: &[&str], what: &str) {
    for key in keys {
        assert!(value.get(key).is_some(), "{what} has no `{key}`");
    }
}

/// A number, or `None` for `null`; anything else fails.
fn number(value: &Json, what: &str) -> Option<f64> {
    match value {
        Json::Null => None,
        other => Some(
            other
                .as_f64()
                .unwrap_or_else(|| panic!("{what} is not a number")),
        ),
    }
}

#[test]
fn entries_are_in_pr_order_and_carry_every_key() {
    let entries = entries();
    assert!(!entries.is_empty());
    for pair in entries.windows(2) {
        assert!(
            pr(&pair[0]) < pr(&pair[1]),
            "PR {} comes after PR {}",
            pr(&pair[1]),
            pr(&pair[0])
        );
    }
    for entry in &entries {
        let what = format!("PR {}", pr(entry));
        assert_keys(entry, ENTRY_KEYS, &what);
        assert_keys(entry.get("host").unwrap(), HOST_KEYS, &what);
        assert!(
            entry.get("transcribed").and_then(Json::as_bool).is_some(),
            "{what}"
        );
        assert!(
            entry.get("commit").and_then(Json::as_str).is_some(),
            "{what}"
        );
        assert!(
            entry.get("label").and_then(Json::as_str).is_some(),
            "{what}"
        );
        let results = entry.get("results").and_then(Json::as_array).unwrap();
        assert!(!results.is_empty(), "{what} has no results");
        for result in results {
            assert_keys(result, RESULT_KEYS, &what);
            assert_keys(result.get("parent").unwrap(), SIDE_KEYS, &what);
            assert_keys(result.get("change").unwrap(), SIDE_KEYS, &what);
        }
    }
}

#[test]
fn quartiles_hold_their_medians_and_wins_fit_the_pairs() {
    for entry in entries() {
        let most = entry
            .get("pairs")
            .and_then(Json::as_usize)
            .expect("a pair count");
        for result in entry.get("results").and_then(Json::as_array).unwrap() {
            let what = format!(
                "PR {} {} {}",
                pr(&entry),
                result.get("workload").and_then(Json::as_str).unwrap_or("?"),
                result.get("metric").and_then(Json::as_str).unwrap_or("?"),
            );
            let pairs = result.get("pairs").and_then(Json::as_usize).expect("pairs");
            assert!((1..=most).contains(&pairs), "{what}: {pairs} pairs");
            if let Some(won) = number(result.get("won").unwrap(), &what) {
                assert!(won <= pairs as f64, "{what}: won {won} of {pairs}");
            }
            let ratio = number(result.get("ratio").unwrap(), &what);
            for side in ["parent", "change"] {
                let side = result.get(side).unwrap();
                let median = number(side.get("median").unwrap(), &what);
                let q1 = number(side.get("q1").unwrap(), &what);
                let q3 = number(side.get("q3").unwrap(), &what);
                assert!(
                    median.is_some() || ratio.is_some(),
                    "{what}: no median and no ratio"
                );
                match (q1, median, q3) {
                    (None, _, None) => {}
                    (Some(q1), Some(median), Some(q3)) => {
                        assert!(
                            q1 <= median && median <= q3,
                            "{what}: {q1} ≤ {median} ≤ {q3}"
                        );
                    }
                    _ => panic!("{what}: quartiles without a median, or only one of them"),
                }
            }
        }
    }
}

/// `(PR, label)` of a CHANGES.md heading line: `- **PR N (perf_opt) — …`
/// or `- PR N (perf_opt): …`; not a `MENDED`/`FOUND` line naming a PR.
fn heading(line: &str) -> Option<(usize, &str)> {
    let rest = line.trim_start_matches("- ").trim_start_matches("**");
    let rest = rest.strip_prefix("PR ")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let pr = rest[..digits].parse().ok()?;
    Some((pr, rest[digits..].trim_start_matches([' ', ':', '(', '['])))
}

#[test]
fn every_perf_opt_pr_from_43_on_has_an_entry() {
    let recorded: Vec<usize> = entries().iter().map(pr).collect();
    let changes = repository_file("CHANGES.md");
    let perf: Vec<usize> = changes
        .lines()
        .filter_map(heading)
        .filter(|&(pr, label)| pr >= 43 && label.starts_with("perf_opt"))
        .map(|(pr, _)| pr)
        .collect();
    assert!(perf.contains(&50), "the headings are read: {perf:?}");
    for pr in perf {
        assert!(recorded.contains(&pr), "perf_opt PR {pr} has no entry");
    }
}
