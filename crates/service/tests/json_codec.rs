//! Arbitrary-input properties of the JSON codec the API reads request
//! bodies with: [`parse_json`] never panics, refuses nesting past its
//! limit instead of recursing further, and reads back every value it
//! accepts from that value's rendering.

use an5d_service::{parse_json, Json};
use proptest::prelude::*;

/// The deepest nesting of arrays and objects the parser accepts.
const DEPTH_LIMIT: usize = 64;

/// JSON fragments, valid and not, that arbitrary documents are spliced
/// from.
const FRAGMENTS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\n",
    "\"k\"",
    "\"a\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\n\\t\\/\\\\\"",
    "\"\\u0001\"",
    "\"",
    "\\",
    "0",
    "1",
    "-0",
    "-12",
    "0.5",
    "1.0",
    "1e3",
    "2E-2",
    "1e400",
    "01",
    "1.",
    "-",
    "1e30",
    "170141183460469231731687303715884105728",
    "true",
    "false",
    "null",
    "nul",
    "tru",
    "é",
];

/// A document spliced from `picks`: mostly [`FRAGMENTS`], some raw
/// characters.
fn splice(picks: &[u16]) -> String {
    picks
        .iter()
        .map(|&pick| match pick.to_le_bytes() {
            [index, 0..=223] => FRAGMENTS[usize::from(index) % FRAGMENTS.len()].to_string(),
            [byte, _] => char::from(byte).to_string(),
        })
        .collect()
}

/// Scalars a valid document is built from.
const SCALARS: &[&str] = &[
    "0",
    "-0",
    "-0.0",
    "-12",
    "0.5",
    "1.0",
    "1e3",
    "2E-2",
    "1e30",
    "-1e308",
    "170141183460469231731687303715884105728",
    "true",
    "false",
    "null",
    "\"\"",
    "\"s\\u0007\"",
    "\"\\ud83d\\ude00\"",
];

/// A valid document drawn from `picks`, nested at most `depth` deep.
fn document(picks: &mut impl Iterator<Item = u16>, depth: usize) -> String {
    let pick = picks.next().unwrap_or(0);
    let width = usize::from(pick >> 8) % 4;
    match pick % 8 {
        0 if depth > 0 => {
            let items: Vec<String> = (0..width).map(|_| document(picks, depth - 1)).collect();
            format!("[{}]", items.join(" , "))
        }
        1 if depth > 0 => {
            let pairs: Vec<String> = (0..width)
                .map(|i| format!("\"k{i}\" :{}", document(picks, depth - 1)))
                .collect();
            format!("{{ {} }}", pairs.join(","))
        }
        _ => SCALARS[usize::from(pick >> 3) % SCALARS.len()].to_string(),
    }
}

/// `a` and `b` are the same value. A `Num` holding an integer renders
/// without a point, so it reads back as the `Int` with the same digits:
/// those two compare equal when they render the same.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Num(_), Json::Int(_)) | (Json::Int(_), Json::Num(_)) => a.render() == b.render(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// The parse of `text`, when it parses, reads back from its rendering as
/// the same value, and renders the same both times.
fn assert_round_trip(text: &str) {
    let Ok(value) = parse_json(text) else {
        return;
    };
    let rendered = value.render();
    let back = parse_json(&rendered).unwrap_or_else(|err| panic!("{rendered}: {err}"));
    assert!(same(&value, &back), "{text:?} → {rendered} → {back:?}");
    assert_eq!(back.render(), rendered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text never panics the parser, and what it accepts
    /// survives a render and re-parse.
    #[test]
    fn arbitrary_text_never_panics_and_round_trips(
        picks in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        assert_round_trip(&splice(&picks));
    }

    /// Valid documents are accepted and survive a render and re-parse.
    #[test]
    fn valid_documents_round_trip(
        picks in prop::collection::vec(any::<u16>(), 1..96),
        depth in 0usize..6,
    ) {
        let text = document(&mut picks.into_iter(), depth);
        prop_assert!(parse_json(&text).is_ok(), "{text}");
        assert_round_trip(&text);
    }
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    for levels in 1..=4 * DEPTH_LIMIT {
        let empty = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let arrays = format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
        let objects = format!("{}1{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        for text in [empty, arrays, objects] {
            let parsed = parse_json(&text);
            assert_eq!(parsed.is_ok(), levels <= DEPTH_LIMIT, "{levels} levels");
            if let Err(err) = parsed {
                assert!(err.message.contains("deep"), "{levels} levels: {err}");
            }
        }
    }
    // Far past the limit and never closed: refused at the limit.
    let err = parse_json(&"[".repeat(100_000)).unwrap_err();
    assert!(err.message.contains("deep"), "{err}");
}

#[test]
fn numbers_past_the_f64_range_are_errors() {
    for text in ["1e400", "-1e400", "[1,2e999]"] {
        let err = parse_json(text).unwrap_err();
        assert!(err.message.contains("out of range"), "{text}: {err}");
    }
    assert!(parse_json("1e308").is_ok());
}
