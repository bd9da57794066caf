//! Golden table of error messages: every case of `errors_golden.txt` is a
//! source with one fault, and the message — variant, wording, line and
//! column — `parse_stencil` must answer it with. The table was generated
//! from the two-pass frontend (tokenize → parse → detect) that preceded
//! the one-pass parser, so a mismatch here is a change users can see. On
//! mismatch the test prints the table with the current messages, which
//! replaces the file when the change is intended.

use an5d_frontend::parse_stencil;
use std::fmt::Write;

const GOLDEN: &str = include_str!("errors_golden.txt");

struct Case {
    name: &'static str,
    source: String,
    expected: &'static str,
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut lines = GOLDEN.lines().skip_while(|line| !line.starts_with("## "));
    while let Some(header) = lines.next() {
        let Some(name) = header.strip_prefix("## ") else {
            assert!(header.is_empty(), "stray line between cases: {header:?}");
            continue;
        };
        let mut source = Vec::new();
        let expected = loop {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("case {name:?} has no `=>` line"));
            match line.strip_prefix("=> ") {
                Some(expected) => break expected,
                None => source.push(line),
            }
        };
        cases.push(Case {
            name,
            source: source.join("\n"),
            expected,
        });
    }
    cases
}

#[test]
fn every_single_fault_input_is_answered_with_the_golden_message() {
    let cases = cases();
    assert!(cases.len() >= 25, "only {} cases parsed", cases.len());
    let mut current = String::new();
    let mut mismatches = Vec::new();
    for case in &cases {
        let got = match parse_stencil(&case.source, "golden") {
            Ok(_) => "(accepted)".to_string(),
            Err(e) => e.to_string(),
        };
        writeln!(current, "## {}\n{}\n=> {got}\n", case.name, case.source).unwrap();
        if got != case.expected {
            mismatches.push(format!(
                "{}: expected {:?}, got {got:?}",
                case.name, case.expected
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} messages changed:\n{}\n\ncurrent table:\n{current}",
        mismatches.len(),
        cases.len(),
        mismatches.join("\n")
    );
}
