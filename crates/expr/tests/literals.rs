//! `push_literal`, the shortest round-trip printer, against core's
//! formatting — the printer it replaced and its oracle — on every literal
//! of the suite, the edges of the `f64` range, every power of two, the
//! neighbours of every power of ten, runs of integers and random bit
//! patterns.

use an5d_expr::{push_literal, LiteralType, Node};
use an5d_stencil::suite;
use std::fmt::Write;

/// `value` as a C `float` literal through core: `{}`, a `.0` after an
/// integral value, then the suffix.
fn core_literal(out: &mut String, value: f64) {
    let written = if value.is_finite() && value == value.trunc() {
        write!(out, "{value}.0f")
    } else {
        write!(out, "{value}f")
    };
    written.expect("writing to a String cannot fail");
}

/// Compares the two printers, reusing their buffers.
#[derive(Default)]
struct Oracle {
    printed: String,
    expected: String,
    checked: usize,
}

impl Oracle {
    fn check(&mut self, value: f64) {
        self.printed.clear();
        self.expected.clear();
        push_literal(&mut self.printed, value, LiteralType::Float);
        core_literal(&mut self.expected, value);
        assert_eq!(
            self.printed,
            self.expected,
            "bits {:#018x}",
            value.to_bits()
        );
        self.checked += 1;
    }

    /// `value` and its `ulps` neighbours on either side, both signs.
    fn check_around(&mut self, value: f64, ulps: u64) {
        let bits = value.to_bits();
        for bits in bits.saturating_sub(ulps)..=bits.saturating_add(ulps) {
            let value = f64::from_bits(bits);
            if value.is_finite() {
                self.check(value);
                self.check(-value);
            }
        }
    }
}

/// splitmix64: a fixed, seeded stream of 64-bit patterns.
struct Bits(u64);

impl Iterator for Bits {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Some(z ^ (z >> 31))
    }
}

#[test]
fn every_suite_literal_prints_as_core_prints_it() {
    let mut oracle = Oracle::default();
    for def in suite::all_benchmarks() {
        let expr = def.expr();
        for i in 0..expr.node_count() {
            if let Node::Const(c) = expr.view(i) {
                oracle.check(c);
            }
        }
    }
    assert_eq!(oracle.checked, 1_553);
}

#[test]
fn the_edges_of_the_range_print_as_core_prints_them() {
    let mut oracle = Oracle::default();
    for value in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
    ] {
        oracle.check_around(value, 3);
    }
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        oracle.check(value);
    }
    // Subnormals across their range.
    for bits in Bits(7).take(10_000) {
        oracle.check(f64::from_bits(bits & ((1 << 52) - 1)));
    }
}

#[test]
fn every_power_of_two_prints_as_core_prints_it() {
    let mut oracle = Oracle::default();
    for bits in (0..52)
        .map(|shift| 1 << shift)
        .chain((1..2047).map(|e| e << 52))
    {
        oracle.check_around(f64::from_bits(bits), 0);
    }
    assert_eq!(oracle.checked, 2 * 2098);
}

#[test]
fn the_neighbours_of_every_power_of_ten_print_as_core_prints_them() {
    let mut oracle = Oracle::default();
    for k in -325..=308 {
        let power: f64 = format!("1e{k}").parse().unwrap();
        oracle.check_around(power, 3);
    }
}

#[test]
fn integers_around_the_printers_thresholds_print_as_core_prints_them() {
    let mut oracle = Oracle::default();
    for around in [1e15, 2f64.powi(53)] {
        oracle.check_around(around, 2_000);
        for offset in -1_000..=1_000 {
            oracle.check(around + f64::from(offset));
        }
    }
}

#[test]
fn dyadic_ties_round_as_core_rounds_them() {
    // An odd k over 2^n ends its exact decimal in a 5 at the n-th place.
    // Where that is one digit past the shortest round-trip length, the two
    // nearest decimals of that length tie; every mantissa width and scale
    // comes by such lengths.
    let mut oracle = Oracle::default();
    let mut random = Bits(1);
    for n in 1..=80 {
        for width in 1..=53 {
            for k in random.by_ref().take(20) {
                let k = (k >> (64 - width)) | 1;
                oracle.check(k as f64 / 2f64.powi(n));
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "eleven million values through core's formatter take minutes on the debug build"
)]
fn every_small_integer_and_ten_million_random_values_print_as_core_prints_them() {
    let mut oracle = Oracle::default();
    for n in 0..1u32 << 20 {
        oracle.check(f64::from(n));
    }
    let random = Bits(2_020).map(f64::from_bits).filter(|v| v.is_finite());
    for value in random.take(10_000_000) {
        oracle.check(value);
    }
    assert_eq!(oracle.checked, (1 << 20) + 10_000_000);
}
