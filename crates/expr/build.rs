//! Generates the power-of-five tables of the shortest `f64` printer
//! (`src/literal.rs`) from exact integer arithmetic, and checks the
//! printer's closed-form logarithms against the same arithmetic.
//!
//! `POW5[i]` is `5^i` cut to its top `POW5_BITS` bits; `POW5_INV[q]` is
//! `⌊2^(bits(5^q) − 1 + POW5_INV_BITS) / 5^q⌋ + 1`. Each table is as long
//! as the finite `f64` exponents need.

use std::fmt::Write as _;
use std::{env, fs, path::Path};

#[path = "src/literal/scale.rs"]
mod scale;

/// A non-negative integer: little-endian base-2³² limbs, no zero limb at
/// the top (zero is no limbs).
struct Big(Vec<u32>);

impl Big {
    fn one() -> Self {
        Big(vec![1])
    }

    fn mul_small(&mut self, m: u32) {
        let mut carry = 0u64;
        for limb in &mut self.0 {
            let x = u64::from(*limb) * u64::from(m) + carry;
            *limb = x as u32;
            carry = x >> 32;
        }
        if carry > 0 {
            self.0.push(carry as u32);
        }
    }

    fn bits(&self) -> u32 {
        self.0
            .last()
            .map_or(0, |top| 32 * self.0.len() as u32 - top.leading_zeros())
    }

    fn bit(&self, i: u32) -> bool {
        self.0
            .get((i / 32) as usize)
            .is_some_and(|limb| limb >> (i % 32) & 1 == 1)
    }

    /// `2·self + bit`.
    fn shl1_add(&mut self, bit: bool) {
        let mut carry = u32::from(bit);
        for limb in &mut self.0 {
            let next = *limb >> 31;
            *limb = *limb << 1 | carry;
            carry = next;
        }
        if carry > 0 {
            self.0.push(carry);
        }
    }

    /// `self − other`, for `self ≥ other`.
    fn sub(&mut self, other: &Big) {
        let mut borrow = 0i64;
        for (i, limb) in self.0.iter_mut().enumerate() {
            let x = i64::from(*limb) - i64::from(other.0.get(i).copied().unwrap_or(0)) - borrow;
            borrow = i64::from(x < 0);
            *limb = x.rem_euclid(1 << 32) as u32;
        }
        assert_eq!(borrow, 0, "subtraction underflows");
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    /// Bits `from..self.bits()` as an integer, which must fit in 128 bits.
    fn top_bits(&self, from: u32) -> u128 {
        assert!(self.bits() - from <= 128);
        (from..self.bits())
            .rev()
            .fold(0, |acc, i| acc << 1 | u128::from(self.bit(i)))
    }

    fn cmp_magnitude(&self, other: &Big) -> std::cmp::Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

/// `⌊2^k / d⌋`, which must fit in 128 bits: binary long division.
fn pow2_div(k: u32, d: &Big) -> u128 {
    let mut rest = Big(Vec::new());
    let mut quotient = 0u128;
    for i in (0..=k).rev() {
        rest.shl1_add(i == k);
        quotient <<= 1;
        if rest.cmp_magnitude(d).is_ge() {
            rest.sub(d);
            quotient |= 1;
        }
    }
    quotient
}

/// `⌊log₁₀ n⌋` of a rising sequence of `n`, by comparison with exact
/// powers of ten.
struct Log10 {
    log: i32,
    next: Big,
}

impl Log10 {
    fn new() -> Self {
        Log10 {
            log: 0,
            next: Big(vec![10]),
        }
    }

    /// `⌊log₁₀ n⌋`, for `n` at least the previous call's.
    fn of(&mut self, n: &Big) -> i32 {
        while self.next.cmp_magnitude(n).is_le() {
            self.next.mul_small(10);
            self.log += 1;
        }
        self.log
    }
}

fn push_table(out: &mut String, doc: &str, name: &str, entries: &[u128]) {
    writeln!(out, "{doc}\nstatic {name}: [u128; {}] = [", entries.len()).unwrap();
    for entry in entries {
        writeln!(out, "    0x{entry:032x},").unwrap();
    }
    out.push_str("];\n\n");
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src/literal/scale.rs");

    // The table indices every finite f64 reaches: q for e2 ≥ 0 (values
    // from 2^54 up), −e2 − q below. The logarithms are checked over every
    // argument the printer passes them.
    let (mut inv_len, mut pow_len) = (0, 0);
    let min_e2 = scale::binary_exponent(0);
    let max_e2 = scale::binary_exponent(2046);
    for ieee_exponent in 0..2047 {
        let e2 = scale::binary_exponent(ieee_exponent);
        if e2 >= 0 {
            inv_len = inv_len.max(scale::inverse_scale(e2) + 1);
        } else {
            pow_len = pow_len.max(-e2 - scale::forward_scale(e2) + 1);
        }
    }

    let mut power = Big::one();
    let mut log10 = Log10::new();
    let mut pow5 = Vec::new();
    let mut pow5_inv = Vec::new();
    for i in 0..=-min_e2 {
        let bits = power.bits() as i32;
        assert_eq!(scale::pow5_bits(i), bits, "bit length of 5^{i}");
        assert_eq!(scale::log10_pow5(i), log10.of(&power), "log10 5^{i}");
        if i < pow_len {
            pow5.push(if bits >= scale::POW5_BITS {
                power.top_bits((bits - scale::POW5_BITS) as u32)
            } else {
                power.top_bits(0) << (scale::POW5_BITS - bits)
            });
        }
        if i < inv_len {
            let k = (bits - 1 + scale::POW5_INV_BITS) as u32;
            pow5_inv.push(pow2_div(k, &power) + 1);
        }
        power.mul_small(5);
    }
    let (mut power, mut log10) = (Big::one(), Log10::new());
    for e in 0..=max_e2 {
        assert_eq!(scale::log10_pow2(e), log10.of(&power), "log10 2^{e}");
        power.mul_small(2);
    }

    let mut out = String::from("// Generated by build.rs from exact integer arithmetic.\n\n");
    push_table(
        &mut out,
        "/// `5^i`, its top `POW5_BITS` bits.",
        "POW5",
        &pow5,
    );
    push_table(
        &mut out,
        "/// `⌊2^(bits(5^q) − 1 + POW5_INV_BITS) / 5^q⌋ + 1`.",
        "POW5_INV",
        &pow5_inv,
    );
    let dir = env::var_os("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    fs::write(Path::new(&dir).join("pow5.rs"), out).expect("writing the tables");
}
