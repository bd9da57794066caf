//! C floating literals, printed without `core::fmt`.
//!
//! [`push_literal`] appends the shortest decimal that reads back as the
//! same `f64` — of those the nearest, a tie going to the larger: the
//! digits core's `{}` chooses — in plain positional notation, never with
//! an exponent. An integral value ends in `.0`, so that every
//! literal is a C floating literal.
//!
//! The digits come from Ryu (Adams, PLDI 2018): the interval of reals
//! that round to the value is scaled by a power of ten, read off a
//! 128-bit table, so that its ends are 17-digit integers, and digits are
//! dropped from the right while the interval still holds two integers.
//! The tables are generated by `build.rs` from exact integer arithmetic.

mod scale;

use scale::{
    binary_exponent, forward_scale, inverse_scale, pow5_bits, MANTISSA_BITS, POW5_BITS,
    POW5_INV_BITS,
};

include!(concat!(env!("OUT_DIR"), "/pow5.rs"));

/// The C type a constant is printed as: a `float` literal carries an `f`
/// suffix, a `double` one none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralType {
    /// `2.0f`, `0.25f`: the literals of a single-precision kernel.
    Float,
    /// `2.0`, `0.25`: the literals of a double-precision kernel.
    Double,
}

/// Append `value` as a C floating literal of type `ty`: `2.0f`, `0.25f`,
/// `-0.1f` as a `float`; `2.0`, `0.25`, `-0.1` as a `double`.
pub fn push_literal(out: &mut String, value: f64, ty: LiteralType) {
    push_decimal(out, value);
    if ty == LiteralType::Float {
        out.push('f');
    }
}

/// Append the shortest round-trip decimal of `value`; an integral one
/// with a `.0`.
fn push_decimal(out: &mut String, value: f64) {
    if !value.is_finite() {
        return push_non_finite(out, value);
    }
    if value.is_sign_negative() {
        out.push('-');
    }
    let abs = value.abs();
    let (digits, exponent) = if abs < EXACT_INTEGERS && (abs as u64) as f64 == abs {
        (abs as u64, 0)
    } else {
        // Beyond 2^53 every value is integral, and so is its shortest
        // decimal: the exponent is not negative.
        shortest(abs.to_bits())
    };
    push_positional(out, digits, exponent);
    if exponent >= 0 {
        out.push_str(".0");
    }
}

/// 2^53: below it an integral `f64` is its own shortest decimal, as a
/// `u64`.
const EXACT_INTEGERS: f64 = (1u64 << (MANTISSA_BITS + 1)) as f64;

/// What core prints for an infinity or a NaN.
#[cold]
fn push_non_finite(out: &mut String, value: f64) {
    out.push_str(if value.is_nan() {
        "NaN"
    } else if value > 0.0 {
        "inf"
    } else {
        "-inf"
    });
}

/// Append `digits × 10^exponent` in positional notation, with no trailing
/// point. The text is composed in one stack buffer with fixed-size moves
/// when it is at most [`INLINE`] bytes long (every value from 10^-30 up
/// to 10^48), and pushed in one piece.
fn push_positional(out: &mut String, digits: u64, exponent: i32) {
    let len = digits.checked_ilog10().unwrap_or(0) as usize + 1;
    // Digits before the point, and the text's length.
    let whole = len as i32 + exponent;
    let text_len = if whole <= 0 {
        2 + whole.unsigned_abs() as usize + len
    } else if exponent < 0 {
        len + 1
    } else {
        whole as usize
    };
    if text_len > INLINE {
        return push_positional_long(out, digits, len, whole);
    }
    // The text starts at GROUP: a group of digits ending anywhere in it
    // starts inside the buffer, and a group moved one place right from
    // anywhere in it ends inside.
    let mut buf = [b'0'; GROUP + INLINE + GROUP];
    let digits = digit_group(digits);
    if whole <= 0 {
        // 0.000ddd: the group's leading zeros fill the rest.
        put_ending(&mut buf, GROUP + text_len, digits);
        buf[GROUP + 1] = b'.';
    } else if exponent < 0 {
        // ddd.ddd: the fraction moves one place right for the point.
        let point = GROUP + whole as usize;
        put_ending(&mut buf, GROUP + len, digits);
        let fraction = take(&buf, point);
        put_ending(&mut buf, point + 1 + GROUP, fraction);
        buf[point] = b'.';
    } else {
        // ddd000: the buffer's zeros follow.
        put_ending(&mut buf, GROUP + len, digits);
    }
    let text = &buf[GROUP..GROUP + text_len];
    out.push_str(std::str::from_utf8(text).expect("ASCII digits"));
}

/// Bytes of a text composed on the stack.
const INLINE: usize = 48;
/// Digits of the widest `u64`, and then some: three groups of eight.
const GROUP: usize = 24;

fn put_ending(buf: &mut [u8], end: usize, group: [u8; GROUP]) {
    buf[end - GROUP..end].copy_from_slice(&group);
}

fn take(buf: &[u8], at: usize) -> [u8; GROUP] {
    buf[at..at + GROUP].try_into().expect("a group fits")
}

/// [`push_positional`] for a text longer than [`INLINE`]: a very small
/// value's leading zeros or a very large one's trailing zeros.
#[cold]
fn push_positional_long(out: &mut String, digits: u64, len: usize, whole: i32) {
    let group = digit_group(digits);
    let text = std::str::from_utf8(&group[GROUP - len..]).expect("ASCII digits");
    if whole <= 0 {
        out.push_str("0.");
        out.extend((0..whole.unsigned_abs()).map(|_| '0'));
        out.push_str(text);
    } else {
        out.push_str(text);
        out.extend((len as i32..whole).map(|_| '0'));
    }
}

/// `n` in decimal, zero-padded to [`GROUP`] digits.
fn digit_group(n: u64) -> [u8; GROUP] {
    const EIGHT: u64 = 100_000_000;
    let mut group = [0; GROUP];
    group[..8].copy_from_slice(&eight_digits((n / (EIGHT * EIGHT)) as u32));
    group[8..16].copy_from_slice(&eight_digits((n / EIGHT % EIGHT) as u32));
    group[16..].copy_from_slice(&eight_digits((n % EIGHT) as u32));
    group
}

/// `n < 10^8` in eight decimal digits, split in lanes of one `u64`: two
/// halves of four digits, each into two pairs, each pair into two digits.
fn eight_digits(n: u32) -> [u8; 8] {
    let halves = u64::from(n / 10_000) | u64::from(n % 10_000) << 32;
    // ⌊h · 10486 / 2^20⌋ = ⌊h / 100⌋ for h < 10^4.
    let hundreds = ((halves * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = hundreds | (halves - hundreds * 100) << 16;
    // ⌊p · 103 / 2^10⌋ = ⌊p / 10⌋ for p < 100.
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    let digits = tens | (pairs - tens * 10) << 8;
    (digits | 0x3030_3030_3030_3030).to_le_bytes()
}

/// The shortest `digits × 10^exponent` that reads back as the positive
/// finite `f64` with these bits; of several, the nearest, a tie going to
/// the larger.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    let e2 = binary_exponent(ieee_exponent);
    let m2 = if ieee_exponent == 0 {
        ieee_mantissa
    } else {
        ieee_mantissa | 1 << MANTISSA_BITS
    };
    // Round-to-even reads an interval end back as this value when the
    // mantissa is even.
    let accept_bounds = m2 % 2 == 0;
    // The value is mv · 2^e2; the reals that round to it lie between
    // mm · 2^e2 and mp · 2^e2. Below a power of two the lower neighbour
    // is half as far.
    let mv = 4 * m2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;

    // vr, vp and vm are mv, mp and mm scaled by 2^e2 / 10^e10 and
    // truncated; `vm_exact` says whether vm lost nothing, so that the
    // lower end, when it reads back as the value, can be printed.
    let (mut vr, mut vp, mut vm, e10, mut vm_exact);
    if e2 >= 0 {
        let q = inverse_scale(e2);
        e10 = q;
        let mul = POW5_INV[q as usize];
        let shift = q - e2 + POW5_INV_BITS + pow5_bits(q) - 1;
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        // A scaled value is exact when 5^q divides it.
        vm_exact = accept_bounds && divisible_by_pow5(mm, q);
        if !accept_bounds && divisible_by_pow5(mp, q) {
            vp -= 1;
        }
    } else {
        let q = forward_scale(e2);
        e10 = q + e2;
        let i = -e2 - q;
        let mul = POW5[i as usize];
        let shift = q - pow5_bits(i) + POW5_BITS;
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        // A scaled value is exact when 2^q divides it.
        vm_exact = accept_bounds && divisible_by_pow2(mm, q);
        if !accept_bounds && divisible_by_pow2(mp, q) {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds two integers; an exact
    // lower end that reads back as the value may then lose its trailing
    // zeros too. The last digit dropped rounds: five and up (a tie
    // included, as core rounds it) round up.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // vr itself is outside the interval when it is an end that does not
    // read back as the value.
    let round_up = (vr == vm && !vm_exact) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `⌊m · mul / 2^shift⌋` for a 55-bit `m` and a 125-bit `mul`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn divisible_by_pow5(n: u64, q: i32) -> bool {
    // 5^28 > 2^64 > n.
    q < 28 && n.is_multiple_of(5u64.pow(q as u32))
}

fn divisible_by_pow2(n: u64, q: i32) -> bool {
    q < 64 && n.trailing_zeros() >= q as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(value: f64) -> String {
        let mut out = String::new();
        push_literal(&mut out, value, LiteralType::Float);
        out
    }

    // The printer against core: tests/literals.rs.

    #[test]
    fn a_double_literal_has_no_suffix() {
        for value in [0.1, -2.0, 1e-300, f64::NAN] {
            let mut double = String::new();
            push_literal(&mut double, value, LiteralType::Double);
            assert_eq!(format!("{double}f"), printed(value));
        }
    }

    #[test]
    fn digit_groups_are_the_zero_padded_decimal() {
        let mut n = 0x2545_f491_4f6c_dd1d_u64;
        let edges = [0, 9, 10, 99_999_999, 100_000_000, 1 << 53, u64::MAX];
        for value in edges.into_iter().chain((0..100_000).map(|_| {
            n ^= n << 13;
            n ^= n >> 7;
            n ^= n << 17;
            n >> (n % 64)
        })) {
            let group = digit_group(value);
            assert_eq!(
                std::str::from_utf8(&group),
                Ok(format!("{value:024}").as_str())
            );
        }
    }

    #[test]
    fn small_powers_of_five_fill_the_table_exactly() {
        let mut power = 1u128;
        for (i, &entry) in POW5.iter().enumerate().take(54) {
            let bits = 128 - power.leading_zeros() as i32;
            assert_eq!(entry, power << (POW5_BITS - bits), "5^{i}");
            power *= 5;
        }
        assert_eq!(POW5_INV[0], (1 << POW5_INV_BITS) + 1);
        assert_eq!(POW5_INV[1], (1 << (POW5_INV_BITS + 2)) / 5 + 1);
    }
}
