//! The exponent arithmetic of the shortest printer, shared with the build
//! script that generates its power-of-five tables (`build.rs`).

/// Explicit mantissa bits of an `f64`.
pub(crate) const MANTISSA_BITS: u32 = 52;
/// The exponent bias of an `f64`.
pub(crate) const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five, `⌊5^i / 2^(bits(5^i) − 125)⌋`.
pub(crate) const POW5_BITS: i32 = 125;
/// Bits kept of each inverse, `⌊2^(bits(5^q) − 1 + 125) / 5^q⌋ + 1`.
pub(crate) const POW5_INV_BITS: i32 = 125;

/// The binary exponent `e2` of the printer's scaled value `4·m2 · 2^e2`
/// for the biased exponent `ieee_exponent` (0 for a subnormal): two bits
/// below the mantissa's last, so both ends of the rounding interval are
/// integers.
#[must_use]
pub(crate) const fn binary_exponent(ieee_exponent: i32) -> i32 {
    let unbiased = if ieee_exponent == 0 { 1 } else { ieee_exponent };
    unbiased - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2
}

/// The bit length of `5^e`: `1` for `e = 0`, `⌈log₂ 5^e⌉` after; exact
/// for `0 ≤ e ≤ 3528`.
#[must_use]
pub(crate) const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋`, exact for `0 ≤ e ≤ 1650`.
#[must_use]
pub(crate) const fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊log₁₀ 5^e⌋`, exact for `0 ≤ e ≤ 2620`.
#[must_use]
pub(crate) const fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// For `e2 ≥ 0`: the decimal exponent `q` the interval is scaled to,
/// `10^q` dividing it (and so the index into the inverse table).
#[must_use]
pub(crate) const fn inverse_scale(e2: i32) -> i32 {
    log10_pow2(e2) - (e2 > 3) as i32
}

/// For `e2 < 0`: the decimal exponent `−(q + e2)` the interval is scaled
/// by; the power of five that multiplies it is `5^(−e2 − q)`.
#[must_use]
pub(crate) const fn forward_scale(e2: i32) -> i32 {
    log10_pow5(-e2) - (-e2 > 1) as i32
}
