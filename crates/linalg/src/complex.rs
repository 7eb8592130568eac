//! A small, fully-featured `f64` complex number.
//!
//! The workspace avoids external numeric crates, so this module provides
//! the complex arithmetic every other crate builds on. The type is
//! `Copy`, 16 bytes, and all operations are `#[inline]`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number backed by two `f64` components.
///
/// ```
/// use qns_linalg::Complex64;
/// let i = Complex64::I;
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
/// ```
///
/// The layout is fixed (`#[repr(C)]`: `re`, then `im`), so a slice of
/// `Complex64` is an interleaved `[re, im, re, im, …]` run of `f64`,
/// which the vector matmul kernels load directly.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a complex number from polar coordinates `r * e^{iθ}`.
    ///
    /// ```
    /// use qns_linalg::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-15 && (z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root of [`abs`](Self::abs)).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Principal argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Does not panic; dividing by zero yields non-finite components,
    /// mirroring `f64` semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64::new(self.re * s, self.im * s)
    }

    /// `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance `tol` per component
    /// distance `|self - other|`.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self - other).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}-{}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn constants() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::ONE);
        assert_eq!(Complex64::I * Complex64::I, -Complex64::ONE);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Complex64::new(3.0, -2.0);
        let b = Complex64::new(-1.5, 0.25);
        assert!(((a + b) - b).approx_eq(a, TOL));
        assert!(((a * b) / b).approx_eq(a, TOL));
        assert!((a - a).approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a.conj().conj(), a);
        assert!((a * a.conj()).approx_eq(Complex64::new(a.norm_sqr(), 0.0), TOL));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(-1.0, 1.0);
        let w = Complex64::from_polar(z.abs(), z.arg());
        assert!(w.approx_eq(z, TOL));
    }

    #[test]
    fn exp_of_i_pi() {
        let z = (Complex64::I * std::f64::consts::PI).exp();
        assert!(z.approx_eq(-Complex64::ONE, TOL));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (3.0, -4.0)] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-10), "sqrt failed for {z}");
        }
    }

    #[test]
    fn recip_is_inverse() {
        let z = Complex64::new(0.3, -0.7);
        assert!((z * z.recip()).approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex64::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", Complex64::new(1.0, 2.0)), "1+2i");
    }

    #[test]
    fn sum_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn real_scalar_ops() {
        let z = Complex64::new(1.0, -1.0);
        assert_eq!(z * 2.0, Complex64::new(2.0, -2.0));
        assert_eq!(2.0 * z, Complex64::new(2.0, -2.0));
        assert_eq!(z / 2.0, Complex64::new(0.5, -0.5));
    }
}
