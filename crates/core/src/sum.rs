//! Compensated summation for the level sums.
//!
//! A level of a deep job adds millions of non-negative terms of very
//! different sizes. Plain `+=` loses every low-order bit a term holds
//! below the running sum's last place; [`Neumaier`] keeps those bits in
//! a second accumulator (Neumaier's improvement of Kahan–Babuška
//! summation: the compensation also catches a term larger than the
//! running sum). The result is deterministic: it depends on the terms
//! and their order only.

use qns_linalg::Complex64;

/// A running `f64` sum with Neumaier compensation.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Neumaier {
    sum: f64,
    compensation: f64,
}

impl Neumaier {
    /// Adds `x`, keeping the low-order bits the running sum drops.
    pub(crate) fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.compensation += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    /// The compensated sum.
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// A complex running sum: one [`Neumaier`] sum per component.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ComplexSum {
    re: Neumaier,
    im: Neumaier,
}

impl ComplexSum {
    /// Adds `z`.
    pub(crate) fn add(&mut self, z: Complex64) {
        self.re.add(z.re);
        self.im.add(z.im);
    }

    /// The compensated sum.
    pub(crate) fn value(&self) -> Complex64 {
        Complex64::new(self.re.value(), self.im.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_keeps_the_bits_plain_addition_drops() {
        let tiny = 2f64.powi(-53);
        let mut plain = 1.0f64;
        let mut compensated = Neumaier::default();
        compensated.add(1.0);
        for _ in 0..1 << 24 {
            plain += tiny;
            compensated.add(tiny);
        }
        assert_eq!(plain, 1.0);
        assert_eq!(compensated.value(), 1.0 + 2f64.powi(-29));
    }

    #[test]
    fn a_term_larger_than_the_sum_keeps_the_sum_s_bits() {
        // 1 + 1e100 − 1e100: Kahan's update would lose the 1.
        let mut s = Neumaier::default();
        for x in [1.0, 1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn complex_sums_compensate_each_component() {
        let mut s = ComplexSum::default();
        s.add(Complex64::new(1.0, -1.0));
        for _ in 0..1 << 10 {
            s.add(Complex64::new(2f64.powi(-60), -(2f64.powi(-60))));
        }
        let v = s.value();
        assert_eq!(v.re, 1.0 + 2f64.powi(-50));
        assert_eq!(v.im, -(1.0 + 2f64.powi(-50)));
    }
}
