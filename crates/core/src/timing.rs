//! Wall-clock timing, shared by the serving layer's per-backend
//! latency accounting and the `qns-bench` harness binaries (both
//! re-export [`time_it`] and add their own concerns on top).
#![expect(
    clippy::disallowed_types,
    reason = "the workspace clock: the one place qns-core reads `Instant`"
)]

use std::time::Instant;

/// Runs `f`, returning its result and the wall-clock seconds it took.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A monotonic reference instant for timestamping events relative to a
/// fixed origin (e.g. service construction).
///
/// This is the sanctioned wall-clock access point for
/// determinism-path code: crates under the `disallowed-types` clock ban
/// (see `docs/ANALYSIS.md`) may not name `Instant` directly, but may
/// hold a `Stopwatch` and read elapsed offsets from it.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    origin: Instant,
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    pub fn start() -> Stopwatch {
        Stopwatch {
            origin: Instant::now(),
        }
    }

    /// Whole microseconds elapsed since the origin (saturating at
    /// `u64::MAX`, ~584 thousand years).
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result() {
        let (v, t) = time_it(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(t >= 0.0);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        let b = sw.elapsed_micros();
        assert!(b >= a);
    }
}
