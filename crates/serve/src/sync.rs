//! Ordered, poisoning-tolerant lock primitives and the serve lock
//! ranks.
//!
//! Every `Mutex`/`Condvar` in this crate goes through [`OrderedMutex`]
//! and [`OrderedCondvar`], which buy two things over the raw std
//! types:
//!
//! * **Poison recovery** — [`OrderedMutex::lock_or_recover`] recovers
//!   the inner value from a poisoned lock instead of panicking. A
//!   worker that panics while holding a lock (contained by the
//!   service's `catch_unwind` harness) must not cascade
//!   poisoned-lock panics into every handle that later waits on the
//!   same flight; all serve state is counters/queues that stay
//!   internally consistent under panic-at-any-line, so recovery is
//!   safe.
//! * **Lock-rank checking** (debug builds only) — every lock carries a
//!   [`LockRank`], and the declaration order of that enum *is* the
//!   acquired-before order. Acquisitions maintain a per-thread stack of
//!   held ranks; acquiring rank `r` while the innermost held lock has
//!   rank `h` requires `h < r`, and anything else panics naming both
//!   locks — turning a latent lock-inversion deadlock into a
//!   deterministic test failure on the first out-of-rank acquisition,
//!   even on a schedule that never runs the reverse order. Release
//!   builds compile the checker out entirely: `lock_or_recover` is then
//!   just `lock` + poison recovery.
//!
//! The rest of the contract is checked by the compiler:
//! [`OrderedMutex::new`] takes a [`LockRank`], so a lock outside the
//! declared order cannot be constructed, and `crates/serve/clippy.toml`
//! lists `std::sync::{Mutex, Condvar, RwLock}` under
//! `disallowed-types`, so a raw lock anywhere else in the crate fails
//! `cargo clippy -- -D warnings`. Only the wrappers below (and the
//! chaos plan slot in `faults.rs`) carry the allow.
//!
//! ```
//! use qns_serve::{LockRank, OrderedMutex};
//! let state = OrderedMutex::new(LockRank::State, 0u8);
//! assert_eq!(*state.lock_or_recover(), 0);
//! ```
//!
//! A rank outside the declared order does not compile:
//!
//! ```compile_fail,E0599
//! use qns_serve::{LockRank, OrderedMutex};
//! let state = OrderedMutex::new(LockRank::Sate, 0u8);
//! ```
//!
//! **Rank = equivalence class.** The checker orders ranks, not
//! instances: every `Flight` shares [`LockRank::FlightSlot`]. Two
//! same-ranked locks must therefore never nest (the checker rejects
//! `h == r`) — true for every serve lock, each of which is
//! leaf-per-object or a singleton.

use std::sync::{MutexGuard, PoisonError};

/// The rank of every lock in `qns-serve`. Declaration order is the
/// acquired-before order, outermost first: a thread holding a lock of
/// rank `h` may only acquire ranks `r > h`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// `serve.watchdog` — the deadline watchdog's timer table.
    /// Outermost: the watchdog thread collects expired entries under it
    /// and *releases it* before touching any other lock, and
    /// register/deregister sites hold nothing else — but should an
    /// expiry path ever need `serve.state`, the declared order already
    /// permits it.
    Watchdog,
    /// `serve.state` — the service's single state lock (queue, caches,
    /// single-flight table, counters). Held while resolving flights and
    /// publishing refine progress on the shutdown paths.
    State,
    /// `flight.slot` — one per [`crate::JobHandle`] flight; a leaf lock
    /// for result publication/wait.
    FlightSlot,
    /// `refine.progress` — one per refinement; a leaf lock for the
    /// level-update stream.
    RefineProgress,
    /// `serve.journal` — the observability event ring. Innermost:
    /// lifecycle events are recorded while holding `serve.state` (and
    /// never the other way around), and recording must stay legal from
    /// any publication path.
    Journal,
}

impl LockRank {
    /// The lock's display name, as printed in checker panics.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::Watchdog => "serve.watchdog",
            LockRank::State => "serve.state",
            LockRank::FlightSlot => "flight.slot",
            LockRank::RefineProgress => "refine.progress",
            LockRank::Journal => "serve.journal",
        }
    }
}

/// A [`std::sync::Mutex`] wrapper with a [`LockRank`], poison
/// recovery, and (in debug builds) rank checking on every acquisition.
/// See the module docs for the protocol.
#[derive(Debug)]
#[allow(clippy::disallowed_types)]
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: std::sync::Mutex<T>,
}

#[allow(clippy::disallowed_types)]
impl<T> OrderedMutex<T> {
    /// Wraps `value` in a lock of rank `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering the inner value if a previous
    /// holder panicked (see the module docs for why that is sound
    /// here). In debug builds, first records the acquisition in the
    /// lock-order checker.
    ///
    /// # Panics
    ///
    /// Debug builds panic when the innermost lock this thread holds
    /// does not rank strictly below this one (a lock-order inversion).
    pub fn lock_or_recover(&self) -> OrderedMutexGuard<'_, T> {
        checker::acquire(self.rank);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedMutexGuard {
            rank: self.rank,
            guard: Some(guard),
        }
    }
}

/// The guard returned by [`OrderedMutex::lock_or_recover`]; releases
/// the mutex and pops the checker's held-lock stack on drop.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    rank: LockRank,
    /// `Some` between acquisition and drop; taken only transiently
    /// inside [`OrderedCondvar::wait`] while the thread is blocked.
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[expect(
        clippy::expect_used,
        reason = "the guard is `None` only inside `OrderedCondvar::wait`, which owns it"
    )]
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard held")
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "the guard is `None` only inside `OrderedCondvar::wait`, which owns it"
    )]
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard held")
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the mutex before popping the held stack, so the
        // checker never claims we hold a lock we have let go of.
        if self.guard.take().is_some() {
            checker::release(self.rank);
        }
    }
}

/// A [`std::sync::Condvar`] companion to [`OrderedMutex`]: waiting pops the
/// held-lock stack while the thread is blocked and re-registers the
/// re-acquisition on wake-up, and poisoning is recovered exactly as in
/// [`OrderedMutex::lock_or_recover`].
#[derive(Debug, Default)]
#[allow(clippy::disallowed_types)]
pub struct OrderedCondvar {
    inner: std::sync::Condvar,
}

#[allow(clippy::disallowed_types)]
impl OrderedCondvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases `guard`'s mutex and blocks until notified;
    /// re-acquires (and re-registers) the lock before returning.
    pub fn wait<'a, T>(&self, mut guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        #[expect(
            clippy::expect_used,
            reason = "an `OrderedMutexGuard` holds its guard until this wait takes it"
        )]
        let raw = guard.guard.take().expect("guard held");

        // Blocked threads hold nothing: pop before sleeping, re-check
        // and re-push on wake (the wake-up re-acquisition is an
        // acquisition like any other for ordering purposes).
        checker::release(guard.rank);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        checker::acquire(guard.rank);
        guard.guard = Some(raw);
        guard
    }

    /// Like [`OrderedCondvar::wait`], but gives up after `timeout`.
    /// Returns the re-acquired guard plus whether the wait timed out
    /// (spurious wake-ups and notifications both report `false`; the
    /// caller re-checks its predicate either way).
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: OrderedMutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (OrderedMutexGuard<'a, T>, bool) {
        #[expect(
            clippy::expect_used,
            reason = "an `OrderedMutexGuard` holds its guard until this wait takes it"
        )]
        let raw = guard.guard.take().expect("guard held");
        checker::release(guard.rank);
        let (raw, res) = self
            .inner
            .wait_timeout(raw, timeout)
            .map(|(g, t)| (g, t.timed_out()))
            .unwrap_or_else(|poisoned| {
                let (g, t) = poisoned.into_inner();
                (g, t.timed_out())
            });
        checker::acquire(guard.rank);
        guard.guard = Some(raw);
        (guard, res)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// The debug-build rank checker: a per-thread stack of held ranks.
#[cfg(debug_assertions)]
mod checker {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of the locks this thread currently holds, in
        /// acquisition order (innermost last).
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Records the intent to acquire a lock of rank `rank`, panicking
    /// unless the innermost held lock ranks strictly below it. Runs
    /// *before* blocking on the mutex, so an inversion panics
    /// deterministically instead of deadlocking when the adversarial
    /// schedule actually interleaves.
    pub(super) fn acquire(rank: LockRank) {
        let innermost = HELD.with(|h| h.borrow().last().copied());
        if let Some(held) = innermost {
            #[expect(
                clippy::panic,
                reason = "the debug lock-rank trap fires before blocking"
            )]
            if held >= rank {
                let stack = HELD.with(|h| h.borrow().clone());
                panic!(
                    "lock-order inversion: acquiring `{}` ({rank:?}) while holding `{}` \
                     ({held:?}); LockRank declares {held:?} after {rank:?}, so it must be \
                     acquired first (full held stack: {stack:?})",
                    rank.name(),
                    held.name(),
                );
            }
        }
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    /// Pops the most recent acquisition of `rank` off the held stack.
    pub(super) fn release(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }
}

/// Release builds: ordering is not checked, the wrappers are plain
/// poison-recovering locks with zero bookkeeping.
#[cfg(not(debug_assertions))]
mod checker {
    use super::LockRank;

    pub(super) fn acquire(_rank: LockRank) {}
    pub(super) fn release(_rank: LockRank) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_or_recover_survives_a_poisoning_panic() {
        let lock = std::sync::Arc::new(OrderedMutex::new(LockRank::FlightSlot, 7u32));
        let poisoner = std::sync::Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let mut g = poisoner.lock_or_recover();
            *g = 8;
            panic!("poison the lock");
        })
        .join();
        // The raw std mutex is now poisoned; recovery still reads the
        // (consistent) value the panicking thread left behind.
        assert_eq!(*lock.lock_or_recover(), 8);
    }

    #[test]
    fn condvar_roundtrip_releases_and_reacquires() {
        let pair = std::sync::Arc::new((
            OrderedMutex::new(LockRank::State, false),
            OrderedCondvar::new(),
        ));
        let notifier = std::sync::Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*notifier;
            *lock.lock_or_recover() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*pair;
        let mut g = lock.lock_or_recover();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        t.join().expect("notifier");
    }

    #[test]
    fn ranks_are_declared_outermost_first() {
        assert!(LockRank::Watchdog < LockRank::State);
        assert!(LockRank::State < LockRank::FlightSlot);
        assert!(LockRank::FlightSlot < LockRank::RefineProgress);
        assert!(LockRank::RefineProgress < LockRank::Journal);
    }

    /// An out-of-rank acquisition must panic (in debug builds, where
    /// the checker is live) rather than silently arming a deadlock —
    /// on the first attempt, with no earlier in-order run needed.
    #[test]
    #[cfg(debug_assertions)]
    fn seeded_lock_inversion_is_caught() {
        let a = OrderedMutex::new(LockRank::FlightSlot, ());
        let b = OrderedMutex::new(LockRank::RefineProgress, ());
        // The declared order is fine.
        {
            let _ga = a.lock_or_recover();
            let _gb = b.lock_or_recover();
        }
        let inverted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock_or_recover();
            let _ga = a.lock_or_recover();
        }));
        let err = inverted.expect_err("inverted acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("flight.slot") && msg.contains("refine.progress"),
            "panic message must name both locks: {msg}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn self_nesting_a_lock_name_is_caught() {
        let a = OrderedMutex::new(LockRank::RefineProgress, 0u8);
        let b = OrderedMutex::new(LockRank::RefineProgress, 1u8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock_or_recover();
            let _gb = b.lock_or_recover();
        }));
        assert!(caught.is_err(), "same-rank nesting must be rejected");
    }
}
