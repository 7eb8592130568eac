//! Opt-in profiling hooks for compiled-plan replay.
//!
//! [`crate::exec`] is on the workspace's determinism path: it may not
//! read the wall clock (outputs there must be pure functions of their
//! inputs). Replay *profiling* still wants wall time, so the timing
//! lives here, off that path, behind a process-global switch:
//!
//! * [`install`] points the hooks at a [`qns_obs::Registry`]; every
//!   full or delta replay, and every environment sweep, then records
//!   one sample into `qns_tnet_replays_total` /
//!   `qns_tnet_replay_micros` / `qns_tnet_replay_steps`, labeled by
//!   mode (`full`, `delta` or `sweep`).
//! * While **uninstalled** (the default), the hook in the replay loop
//!   is a single relaxed atomic load — no clock read, no lock, no
//!   allocation — so the zero-overhead execution path is preserved.
//!
//! The switch is process-global (one profiler at a time; the last
//! [`install`] wins). That matches its consumer: a bench harness or
//! serving process wiring replay metrics into the same registry the
//! `qns-serve` service exports. Timing samples are observability, not
//! data: nothing downstream of the pattern sum reads them, so the
//! determinism story of `exec` is untouched.
#![expect(
    clippy::disallowed_types,
    reason = "the replay timer; its samples are metrics, never pattern-sum data"
)]

use qns_obs::{catalog, Counter, Histogram, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// Handles for one replay mode (`full`, `delta` or `sweep`).
struct ModeHandles {
    replays: Counter,
    micros: Histogram,
    steps: Histogram,
}

impl ModeHandles {
    fn new(registry: &Registry, mode: &'static str) -> ModeHandles {
        ModeHandles {
            replays: registry.counter_labeled(&catalog::TNET_REPLAYS_TOTAL, mode),
            micros: registry.histogram_labeled(&catalog::TNET_REPLAY_MICROS, mode),
            steps: registry.histogram_labeled(&catalog::TNET_REPLAY_STEPS, mode),
        }
    }
}

/// Prefetched registry handles for the three modes.
struct ExecProfiler {
    full: ModeHandles,
    delta: ModeHandles,
    sweep: ModeHandles,
}

/// Fast-path switch: checked (relaxed) on every replay before anything
/// else happens, so the disabled cost is one atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILER: RwLock<Option<ExecProfiler>> = RwLock::new(None);

/// Routes replay metrics into `registry` until [`uninstall`] (or a
/// later `install` retargets them). Label children for both modes are
/// registered eagerly here, so the record path never allocates.
pub fn install(registry: &Arc<Registry>) {
    let profiler = ExecProfiler {
        full: ModeHandles::new(registry, "full"),
        delta: ModeHandles::new(registry, "delta"),
        sweep: ModeHandles::new(registry, "sweep"),
    };
    *PROFILER.write().unwrap_or_else(PoisonError::into_inner) = Some(profiler);
    ENABLED.store(true, Ordering::Release);
}

/// Stops profiling and drops the registry handles.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *PROFILER.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether a profiler is currently installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A replay's start timestamp — `None` when profiling was disabled at
/// replay start (the whole replay is then unobserved, keeping the
/// mode counters and the timing histograms in lockstep).
pub(crate) struct ReplayTimer(Option<Instant>);

/// Called at the top of every replay; reads the clock only when a
/// profiler is installed.
#[inline]
pub(crate) fn start_replay() -> ReplayTimer {
    if ENABLED.load(Ordering::Relaxed) {
        ReplayTimer(Some(Instant::now()))
    } else {
        ReplayTimer(None)
    }
}

/// The mode a replay sample is recorded under.
#[derive(Clone, Copy)]
enum Mode {
    Full,
    Delta,
    Sweep,
}

/// Records a completed full replay of `steps` pair contractions.
pub(crate) fn record_full(timer: ReplayTimer, steps: u64) {
    record(timer, steps, Mode::Full);
}

/// Records a completed delta replay that executed `dirty_steps` pair
/// contractions (the dirty leaf-to-root union, not the whole tree).
pub(crate) fn record_delta(timer: ReplayTimer, dirty_steps: u64) {
    record(timer, dirty_steps, Mode::Delta);
}

/// Records a completed environment sweep that ran `env_steps` reverse
/// steps.
pub(crate) fn record_sweep(timer: ReplayTimer, env_steps: u64) {
    record(timer, env_steps, Mode::Sweep);
}

fn record(timer: ReplayTimer, steps: u64, mode: Mode) {
    let Some(start) = timer.0 else {
        return;
    };
    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let guard = PROFILER.read().unwrap_or_else(PoisonError::into_inner);
    let Some(profiler) = guard.as_ref() else {
        return;
    };
    let mode = match mode {
        Mode::Full => &profiler.full,
        Mode::Delta => &profiler.delta,
        Mode::Sweep => &profiler.sweep,
    };
    mode.replays.inc();
    mode.micros.record(micros);
    mode.steps.record(steps);
}
