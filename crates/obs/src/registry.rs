//! The metrics registry: atomic counters, gauges, and log₂ histograms
//! keyed by the committed [`crate::CATALOG`].
//!
//! Record-side handles are requested with a catalog constant
//! (`registry.counter(&catalog::SERVE_JOBS_SUBMITTED_TOTAL)`), so only
//! declared families can be recorded into; see [`crate::catalog`].
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones; the record path is a handful of relaxed atomic operations
//! and performs **zero heap allocations** — `tests/zero_alloc.rs`
//! asserts that under a counting global allocator, and the registry
//! counts its own registration-time allocations through
//! [`Registry::allocation_events`].
//!
//! All atomics use `Relaxed` ordering: each series is independently
//! monotone, so a concurrent [`Registry::snapshot`] sees a consistent
//! monotone view of every series even while writers are racing.
//! Cross-series invariants (e.g. "executed ≤ submitted") only hold
//! once the writers are quiesced or externally synchronized.

use crate::catalog::{MetricDef, MetricKind, CATALOG};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Number of histogram buckets: upper bounds `2^0 … 2^38` plus a final
/// `+Inf` catch-all.
pub const BUCKET_COUNT: usize = 40;

/// Upper bound of bucket `i` (valid for `i < BUCKET_COUNT - 1`); the
/// last bucket is `+Inf`.
pub fn bucket_le(i: usize) -> u64 {
    1u64 << i
}

/// The bucket a sample lands in: the smallest `i` with
/// `value <= 2^i`, clamped into the `+Inf` bucket.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
        ceil_log2.min(BUCKET_COUNT - 1)
    }
}

/// A monotone `u64` counter handle (an `Arc` over the shared cell).
///
/// Obtained from [`Registry::counter`] / [`Registry::counter_labeled`],
/// or [`Counter::detached`] for a standalone cell that is not exported.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter not attached to any registry (used as the
    /// default backing for components constructed without a registry).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge handle with a retained high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<GaugeCell>);

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    high: AtomicI64,
}

impl Gauge {
    /// A standalone gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Adds `delta` (may be negative) and raises the high-water mark.
    pub fn add(&self, delta: i64) {
        let now = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.0.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one (the high-water mark never decreases).
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Stores `value` unconditionally and raises the high-water mark.
    pub fn set(&self, value: i64) {
        self.0.value.store(value, Ordering::Relaxed);
        self.0.high.fetch_max(value, Ordering::Relaxed);
    }

    /// Raises the stored value to at least `value`.
    pub fn set_max(&self, value: i64) {
        self.0.value.fetch_max(value, Ordering::Relaxed);
        self.0.high.fetch_max(value, Ordering::Relaxed);
    }

    /// Stores `max(value, 1)` only if the gauge still reads zero —
    /// a one-shot latch (used for "first submission" timestamps,
    /// where zero means "not yet").
    pub fn set_if_unset(&self, value: i64) {
        let v = value.max(1);
        if self
            .0
            .value
            .compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.0.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value ever stored (never decreases).
    pub fn high_water(&self) -> i64 {
        self.0.high.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram handle for `u64` samples
/// (microseconds, step counts, …).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A standalone histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. The buckets are preallocated, so this is
    /// two relaxed atomic adds and never touches the heap.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Snapshots the bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (i, b) in self.0.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram series.
///
/// The sample count is *derived* from the buckets (`count() = Σ`), so a
/// snapshot taken mid-race is always internally consistent: every
/// counted sample is in exactly one bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` holds samples `≤ 2^i`; the
    /// last bucket is `+Inf`).
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all recorded sample values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total recorded samples (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value, or 0 for an empty histogram. The bucket sum
    /// is exact (not bucketed), so the mean is exact too.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the
    /// upper bound of the bucket containing the ranked sample. The
    /// `+Inf` bucket reports `2^39` as a finite cap. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return 1u64 << i.min(BUCKET_COUNT - 1);
            }
        }
        1u64 << (BUCKET_COUNT - 1)
    }
}

/// A point-in-time copy of one gauge series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Instantaneous value.
    pub value: i64,
    /// Highest value ever stored.
    pub high_water: i64,
}

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn new(kind: MetricKind) -> Handle {
        match kind {
            MetricKind::Counter => Handle::Counter(Counter::detached()),
            MetricKind::Gauge => Handle::Gauge(Gauge::detached()),
            MetricKind::Histogram => Handle::Histogram(Histogram::detached()),
        }
    }
}

struct Family {
    def: &'static MetricDef,
    /// Children keyed by label value; unlabeled families hold one child
    /// under `""`, created eagerly so steady-state lookups never write.
    children: RwLock<BTreeMap<String, Handle>>,
}

/// The metrics registry: one metric family per [`CATALOG`] entry.
///
/// Construction pre-registers the whole catalog; labeled children are
/// created on first use (each creation bumps
/// [`Registry::allocation_events`], so a warmed-up registry records
/// without allocating). The accessors take catalog constants, so every
/// family they name exists; asking for the wrong kind, or for a label
/// on an unlabeled family (or none on a labeled one), still panics.
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
    allocation_events: AtomicU64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Builds a registry covering the full [`CATALOG`].
    pub fn new() -> Registry {
        let mut families = BTreeMap::new();
        for def in CATALOG {
            let mut children = BTreeMap::new();
            if def.label.is_none() {
                children.insert(String::new(), Handle::new(def.kind));
            }
            let prev = families.insert(
                def.name,
                Family {
                    def,
                    children: RwLock::new(children),
                },
            );
            debug_assert!(prev.is_none(), "duplicate catalog entry");
        }
        Registry {
            families,
            allocation_events: AtomicU64::new(0),
        }
    }

    /// Labeled children created since construction. Flat across two
    /// identical snapshots ⇒ the recording in between was allocation
    /// free (registration is the only allocating step in the registry).
    pub fn allocation_events(&self) -> u64 {
        self.allocation_events.load(Ordering::Relaxed)
    }

    fn handle(&self, def: &'static MetricDef, label: &str) -> Handle {
        let name = def.name;
        let fam = &self.families[name];
        if label.is_empty() {
            assert!(
                def.label.is_none(),
                "metric `{name}` requires a `{}` label",
                def.label.unwrap_or_default()
            );
        } else {
            assert!(def.label.is_some(), "metric `{name}` takes no label");
        }
        if let Some(h) = fam
            .children
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(label)
        {
            return h.clone();
        }
        let mut children = fam.children.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = children.get(label) {
            return h.clone();
        }
        self.allocation_events.fetch_add(1, Ordering::Relaxed);
        let h = Handle::new(def.kind);
        children.insert(label.to_string(), h.clone());
        h
    }

    /// Handle to an unlabeled counter. Panics if `def` is not an
    /// unlabeled counter.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn counter(&self, def: &'static MetricDef) -> Counter {
        if let Handle::Counter(c) = self.handle(def, "") {
            return c;
        }
        panic!("metric `{}` is not an unlabeled counter", def.name)
    }

    /// Handle to one labeled counter series. Panics if `def` is not a
    /// labeled counter.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn counter_labeled(&self, def: &'static MetricDef, label: &str) -> Counter {
        if let Handle::Counter(c) = self.handle(def, label) {
            return c;
        }
        panic!("metric `{}` is not a labeled counter", def.name)
    }

    /// Handle to an unlabeled gauge. Panics if `def` is not an
    /// unlabeled gauge.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn gauge(&self, def: &'static MetricDef) -> Gauge {
        if let Handle::Gauge(g) = self.handle(def, "") {
            return g;
        }
        panic!("metric `{}` is not an unlabeled gauge", def.name)
    }

    /// Handle to one labeled gauge series. Panics if `def` is not a
    /// labeled gauge.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn gauge_labeled(&self, def: &'static MetricDef, label: &str) -> Gauge {
        if let Handle::Gauge(g) = self.handle(def, label) {
            return g;
        }
        panic!("metric `{}` is not a labeled gauge", def.name)
    }

    /// Handle to an unlabeled histogram. Panics if `def` is not an
    /// unlabeled histogram.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn histogram(&self, def: &'static MetricDef) -> Histogram {
        if let Handle::Histogram(h) = self.handle(def, "") {
            return h;
        }
        panic!("metric `{}` is not an unlabeled histogram", def.name)
    }

    /// Handle to one labeled histogram series. Panics if `def` is not
    /// a labeled histogram.
    #[expect(
        clippy::panic,
        reason = "a `MetricDef` of the wrong kind is a caller bug"
    )]
    pub fn histogram_labeled(&self, def: &'static MetricDef, label: &str) -> Histogram {
        if let Handle::Histogram(h) = self.handle(def, label) {
            return h;
        }
        panic!("metric `{}` is not a labeled histogram", def.name)
    }

    /// All `(label, value)` pairs of a labeled counter family, in label
    /// order. Labels that were never touched are absent.
    pub fn counter_values(&self, def: &'static MetricDef) -> Vec<(String, u64)> {
        self.families[def.name]
            .children
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter_map(|(label, h)| match h {
                Handle::Counter(c) => Some((label.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Point-in-time copy of every series, in catalog-name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .families
            .values()
            .map(|fam| {
                let children = fam
                    .children
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|(label, h)| ChildSnapshot {
                        label: label.clone(),
                        value: match h {
                            Handle::Counter(c) => ValueSnapshot::Counter(c.get()),
                            Handle::Gauge(g) => {
                                // A racing writer raises the value before
                                // the mark; the value read is itself a
                                // stored value, so the mark is at least it.
                                let value = g.get();
                                ValueSnapshot::Gauge(GaugeSnapshot {
                                    value,
                                    high_water: g.high_water().max(value),
                                })
                            }
                            Handle::Histogram(hist) => ValueSnapshot::Histogram(hist.snapshot()),
                        },
                    })
                    .collect();
                MetricSnapshot {
                    name: fam.def.name,
                    kind: fam.def.kind,
                    label_key: fam.def.label,
                    help: fam.def.help,
                    children,
                }
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

/// A point-in-time copy of the whole registry, in stable name order.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// One entry per catalog family, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

/// One family's snapshot.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Catalog name.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Label key for partitioned families.
    pub label_key: Option<&'static str>,
    /// Catalog help text.
    pub help: &'static str,
    /// Child series in label order (`""` for unlabeled families).
    pub children: Vec<ChildSnapshot>,
}

/// One child series' snapshot.
#[derive(Clone, Debug)]
pub struct ChildSnapshot {
    /// Label value (`""` for the default child).
    pub label: String,
    /// The captured value.
    pub value: ValueSnapshot,
}

/// The captured value of one series.
///
/// The histogram variant carries its 40 buckets inline: snapshots are
/// cold-path values read once by an exporter, so locality beats the
/// boxing clippy suggests for the size skew.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ValueSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value + high-water mark.
    Gauge(GaugeSnapshot),
    /// Histogram buckets + sum.
    Histogram(HistogramSnapshot),
}

impl MetricsSnapshot {
    fn family(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn child(&self, name: &str, label: &str) -> Option<&ValueSnapshot> {
        self.family(name)?
            .children
            .iter()
            .find(|c| c.label == label)
            .map(|c| &c.value)
    }

    /// Value of an unlabeled counter (`None` if absent or wrong kind).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.child(name, "")? {
            ValueSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Value of one labeled counter series.
    pub fn counter_value_labeled(&self, name: &str, label: &str) -> Option<u64> {
        match self.child(name, label)? {
            ValueSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Value + high-water of an unlabeled gauge.
    pub fn gauge_value(&self, name: &str) -> Option<GaugeSnapshot> {
        match self.child(name, "")? {
            ValueSnapshot::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Value + high-water of one labeled gauge series.
    pub fn gauge_value_labeled(&self, name: &str, label: &str) -> Option<GaugeSnapshot> {
        match self.child(name, label)? {
            ValueSnapshot::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Snapshot of an unlabeled histogram.
    pub fn histogram_value(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.child(name, "")? {
            ValueSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Snapshot of one labeled histogram series.
    pub fn histogram_value_labeled(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        match self.child(name, label)? {
            ValueSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{SERVE_BACKEND_JOBS_TOTAL, SERVE_JOBS_SUBMITTED_TOTAL, SERVE_QUEUE_DEPTH};

    #[test]
    fn bucket_index_matches_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 38), 38);
        assert_eq!(bucket_index((1 << 38) + 1), 39);
        assert_eq!(bucket_index(u64::MAX), 39);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter(&SERVE_JOBS_SUBMITTED_TOTAL);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Handles alias the same cell.
        assert_eq!(reg.counter(&SERVE_JOBS_SUBMITTED_TOTAL).get(), 5);

        let g = reg.gauge(&SERVE_QUEUE_DEPTH);
        g.add(3);
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 3);
        g.set_max(1);
        assert_eq!(g.get(), 2, "set_max never lowers");
    }

    #[test]
    fn gauge_latch_sets_once() {
        let g = Gauge::detached();
        g.set_if_unset(0); // clamped to 1
        g.set_if_unset(99);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::detached();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 1106);
        assert_eq!(snap.quantile(0.5), 4, "3 rounds up to its 2^2 bucket");
        assert_eq!(snap.quantile(1.0), 1024);
        assert_eq!(
            HistogramSnapshot {
                buckets: [0; BUCKET_COUNT],
                sum: 0
            }
            .quantile(0.5),
            0
        );
    }

    #[test]
    fn labeled_children_register_on_first_use_only() {
        let reg = Registry::new();
        assert_eq!(reg.allocation_events(), 0);
        let a = reg.counter_labeled(&SERVE_BACKEND_JOBS_TOTAL, "approx");
        assert_eq!(reg.allocation_events(), 1);
        let b = reg.counter_labeled(&SERVE_BACKEND_JOBS_TOTAL, "approx");
        assert_eq!(reg.allocation_events(), 1, "second lookup reuses the child");
        a.inc();
        b.inc();
        assert_eq!(
            reg.counter_values(&SERVE_BACKEND_JOBS_TOTAL),
            vec![("approx".to_string(), 2)]
        );
    }

    #[test]
    fn snapshot_covers_catalog_in_order() {
        let reg = Registry::new();
        let snap = reg.snapshot();
        assert_eq!(snap.metrics.len(), CATALOG.len());
        let mut names: Vec<_> = snap.metrics.iter().map(|m| m.name).collect();
        let sorted = {
            names.sort_unstable();
            names.clone()
        };
        assert_eq!(
            snap.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
            sorted,
            "snapshot iterates in name order"
        );
        assert_eq!(
            snap.counter_value("qns_serve_jobs_submitted_total"),
            Some(0)
        );
        assert!(snap
            .histogram_value("qns_serve_queue_wait_micros")
            .is_some());
        assert!(
            snap.counter_value("qns_serve_queue_depth").is_none(),
            "kind mismatch is None"
        );
    }
}
