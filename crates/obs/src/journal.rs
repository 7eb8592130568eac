//! Bounded ring-buffer event journal for per-job timelines.
//!
//! The journal is deliberately **not** internally synchronized: the
//! serving layer wraps it in its own ordered lock (`"serve.journal"`)
//! so the lock-order registry governs it like every other serve lock.
//! Events are fixed-size `Copy` records; the ring is preallocated at
//! construction, so recording never allocates, and overflow overwrites
//! the oldest event while bumping a drop counter — loss is counted,
//! never silent.

use crate::registry::Counter;

/// What happened at one point in a job's lifecycle.
///
/// Engine names are `&'static str` (backend names are static in this
/// workspace), which keeps [`Event`] `Copy` and the record path free of
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The service accepted a submission.
    Submitted,
    /// The submission joined an identical in-flight job.
    DedupJoined,
    /// The submission was answered from the result cache.
    CacheHit,
    /// The job entered the work queue (`queue_depth` includes it).
    Enqueued {
        /// Queue depth right after the push.
        queue_depth: u32,
    },
    /// A worker dequeued the job.
    Dequeued {
        /// Microseconds spent waiting in the queue.
        queue_wait_micros: u64,
    },
    /// The router chose a backend.
    Routed {
        /// Chosen backend name.
        engine: &'static str,
        /// The backend's cost hint for this job (`u64::MAX` when the
        /// backend declined to estimate).
        cost: u64,
    },
    /// A backend finished executing the job.
    Executed {
        /// Backend that ran the job.
        engine: &'static str,
        /// Execution wall time in microseconds.
        micros: u64,
        /// Whether the backend returned a value (vs error/panic).
        ok: bool,
    },
    /// The service accepted a refinement submission.
    RefineSubmitted {
        /// First level the caller will be woken for.
        first_level: u32,
        /// Level at which the refinement is exact.
        final_level: u32,
    },
    /// One refinement level became available.
    RefineLevel {
        /// The completed level.
        level: u32,
        /// Pattern count of this level's own contribution.
        patterns: u64,
        /// Microseconds to compute the level (0 when from cache).
        micros: u64,
        /// Whether the level was replayed from the partial-sum cache.
        from_cache: bool,
    },
    /// A failed attempt is being retried under the service's
    /// `RetryPolicy`.
    Retried {
        /// The attempt number about to run (2 = first retry).
        attempt: u32,
        /// Backoff slept before this attempt, in microseconds.
        backoff_micros: u64,
    },
    /// A retry re-routed to a different engine than the failed attempt.
    FailedOver {
        /// Engine the failed attempt ran on.
        from: &'static str,
        /// Engine the retry routed to.
        to: &'static str,
    },
    /// The deadline watchdog resolved the job with `QnsError::Timeout`.
    TimedOut {
        /// Microseconds the job was given before the watchdog fired.
        after_micros: u64,
    },
    /// Admission control admitted a refinement at a shallower
    /// (degraded-but-bounded) first level than its budget asked for.
    Degraded {
        /// First level the request's budget would have bought.
        requested_level: u32,
        /// First level actually promised under overload.
        served_level: u32,
    },
    /// Admission control rejected the submission with
    /// `QnsError::Overloaded`.
    Shed {
        /// Queue depth at the admission decision.
        queue_depth: u32,
    },
    /// The job's handle was resolved (value or error published).
    Resolved {
        /// Whether a value (vs an error) was published.
        ok: bool,
    },
}

/// One journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotone across the whole journal,
    /// including dropped events).
    pub seq: u64,
    /// Service-assigned job id the event belongs to.
    pub job: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Everything [`Journal::drain`] returns: the buffered events in
/// sequence order plus the cumulative drop count.
#[derive(Clone, Debug, Default)]
pub struct DrainedEvents {
    /// Buffered events, oldest first.
    pub events: Vec<Event>,
    /// Total events ever overwritten before being drained (cumulative
    /// across the journal's lifetime, not just this drain).
    pub dropped: u64,
}

impl DrainedEvents {
    /// Groups the events by job id, preserving sequence order within
    /// each job — the per-job timeline reconstruction used by tests
    /// and post-hoc analysis.
    pub fn timelines(&self) -> std::collections::BTreeMap<u64, Vec<Event>> {
        let mut map: std::collections::BTreeMap<u64, Vec<Event>> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            map.entry(ev.job).or_default().push(*ev);
        }
        map
    }
}

/// Fixed-capacity ring of [`Event`]s.
#[derive(Debug)]
pub struct Journal {
    buf: Vec<Event>,
    head: usize,
    len: usize,
    next_seq: u64,
    dropped: u64,
    drop_counter: Counter,
    allocation_events: u64,
}

impl Journal {
    /// A journal holding at most `capacity` events (0 disables
    /// buffering entirely: every event counts as dropped).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            next_seq: 0,
            dropped: 0,
            drop_counter: Counter::detached(),
            allocation_events: 0,
        }
    }

    /// Mirrors the drop count into a registry counter (e.g.
    /// `qns_serve_events_dropped_total`) in addition to the internal
    /// tally.
    pub fn with_drop_counter(mut self, counter: Counter) -> Journal {
        self.drop_counter = counter;
        self
    }

    /// Appends one event, overwriting the oldest when full. The ring
    /// was preallocated by [`Journal::with_capacity`], so the push
    /// below never grows the buffer (tracked by
    /// [`Journal::allocation_events`]).
    pub fn record(&mut self, job: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { seq, job, kind };
        let cap = self.buf.capacity();
        if cap == 0 {
            self.dropped += 1;
            self.drop_counter.inc();
            return;
        }
        if self.len < cap {
            if self.buf.len() == cap {
                // Unreachable while len tracks buf.len(); counted so the
                // steady-state tests can assert it stays zero.
                self.allocation_events += 1;
            }
            self.buf.push(ev);
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
            self.drop_counter.inc();
        }
    }

    /// Removes and returns all buffered events in sequence order,
    /// together with the cumulative drop count. The ring's allocation
    /// is retained for reuse.
    pub fn drain(&mut self) -> DrainedEvents {
        let mut events = Vec::with_capacity(self.len);
        for i in 0..self.len {
            events.push(self.buf[(self.head + i) % self.buf.capacity().max(1)]);
        }
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        DrainedEvents {
            events,
            dropped: self.dropped,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum buffered events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Total events ever dropped to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Times the ring buffer had to grow (always 0: the ring is sized
    /// once at construction — the counter exists so tests can assert
    /// the record path's steady state, PR 5/6 kernel style).
    pub fn allocation_events(&self) -> u64 {
        self.allocation_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_sequence_order() {
        let mut j = Journal::with_capacity(8);
        j.record(1, EventKind::Submitted);
        j.record(1, EventKind::Resolved { ok: true });
        let drained = j.drain();
        assert_eq!(drained.dropped, 0);
        assert_eq!(drained.events.len(), 2);
        assert_eq!(drained.events[0].seq, 0);
        assert_eq!(drained.events[1].kind, EventKind::Resolved { ok: true });
        assert!(j.is_empty());
        assert_eq!(j.allocation_events(), 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let counter = Counter::detached();
        let mut j = Journal::with_capacity(3).with_drop_counter(counter.clone());
        for job in 0..5 {
            j.record(job, EventKind::Submitted);
        }
        let drained = j.drain();
        assert_eq!(drained.dropped, 2);
        assert_eq!(counter.get(), 2);
        let jobs: Vec<u64> = drained.events.iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![2, 3, 4], "oldest events were overwritten");
        assert_eq!(drained.events[0].seq, 2, "sequence numbers keep counting");
        assert_eq!(j.allocation_events(), 0);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut j = Journal::with_capacity(0);
        j.record(7, EventKind::Submitted);
        let drained = j.drain();
        assert!(drained.events.is_empty());
        assert_eq!(drained.dropped, 1);
    }

    #[test]
    fn timelines_group_by_job_in_order() {
        let mut j = Journal::with_capacity(16);
        j.record(1, EventKind::Submitted);
        j.record(2, EventKind::Submitted);
        j.record(1, EventKind::CacheHit);
        j.record(2, EventKind::Resolved { ok: true });
        let tl = j.drain().timelines();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[&1][1].kind, EventKind::CacheHit);
        assert_eq!(tl[&2][1].kind, EventKind::Resolved { ok: true });
    }
}
