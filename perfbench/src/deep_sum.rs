//! `deep_sum`: one pass over a fixed list of paper-family jobs, each
//! called directly through `ApproxBackend::expectation` on two
//! evaluator threads, no service. The pattern sum (delta replay and
//! the linalg kernels) does most of the work and per-job set-up little.

use crate::gen::{self, DeepJob};
use crate::layers::LayerJob;
use crate::metrics::Metrics;
use crate::run::{Answer, Pass, Record, Workload};
use crate::trace::Tracer;
use qns_api::{ApproxBackend, Backend};
use qns_serve::JobSpec;
use std::sync::Arc;
use std::time::Instant;

/// Evaluator threads of every `deep_sum` job.
pub const THREADS: usize = 2;

/// The `deep_sum` workload.
pub struct DeepSum {
    jobs: Vec<DeepJob>,
    backends: Vec<ApproxBackend>,
}

impl Workload for DeepSum {
    const NAME: &'static str = "deep_sum";

    fn setup(seed: u64) -> Self {
        let jobs = gen::deep_sum_jobs(seed);
        let backends: Vec<ApproxBackend> = jobs
            .iter()
            .map(|j| ApproxBackend::level(j.level).with_threads(THREADS))
            .collect();
        // Warm-up: one cheap level-1 run starts the evaluator threads
        // and touches the allocator before anything is timed.
        let warm = jobs.last().expect("deep_sum has jobs");
        ApproxBackend::level(1)
            .with_threads(THREADS)
            .expectation(&warm.spec.job())
            .expect("warm-up job runs");
        DeepSum { jobs, backends }
    }

    fn pass(&mut self, tracer: &Arc<Tracer>) -> Pass {
        let start = Instant::now();
        let records = self
            .jobs
            .iter()
            .zip(&self.backends)
            .enumerate()
            .map(|(i, (job, backend))| {
                let t = Instant::now();
                let r = tracer.span("api.job.approx", None, i as u64, |_| {
                    backend.expectation(&job.spec.job())
                });
                let d = t.elapsed();
                Record {
                    key: i as u64,
                    spec: i,
                    first: d,
                    last: d,
                    answer: r
                        .map(|e| Answer {
                            value: e.value,
                            bound: e.error_bound.unwrap_or(0.0),
                            levels: Vec::new(),
                        })
                        .map_err(|e| e.to_string()),
                    executed: true,
                }
            })
            .collect();
        Pass {
            records,
            wall: start.elapsed(),
        }
    }

    fn specs(&self) -> Vec<&JobSpec> {
        self.jobs.iter().map(|j| &j.spec).collect()
    }

    fn layer_jobs(&self, max: usize) -> Vec<LayerJob<'_>> {
        self.jobs
            .iter()
            .take(max)
            .map(|j| LayerJob {
                spec: &j.spec,
                level: j.level,
                threads: THREADS,
            })
            .collect()
    }

    fn pass_metrics(&self, _records: &[Record], _tracer: &Tracer, _out: &mut Metrics) {}
}
