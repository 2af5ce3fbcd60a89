//! What one benchmark run accumulates: the tracer, the end-to-end
//! samples of each session, the correctness ledger and the per-class
//! encoder tallies.

use std::collections::BTreeMap;

use crate::stats::Samples;
use crate::trace::Tracer;

/// Failure messages kept for the report (the count is always exact).
const KEPT_FAILURES: usize = 20;

/// One session's samples behind the end-to-end metrics, in the metric's
/// unit.
#[derive(Debug, Default)]
pub struct Session {
    pub traced: bool,
    pub setup_s: Samples,
    pub pause_ms: Samples,
    pub boundary_ms: Samples,
    pub round_ms: Samples,
    pub report_ms: Samples,
    pub rollback_ms: Samples,
    pub recover_ms: Samples,
    /// Committed (tenant-)epochs inside the timed loop.
    pub committed: u64,
    /// Wall time of the timed loop, in seconds.
    pub loop_s: f64,
}

/// Drain-encoder results of one tenant class (or of the single guest).
#[derive(Debug, Default, Clone, Copy)]
pub struct Encoding {
    pub epochs: u64,
    pub bytes_saved: u64,
    pub dedup_hits: u64,
    pub dedup_misses: u64,
}

#[derive(Debug)]
pub struct Run {
    pub tracer: Tracer,
    pub sessions: Vec<Session>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub encoding: BTreeMap<&'static str, Encoding>,
    /// Peak resident memory when the first session ended, in MiB: the
    /// peak of one session's fixed work, whatever the run's length.
    pub first_session_peak_mb: f64,
}

impl Run {
    pub fn new() -> Self {
        Run {
            tracer: Tracer::new(),
            sessions: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            encoding: BTreeMap::new(),
            first_session_peak_mb: 0.0,
        }
    }

    /// Start a session, traced or not.
    pub fn start_session(&mut self, traced: bool) {
        self.tracer.set_on(traced);
        self.sessions.push(Session {
            traced,
            ..Session::default()
        });
    }

    /// The current session's samples.
    pub fn session(&mut self) -> &mut Session {
        if self.sessions.is_empty() {
            self.start_session(false);
        }
        self.sessions
            .last_mut()
            .expect("a session was just started")
    }

    /// Count one attempted operation; a failed one is counted and kept.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            eprintln!("check failed: {msg}");
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(msg);
            }
        }
    }
}
