//! Every workload and metric the benchmark reports, with how each
//! metric is computed. `BENCHMARK.json` declares the same names; a test
//! keeps the two equal.

use crate::run::{Run, Session};
use crate::stats::{blocked, Samples};
use crate::trace::Span;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "web-inline",
        "fig7 guest on the serial inline walk: in-window layers do all the boundary work, the drain none",
    ),
    (
        "web-deferred",
        "fig7 guest on the deferred pipeline with delta/dedup drain to a local backup: the drain dominates the boundary",
    ),
    (
        "fleet-mixed",
        "48 tenants in three classes under run_round on one busy thread: lease turnover, per-tenant drains, unencodable churn",
    ),
    (
        "incident",
        "attack cycles on the fig7 guest: analyzer, replay, forensics, rollback and journal recovery on the path",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a per-layer figure is wall-clock work of this host (`real`) or
/// the `HypercallModel` stand-in for Xen (`modelled`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Real,
    Modelled,
}

impl Tag {
    pub fn as_str(self) -> &'static str {
        match self {
            Tag::Real => "real",
            Tag::Modelled => "modelled",
        }
    }
}

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: fn(&Run) -> f64,
}

#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub tag: Tag,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
    pub value: fn(&Layers<'_>) -> f64,
}

/// Selects one kind of sample from a session.
pub type Pick = fn(&Session) -> &Samples;

fn p50(s: &Samples) -> f64 {
    s.median().unwrap_or(0.0)
}

/// A percentile of one kind of sample as the median of its per-block
/// figures (see [`blocked`]).
pub fn across(r: &Run, pick: Pick, permille: u32) -> f64 {
    let sets: Vec<&Samples> = r.sessions.iter().map(pick).collect();
    blocked(&sets, permille).map_or(0.0, |g| g.0)
}

/// Median over sessions of each session's mean. Every session runs the
/// same balanced set of incident cycles (each attack equally often, on
/// every tenant class), so a session's mean over the set is its figure;
/// a pooled median would jump between attack kinds.
fn probe_set(r: &Run, pick: Pick) -> f64 {
    let mut means = Samples::default();
    for s in &r.sessions {
        let set = pick(s);
        if set.len() > 0 {
            means.push(set.sum() / set.len() as f64);
        }
    }
    p50(&means)
}

/// Median over sessions of committed epochs per second of timed loop.
fn epochs_per_s(r: &Run) -> f64 {
    let mut rates = Samples::default();
    for s in r.sessions.iter().filter(|s| s.loop_s > 0.0) {
        rates.push(s.committed as f64 / s.loop_s);
    }
    p50(&rates)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        value: |r| across(r, |s| &s.setup_s, 500),
    },
    EndToEnd {
        name: "epochs_per_s",
        unit: "1/s",
        better: Better::Higher,
        value: epochs_per_s,
    },
    EndToEnd {
        name: "pause_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.pause_ms, 500),
    },
    EndToEnd {
        name: "pause_p95_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.pause_ms, 950),
    },
    EndToEnd {
        name: "boundary_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.boundary_ms, 500),
    },
    EndToEnd {
        name: "boundary_p95_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.boundary_ms, 950),
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.round_ms, 500),
    },
    EndToEnd {
        name: "round_p95_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| across(r, |s| &s.round_ms, 950),
    },
    EndToEnd {
        name: "report_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| probe_set(r, |s| &s.report_ms),
    },
    EndToEnd {
        name: "rollback_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| probe_set(r, |s| &s.rollback_ms),
    },
    EndToEnd {
        name: "recover_p50_ms",
        unit: "ms",
        better: Better::Lower,
        value: |r| probe_set(r, |s| &s.recover_ms),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        value: |r| r.first_session_peak_mb,
    },
];

/// The traced sessions' spans, queried by name, label and attribute.
#[derive(Debug)]
pub struct Layers<'a> {
    pub spans: &'a [Span],
    /// Traced minus untraced `round_p50_ms`, as a share of untraced.
    pub overhead_pct: f64,
}

impl Layers<'_> {
    fn durations(&self, name: &str, label: &str) -> Samples {
        let mut s = Samples::default();
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.label == label)
        {
            s.push(span.duration_ms());
        }
        s
    }

    fn attr(&self, key: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans {
            for &(k, v) in &span.attrs {
                if k == key {
                    s.push(v);
                }
            }
        }
        s
    }

    fn attr_p50(&self, key: &str) -> f64 {
        p50(&self.attr(key))
    }

    fn attr_sum(&self, key: &str) -> f64 {
        self.attr(key).sum()
    }

    /// Sum of `key` per sample of `key` (per epoch, for per-epoch keys).
    fn attr_mean(&self, key: &str) -> f64 {
        let s = self.attr(key);
        if s.len() == 0 {
            0.0
        } else {
            s.sum() / s.len() as f64
        }
    }

    fn attr_max(&self, key: &str) -> f64 {
        self.attr(key).percentile(100.0).unwrap_or(0.0)
    }

    pub fn dedup_ratio(&self) -> (f64, f64) {
        let hits = self.attr_sum("dedup_hits");
        let probes = hits + self.attr_sum("dedup_misses");
        (if probes > 0.0 { hits / probes } else { 0.0 }, probes)
    }
}

const IN_WINDOW: &str = "pause_p50_ms on web-inline";

pub const PER_LAYER: [Layer; 27] = [
    Layer {
        name: "vm.slice_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "epochs_per_s on web-inline",
        value: |l| p50(&l.durations("vm.slice", "")),
    },
    Layer {
        name: "vm.dirty_pages",
        unit: "count",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "nothing: an input property",
        value: |l| l.attr_p50("dirty_pages"),
    },
    Layer {
        name: "outbuf.submit_us",
        unit: "us",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "epochs_per_s on web-inline",
        value: |l| p50(&l.durations("crimes.submit_output", "")) * 1e3,
    },
    Layer {
        name: "journal.bytes_per_epoch",
        unit: "B",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "recover_p50_ms on incident; peak_rss_mb on web-*",
        value: |l| l.attr_mean("journal_bytes"),
    },
    Layer {
        name: "checkpoint.suspend_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Modelled,
        moves: IN_WINDOW,
        value: |l| l.attr_p50("suspend_ms"),
    },
    Layer {
        name: "checkpoint.bitscan_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: IN_WINDOW,
        value: |l| l.attr_p50("bitscan_ms"),
    },
    Layer {
        name: "checkpoint.map_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: IN_WINDOW,
        value: |l| l.attr_p50("map_ms"),
    },
    Layer {
        name: "checkpoint.copy_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: IN_WINDOW,
        value: |l| l.attr_p50("copy_ms"),
    },
    Layer {
        name: "checkpoint.resume_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Modelled,
        moves: IN_WINDOW,
        value: |l| l.attr_p50("resume_ms"),
    },
    Layer {
        name: "checkpoint.post_resume_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "boundary_p50_ms on web-deferred",
        value: |l| l.attr_p50("post_resume_ms"),
    },
    Layer {
        name: "checkpoint.bytes_saved_per_epoch",
        unit: "B",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "boundary_p50_ms on web-deferred; round_p50_ms on fleet-mixed",
        value: |l| l.attr_mean("bytes_saved"),
    },
    Layer {
        name: "checkpoint.dedup_hits",
        unit: "count",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "boundary_p50_ms on web-deferred; round_p50_ms on fleet-mixed",
        value: |l| l.attr_sum("dedup_hits"),
    },
    Layer {
        name: "checkpoint.dedup_misses",
        unit: "count",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "boundary_p50_ms on web-deferred; round_p50_ms on fleet-mixed",
        value: |l| l.attr_sum("dedup_misses"),
    },
    Layer {
        name: "checkpoint.dedup_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "boundary_p50_ms on web-deferred; round_p50_ms on fleet-mixed",
        value: |l| l.dedup_ratio().0,
    },
    Layer {
        name: "vmi.audit_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "pause_p50_ms on web-*",
        value: |l| l.attr_p50("audit_ms"),
    },
    Layer {
        name: "framework.extended",
        unit: "count",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "round_p95_ms on fleet-mixed",
        value: |l| l.attr_sum("extended"),
    },
    Layer {
        name: "framework.vmi_retries",
        unit: "count",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "round_p95_ms on fleet-mixed",
        value: |l| l.attr_sum("vmi_retries"),
    },
    Layer {
        name: "scheduler.turn_ms",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "round_p50_ms on fleet-mixed",
        value: |l| p50(&l.durations("scheduler.turn", "")),
    },
    Layer {
        name: "scheduler.peak_leases",
        unit: "count",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "round_p50_ms on fleet-mixed",
        value: |l| l.attr_max("peak_leases"),
    },
    Layer {
        name: "scheduler.total_leases",
        unit: "count",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "epochs_per_s on fleet-mixed",
        value: |l| l.attr_sum("leases"),
    },
    Layer {
        name: "scheduler.cross_tenant_dup_pages",
        unit: "count",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "nothing: a counter-only model",
        value: |l| l.attr_sum("cross_tenant_dup_pages"),
    },
    Layer {
        name: "analyzer.investigate_ms.heap",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "report_p50_ms on incident",
        value: |l| p50(&l.durations("crimes.investigate", "heap")),
    },
    Layer {
        name: "analyzer.investigate_ms.rootkit",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "report_p50_ms on incident",
        value: |l| p50(&l.durations("crimes.investigate", "rootkit")),
    },
    Layer {
        name: "analyzer.investigate_ms.malware",
        unit: "ms",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "report_p50_ms on incident",
        value: |l| p50(&l.durations("crimes.investigate", "malware")),
    },
    Layer {
        name: "analyzer.ops_replayed",
        unit: "count",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "report_p50_ms on incident",
        value: |l| l.attr_p50("ops_replayed"),
    },
    Layer {
        name: "forensics.report_bytes",
        unit: "B",
        better: Better::Higher,
        tag: Tag::Real,
        moves: "nothing: must not shrink",
        value: |l| l.attr_p50("report_bytes"),
    },
    Layer {
        name: "trace.overhead_pct",
        unit: "%",
        better: Better::Lower,
        tag: Tag::Real,
        moves: "round_p50_ms when tracing is on",
        value: |l| l.overhead_pct,
    },
];
