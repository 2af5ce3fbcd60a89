//! `crimes-perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload web-inline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every input is generated from `--seed`. Load comes from this one
//! thread in a closed loop: the next epoch, round or incident cycle
//! starts when the previous call returns. The run repeats whole sessions
//! (fresh guests, timed set-up, the workload's cycles, correctness
//! checks) until another would overrun `--seconds`. It prints every
//! metric with its unit and, last, one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! records spans in every other session, writes them to
//! `perfbench/out/trace-<workload>.jsonl`, and reports the tracing
//! overhead as the traced sessions' `round_p50_ms` against the untraced
//! ones'.

mod catalog;
mod fleet;
mod guest;
#[cfg(test)]
mod json;
mod run;
mod single;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crimes::CrimesConfig;

use crate::catalog::{Layers, Pick, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::Run;
use crate::stats::{blocked, permille_label, tail_permille, Samples};
use crate::trace::json_number;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WebInline,
    WebDeferred,
    FleetMixed,
    Incident,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "web-inline" => Workload::WebInline,
            "web-deferred" => Workload::WebDeferred,
            "fleet-mixed" => Workload::FleetMixed,
            "incident" => Workload::Incident,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WebInline => "web-inline",
            Workload::WebDeferred => "web-deferred",
            Workload::FleetMixed => "fleet-mixed",
            Workload::Incident => "incident",
        }
    }
}

/// Responses the fig7 web guest emits per epoch, and their size.
const WEB_OUTPUTS: usize = 72;
const WEB_OUTPUT_LEN: usize = 512;

fn plan(w: Workload) -> Result<single::Plan, String> {
    let web = |config, clean| single::Plan {
        config,
        cycles: 1,
        clean,
        attacks: 3,
        outputs: WEB_OUTPUTS,
        output_len: WEB_OUTPUT_LEN,
        incidents_in_loop: false,
    };
    let built = |b: &mut crimes::CrimesConfigBuilder| b.build().map_err(|e| format!("config: {e}"));
    Ok(match w {
        Workload::WebInline => web(CrimesConfig::latency_sensitive(), 400),
        Workload::WebDeferred => web(
            built(
                CrimesConfig::builder()
                    .epoch_interval_ms(20)
                    .staging_buffers(2)
                    .delta_threshold(64)
                    .dedup(true),
            )?,
            200,
        ),
        Workload::Incident => single::Plan {
            config: built(CrimesConfig::builder().epoch_interval_ms(50))?,
            cycles: 9,
            clean: 3,
            attacks: 1,
            outputs: WEB_OUTPUTS,
            output_len: WEB_OUTPUT_LEN,
            incidents_in_loop: true,
        },
        Workload::FleetMixed => unreachable!("the fleet has no single-guest plan"),
    })
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value}; expected one of {}",
                    WORKLOADS.map(|w| w.0).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// SplitMix64: one session's seed from the run's seed.
fn session_seed(seed: u64, session: u64) -> u64 {
    let mut z = seed.wrapping_add(session.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The commit of the checkout, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn execute(args: &Args) -> Run {
    let mut run = Run::new();
    let cpus = host_cpus();
    let plan = match args.workload {
        Workload::FleetMixed => None,
        w => match plan(w) {
            Ok(p) => Some(p),
            Err(e) => {
                run.op(Err(e));
                return run;
            }
        },
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut sessions = 0u64;
    loop {
        run.start_session(args.trace && sessions.is_multiple_of(2));
        let seed = session_seed(args.seed, sessions);
        let result = match &plan {
            Some(p) => single::session(&mut run, p, sessions, seed),
            None => fleet::session(&mut run, sessions, seed, cpus),
        };
        if let Err(e) = result {
            run.op(Err(e));
        }
        if sessions == 0 {
            run.first_session_peak_mb = catalog::peak_rss_mb();
        }
        sessions += 1;
        let elapsed = started.elapsed();
        let mean = elapsed / u32::try_from(sessions).unwrap_or(u32::MAX);
        if sessions >= 2 && elapsed + mean > budget {
            break;
        }
    }
    run.tracer.set_on(false);
    run
}

/// Traced sessions' `round_p50_ms` against the untraced ones', in
/// percent of the untraced figure.
fn overhead_pct(run: &Run) -> f64 {
    let round_p50 = |traced: bool| {
        let sets: Vec<&Samples> = run
            .sessions
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| &s.round_ms)
            .collect();
        blocked(&sets, 500).map(|g| g.0)
    };
    match (round_p50(false), round_p50(true)) {
        (Some(off), Some(on)) if off > 0.0 => (on / off - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Sample count, the block p50 and p95 the metrics report (with the
/// number of blocks), and the highest percentile the pooled count
/// supports.
fn sample_line(run: &Run, name: &str, unit: &str, pick: Pick) -> String {
    let sets: Vec<&Samples> = run.sessions.iter().map(pick).collect();
    let mut pooled = Samples::default();
    for set in &sets {
        pooled.extend(set);
    }
    let n = pooled.len();
    let mut line = format!("samples {name:<9} n={n:<6}");
    for pm in [500, 950] {
        if let Some((v, blocks)) = blocked(&sets, pm) {
            let _ = write!(
                line,
                " {}={v:.4} {unit} ({blocks} blocks)",
                permille_label(pm)
            );
        }
    }
    match tail_permille(n) {
        Some(pm) => {
            let tail = pooled.percentile(f64::from(pm) / 10.0).unwrap_or(0.0);
            let _ = write!(line, "; pooled {}={tail:.4} {unit}", permille_label(pm));
        }
        None => line.push_str("; too few samples for any percentile"),
    }
    line
}

/// One metric as measured.
#[derive(Debug, Clone, Copy)]
struct Measured {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn end_to_end(run: &Run) -> Vec<Measured> {
    END_TO_END
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: (m.value)(run),
        })
        .collect()
}

fn per_layer(layers: &Layers<'_>) -> Vec<Measured> {
    PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: (m.value)(layers),
        })
        .collect()
}

/// `"name":{"value":v,"unit":"u"<extra>}` for each metric.
fn metrics_object(metrics: &[Measured], extra: impl Fn(usize) -> String) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"{}}}",
            m.name,
            json_number(m.value),
            m.unit,
            extra(i)
        );
    }
    format!("{{{out}}}")
}

/// The result line the benchmark prints last. A run that attempted
/// nothing counts as one failed operation.
fn result_line(run: &Run, metrics: &[Measured]) -> String {
    let (attempted, failed) = if run.attempted == 0 {
        (1, 1)
    } else {
        (run.attempted, run.failed)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_object(metrics, |_| String::new())
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crimes-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = cpu_ticks();
    let run = execute(&args);
    let steal_pct = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.2}", (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
        }
        _ => "unknown".to_owned(),
    };
    let workload = args.workload.name();
    let commit = git_commit();
    let cpus = host_cpus();
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1);
    println!(
        "# crimes-perfbench workload={workload} seed={} seconds={} traced={} commit={commit} host_cpus={cpus} sessions={} cpu_steal_pct={steal_pct}",
        args.seed,
        args.seconds,
        args.trace,
        run.sessions.len()
    );
    println!("# {workload}: {why}");

    let kinds: [(&str, &str, Pick); 7] = [
        ("setup", "s", |s| &s.setup_s),
        ("pause", "ms", |s| &s.pause_ms),
        ("boundary", "ms", |s| &s.boundary_ms),
        ("round", "ms", |s| &s.round_ms),
        ("report", "ms", |s| &s.report_ms),
        ("rollback", "ms", |s| &s.rollback_ms),
        ("recover", "ms", |s| &s.recover_ms),
    ];
    for (name, unit, pick) in kinds {
        println!("{}", sample_line(&run, name, unit, pick));
    }
    let e2e = end_to_end(&run);
    for (m, spec) in e2e.iter().zip(&END_TO_END) {
        println!(
            "end_to_end {:<18} {:>14.4} {:<6} better={}",
            m.name,
            m.value,
            m.unit,
            spec.better.as_str()
        );
    }
    let failed_frac = if run.attempted > 0 {
        run.failed as f64 / run.attempted as f64
    } else {
        1.0
    };
    println!(
        "end_to_end failed_frac         {failed_frac:>14.4} ratio  ({} failed of {} attempted)",
        run.failed, run.attempted
    );

    for (class, enc) in &run.encoding {
        let probes = enc.dedup_hits + enc.dedup_misses;
        let ratio = if probes > 0 {
            format!("{:.4}%", enc.dedup_hits as f64 / probes as f64 * 100.0)
        } else {
            "n/a".to_owned()
        };
        println!(
            "encoder {class:<8} bytes_saved={} over {} epochs ({:.1} B/epoch); dedup hits={} misses={} hit_ratio={ratio} of {probes} probes",
            enc.bytes_saved,
            enc.epochs,
            enc.bytes_saved as f64 / enc.epochs.max(1) as f64,
            enc.dedup_hits,
            enc.dedup_misses,
        );
    }

    let layers = Layers {
        spans: run.tracer.spans(),
        overhead_pct: overhead_pct(&run),
    };
    let layer = per_layer(&layers);
    if args.trace {
        for (m, spec) in layer.iter().zip(&PER_LAYER) {
            println!(
                "layer {:<34} {:>14.4} {:<6} [{}] better={} moves {}",
                m.name,
                m.value,
                m.unit,
                spec.tag.as_str(),
                spec.better.as_str(),
                spec.moves
            );
        }
        let (_, probes) = layers.dedup_ratio();
        println!("layer checkpoint.dedup_hit_ratio base: {probes} dedup probes in traced sessions");
        let tagged = metrics_object(&layer, |i| {
            format!(
                ",\"tag\":\"{}\",\"moves\":\"{}\"",
                PER_LAYER[i].tag.as_str(),
                PER_LAYER[i].moves
            )
        });
        let path = Path::new("perfbench/out").join(format!("trace-{workload}.jsonl"));
        let header = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"traced\":true,\"commit\":\"{commit}\",\"host_cpus\":{cpus},\"sessions\":{},\"end_to_end\":{},\"per_layer\":{tagged}}}",
            args.seed,
            args.seconds,
            run.sessions.len(),
            metrics_object(&e2e, |_| String::new())
        );
        match run.tracer.write_jsonl(&path, &header) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("trace: cannot write {}: {err}", path.display()),
        }
    }
    for f in &run.failures {
        println!("failure: {f}");
    }
    println!(
        "{}",
        result_line(&run, if args.trace { &layer } else { &e2e })
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "incident",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload, Workload::Incident);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }

    #[test]
    fn session_seeds_differ_and_repeat() {
        assert_eq!(session_seed(1, 0), session_seed(1, 0));
        assert_ne!(session_seed(1, 0), session_seed(1, 1));
        assert_ne!(session_seed(1, 0), session_seed(2, 0));
    }

    fn declared() -> json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names<'a>(list: &'a json::Value, key: &str) -> Vec<&'a str> {
        list.get(key)
            .map(json::Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(json::Value::as_str))
            .collect()
    }

    /// The names a run prints in its result line, for both trace modes,
    /// are exactly the metrics `BENCHMARK.json` declares; its workloads
    /// are the ones this program accepts.
    #[test]
    fn printed_names_match_benchmark_json() {
        let declared = declared();
        let run = Run::new();
        let layers = Layers {
            spans: &[],
            overhead_pct: 0.0,
        };
        for (metrics, key) in [
            (end_to_end(&run), "end_to_end"),
            (per_layer(&layers), "per_layer"),
        ] {
            let line = json::parse(&result_line(&run, &metrics)).expect("result line is JSON");
            assert_eq!(
                line.keys(),
                vec!["correct", "attempted", "failed", "metrics"]
            );
            let printed = line.get("metrics").expect("metrics");
            assert_eq!(printed.keys(), names(&declared, key), "{key}");
            for (m, spec) in metrics.iter().zip(declared.get(key).unwrap().as_arr()) {
                let unit = printed.get(m.name).and_then(|v| v.get("unit"));
                assert_eq!(unit, spec.get("unit"), "{}", m.name);
            }
        }
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names(&declared, "workloads"), workloads);
    }

    #[test]
    fn declared_metadata_matches_the_catalogue() {
        let declared = declared();
        let better = |key: &str| -> Vec<&str> {
            declared
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .filter_map(|m| m.get("better").and_then(json::Value::as_str))
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.better.as_str()).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.better.as_str()).collect();
        assert_eq!(better("end_to_end"), e2e);
        assert_eq!(better("per_layer"), layer);
        for (w, spec) in WORKLOADS
            .iter()
            .zip(declared.get("workloads").unwrap().as_arr())
        {
            assert_eq!(spec.get("why").and_then(json::Value::as_str), Some(w.1));
        }
    }

    #[test]
    fn every_workload_name_round_trips() {
        for (name, _) in WORKLOADS {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
    }
}
