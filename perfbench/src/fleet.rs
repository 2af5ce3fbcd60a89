//! The `fleet-mixed` workload: 48 tenants in three classes under
//! `FleetScheduler::run_round`, all on one busy thread.
//!
//! The wave width is the host's CPU count; pool workers and tenant pause
//! workers are one, and drains run on the scheduler thread after each
//! walk (`overlap_drains` off). On a shared 2-vCPU host a second busy
//! thread (an overlapped drain, or a parallel walk) drew hypervisor steal:
//! `cpu_steal_pct` read 0.5–10% with overlapped drains against 0.3–1.8%
//! without, in alternating runs, and `round_p95_ms` spread by 0.3 of its
//! median across ten runs of the same code. Serial drains keep the round
//! a sum of the tenants' own pauses and drains.
//!
//! * `inline` — 320-page tenants committing inline, a few single-byte
//!   writes per epoch;
//! * `local` — 2048-page tenants on the deferred pipeline with the
//!   delta/dedup encoder and a local backup, low-churn web-like writes;
//! * `remote` — 1024-page deferred tenants with remote backups whose
//!   writes change more words per page than the delta threshold, so the
//!   encoder saves almost nothing.
//!
//! A session builds the fleet (the timed set-up), runs its rounds, then
//! takes six tenants of each class out of the fleet, each for an incident
//! cycle and the backup-equals-memory check.

use std::collections::BTreeMap;
use std::time::Duration;

use crimes::{CrimesConfig, Fleet, FleetScheduler, FleetSchedulerConfig};
use crimes_checkpoint::PhaseTimings;
use crimes_vm::{Vm, VmError};

use crate::guest::{self, ms, Attack, Counters, Guest, Load, Traffic};
use crate::run::Run;

pub const TENANTS_PER_CLASS: usize = 16;
pub const ROUNDS_PER_SESSION: u64 = 100;
/// Incident probes per class and session: each attack twice. With one of
/// each, the two sessions of a measured run differed by 15% in their mean
/// report time, and a run's figure is the mean of its two sessions.
const PROBES_PER_CLASS: usize = 2 * Attack::ALL.len();
const EPOCH_MS: u64 = 20;
const DELTA_THRESHOLD_WORDS: usize = 64;
const OUTPUTS_PER_EPOCH: usize = 4;
const OUTPUT_LEN: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Class {
    label: &'static str,
    pages: usize,
    deferred: bool,
    remote: bool,
}

const CLASSES: [Class; 3] = [
    Class {
        label: "inline",
        pages: 320,
        deferred: false,
        remote: false,
    },
    Class {
        label: "local",
        pages: 2048,
        deferred: true,
        remote: false,
    },
    Class {
        label: "remote",
        pages: 1024,
        deferred: true,
        remote: true,
    },
];

fn config(class: &Class) -> Result<CrimesConfig, String> {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(EPOCH_MS)
        .pause_workers(1)
        .external_pool(true);
    if class.deferred {
        b.staging_buffers(1)
            .delta_threshold(DELTA_THRESHOLD_WORDS)
            .dedup(true);
    }
    let mut config = b.build().map_err(|e| format!("tenant config: {e}"))?;
    config.checkpoint.remote_backup = class.remote;
    Ok(config)
}

/// Spawn the tenant's service process and build its traffic.
fn traffic(vm: &mut Vm, class: usize) -> Result<(Traffic, u32), VmError> {
    Ok(match class {
        0 => {
            let pid = vm.spawn_process("svc", 0, 8)?;
            let t = Traffic::Sparse {
                arena_pages: 8,
                per_epoch: 10,
            };
            (t, pid)
        }
        1 => {
            let pid = vm.spawn_process("web", 33, 1024)?;
            let t = Traffic::Sparse {
                arena_pages: 1024,
                per_epoch: 48,
            };
            (t, pid)
        }
        _ => {
            let pid = vm.spawn_process("db", 0, 64)?;
            let buffer_len = 3_000;
            let buffers = (0..24)
                .map(|_| vm.malloc(pid, buffer_len as u64))
                .collect::<Result<Vec<_>, _>>()?;
            let t = Traffic::Churn {
                buffers,
                buffer_len,
                bytes: 1_024,
            };
            (t, pid)
        }
    })
}

/// A tenant's accumulated timings and counters, read around a round.
#[derive(Debug, Clone, Copy)]
struct Snap {
    epochs: u32,
    phases: PhaseTimings,
    /// Total drain time the framework's telemetry recorded, in ns.
    drain_ns: u64,
    counters: Counters,
    journal: usize,
}

impl Snap {
    fn read(c: &crimes::Crimes) -> Self {
        let stats = c.checkpointer().stats();
        let telemetry = c.telemetry();
        Snap {
            epochs: stats.epochs(),
            phases: stats.sum(),
            drain_ns: telemetry
                .phases()
                .find(|(label, _)| *label == "drain")
                .map_or(0, |(_, h)| h.sum()),
            counters: Counters::read(telemetry),
            journal: c.journal().bytes().len(),
        }
    }
}

fn phase_delta(after: &PhaseTimings, before: &PhaseTimings) -> PhaseTimings {
    PhaseTimings {
        suspend: after.suspend.saturating_sub(before.suspend),
        vmi: after.vmi.saturating_sub(before.vmi),
        bitscan: after.bitscan.saturating_sub(before.bitscan),
        map: after.map.saturating_sub(before.map),
        copy: after.copy.saturating_sub(before.copy),
        resume: after.resume.saturating_sub(before.resume),
    }
}

struct Tenant {
    class: usize,
    load: Load,
}

pub fn session(run: &mut Run, session: u64, seed: u64, cpus: usize) -> Result<(), String> {
    let root = run.tracer.begin("bench.session", session);
    let setup = run.tracer.begin("bench.setup", session);
    let mut fleet = Fleet::new();
    let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
    for (class, spec) in CLASSES.iter().enumerate() {
        let config = config(spec)?;
        for i in 0..TENANTS_PER_CLASS {
            let name = format!("{}-{i:02}", spec.label);
            let tenant_seed =
                seed ^ ((class * TENANTS_PER_CLASS + i) as u64 + 1).wrapping_mul(0x9e37_79b9);
            let mut b = Vm::builder();
            b.pages(spec.pages).seed(tenant_seed);
            let mut vm = b.build();
            let (traffic, pid) =
                traffic(&mut vm, class).map_err(|e| format!("{name} traffic: {e}"))?;
            let crimes = fleet
                .add_vm(&name, vm, config)
                .map_err(|e| format!("{name} protect: {e}"))?;
            guest::register_modules(crimes)?;
            let load = Load::new(
                traffic,
                pid,
                pid,
                tenant_seed,
                OUTPUTS_PER_EPOCH,
                OUTPUT_LEN,
            );
            tenants.insert(name, Tenant { class, load });
        }
    }
    let mut sched = FleetScheduler::for_fleet(
        &fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: cpus.max(1),
            pool_workers: 1,
            overlap_drains: false,
        },
    );
    let setup_time = run.tracer.end(&setup);
    run.session().setup_s.push(setup_time.as_secs_f64());

    let names: Vec<String> = tenants.keys().cloned().collect();
    for r in 0..ROUNDS_PER_SESSION {
        let id = (session << 32) + r;
        let result = round(run, &mut fleet, &mut sched, &mut tenants, &names, id);
        if result.is_err() {
            run.op(result);
            return Ok(());
        }
    }

    // Time-to-evidence: every attack on two tenants of every class.
    for (probe, (class, i)) in CLASSES
        .iter()
        .flat_map(|c| (0..PROBES_PER_CLASS).map(move |i| (c, i)))
        .enumerate()
    {
        let attack = Attack::ALL[i % Attack::ALL.len()];
        let name = format!("{}-{i:02}", class.label);
        let (Some(crimes), Some(tenant)) = (fleet.remove_vm(&name), tenants.remove(&name)) else {
            return Err(format!("{name} missing from the fleet"));
        };
        let mut g = Guest {
            crimes,
            load: tenant.load,
            class: class.label,
        };
        let id = (session << 32) + ROUNDS_PER_SESSION + probe as u64;
        let result =
            guest::incident(run, &mut g, attack, id, false).map_err(|e| format!("{name}: {e}"));
        let ok = result.is_ok();
        run.op(result);
        if ok {
            let verified = guest::settle_and_verify(run, &mut g, id);
            run.op(verified.map_err(|e| format!("{name}: {e}")));
        }
    }
    run.tracer.end(&root);
    Ok(())
}

/// One `run_round` with its outputs and per-tenant checks. Every tenant
/// must end the round committed or extended (an inconclusive audit, a
/// retry), never errored, quarantined or flagged.
fn round(
    run: &mut Run,
    fleet: &mut Fleet,
    sched: &mut FleetScheduler,
    tenants: &mut BTreeMap<String, Tenant>,
    names: &[String],
    id: u64,
) -> Result<(), String> {
    let before: Vec<Snap> = names
        .iter()
        .filter_map(|n| fleet.get(n).map(Snap::read))
        .collect();
    let stats_before = sched.stats();
    let tr = &mut run.tracer;
    let outer = tr.begin("bench.round", id);
    for name in names {
        let (Some(crimes), Some(t)) = (fleet.get_mut(name), tenants.get_mut(name)) else {
            return Err(format!("{name} missing from the fleet"));
        };
        t.load.submit_outputs(crimes, tr, id)?;
    }

    // A turn is the scheduler thread's time between one tenant's slice
    // and the next: the pause half, the drain, lease bookkeeping.
    let span = tr.begin("scheduler.run_round", id);
    let mut open_turn = None;
    let summary = sched.run_round(fleet, |name, vm, ms| {
        if let Some(turn) = open_turn.take() {
            tr.end(&turn);
        }
        let slice = tr.begin("vm.slice", id);
        let load = &mut tenants.get_mut(name).expect("every tenant has a load").load;
        let sliced = load.slice(vm, ms);
        tr.end(&slice);
        open_turn = Some(tr.begin("scheduler.turn", id));
        sliced
    });
    if let Some(turn) = open_turn.take() {
        tr.end(&turn);
    }
    let wall = tr.end(&span);
    let summary = summary.map_err(|e| format!("run_round: {e}"))?;
    tr.end(&outer);
    let stats = sched.stats();
    tr.attr(&span, "peak_leases", stats.peak_leases as f64);
    tr.attr(
        &span,
        "leases",
        (stats.total_leases - stats_before.total_leases) as f64,
    );
    tr.attr(
        &span,
        "cross_tenant_dup_pages",
        (stats.cross_tenant_dup_pages - stats_before.cross_tenant_dup_pages) as f64,
    );

    let healthy = summary.new_incidents.is_empty()
        && summary.skipped_pending.is_empty()
        && summary.degraded.is_empty()
        && summary.quarantined.is_empty()
        && summary.skipped_quarantined.is_empty()
        && summary.errored.is_empty()
        && summary.committed.len() + summary.extended.len() == names.len();
    if !healthy {
        return Err(format!(
            "round {id:#x}: {} committed, {} extended, incidents {:?}, degraded {:?}, quarantined {:?}, errored {:?}",
            summary.committed.len(),
            summary.extended.len(),
            summary.new_incidents,
            summary.degraded,
            summary.quarantined,
            summary.errored
        ));
    }
    run.session().round_ms.push(ms(wall));
    run.session().loop_s += wall.as_secs_f64();
    run.session().committed += summary.committed.len() as u64;

    for (name, before) in names.iter().zip(&before) {
        let crimes = fleet.get(name).expect("tenant checked above");
        let tenant = tenants.get_mut(name).expect("tenant checked above");
        let after = Snap::read(crimes);
        let extended = summary.extended.contains(name);
        let check = if extended {
            Ok(())
        } else if crimes.output_buffer().held_count() == 0
            && crimes.output_buffer().ack_pending_count() == 0
        {
            tenant.load.ledger.settle();
            Ok(())
        } else {
            Err(format!("{name} committed with outputs still held"))
        };
        run.op(check);
        if after.epochs != before.epochs + 1 {
            continue;
        }
        // The tenant's boundary: its pause plus its own drain.
        let phases = phase_delta(&after.phases, &before.phases);
        let boundary = phases.total() + Duration::from_nanos(after.drain_ns - before.drain_ns);
        let counters = after.counters.since(before.counters);
        let tr = &mut run.tracer;
        guest::phase_attrs(tr, &span, &phases, boundary);
        tr.attr(&span, "audit_ms", ms(phases.vmi));
        tr.attr(&span, "dirty_pages", counters.dirty_pages as f64);
        tr.attr(
            &span,
            "journal_bytes",
            (after.journal - before.journal) as f64,
        );
        tr.attr(&span, "extended", f64::from(u8::from(extended)));
        counters.attach(tr, &span);
        counters.tally(run, CLASSES[tenant.class].label);
        run.session().pause_ms.push(ms(phases.total()));
        run.session().boundary_ms.push(ms(boundary));
    }
    Ok(())
}
