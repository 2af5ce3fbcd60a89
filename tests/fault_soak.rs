//! Fault soak: thousands of epochs under a seeded fault plan, asserting
//! the fail-closed invariants hold no matter what the injector throws at
//! the pipeline:
//!
//! * **No output escapes an unaudited epoch.** Outputs only ever leave
//!   through [`EpochOutcome::Committed`], and an epoch whose guest was
//!   attacked must never commit — extensions, copy failures, and
//!   quarantines all keep the speculation contained.
//! * **The VM is always recoverable to checksum-verified state.** Every
//!   rollback (incident response or failed commit) lands on a backup
//!   image that passes [`verify_backup`], bit-identical to the guest.
//! * **Quarantine is terminal and impounds.** A quarantined tenant
//!   rejects all further work; its held outputs are neither released nor
//!   discarded.
//!
//! The run is deterministic: `CRIMES_FAULT_SEED` seeds both the fault
//! injector and the driver's attack schedule, so a failure replays
//! bit-exactly. `CRIMES_SOAK_EPOCHS` scales the length (default 2,000).
//! At the end the injector's counters must show every named fault point
//! fired at least once — otherwise the soak proved nothing about the
//! paths it claims to cover.
//!
//! [`verify_backup`]: crimes_checkpoint::Checkpointer::verify_backup

use crimes::modules::{CanaryScanModule, HiddenProcessModule};
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_faults::{install, FaultPlan, FaultPoint};
use crimes_outbuf::{NetPacket, Output};
use crimes_rng::ChaCha8Rng;
use crimes_vm::Vm;
use crimes_workloads::attacks;

const DEFAULT_SEED: u64 = 0x5eed_fa11;
const DEFAULT_EPOCHS: u64 = 2_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Rates in parts per 1024, tuned so every point fires many times over
/// 2,000 epochs while most epochs still commit. `BackupDrain` only fires
/// in the deferred pipeline's out-of-window drain, and a drain only fails
/// once retries are exhausted, so its rate is much higher than the rest:
/// the soak must reach the drain-failure recovery path, not just the
/// first-retry-succeeds happy path.
fn soak_plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_rate(FaultPoint::VmiRead, 30)
        .with_rate(FaultPoint::PageCopy, 20)
        .with_rate(FaultPoint::BackupWrite, 20)
        .with_rate(FaultPoint::BackupDrain, 300)
        // Outages refuse the drain-session handshake before any page
        // moves; with retries the session usually reconnects, so the rate
        // mostly exercises the resync path rather than hard failures.
        .with_rate(FaultPoint::BackupOutage, 120)
        .with_rate(FaultPoint::PageCorrupt, 10)
        .with_rate(FaultPoint::AuditOverrun, 25)
        .with_rate(FaultPoint::ReplayDiverge, 200)
        .with_rate(FaultPoint::OutbufOverflow, 20)
}

/// A protected tenant plus its victim process. Admission itself runs
/// introspection, so under the armed plan it may need a few tries.
/// Tenant seeds rotate through the three boundary pipelines — fused
/// 4-worker pause window, serial, and deferred (staged copy drained
/// after resume) — so the soak exercises all of them under the same
/// fault plan.
fn tenant(seed: u64) -> (Crimes, u32) {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10);
    cfg.history_depth(3);
    cfg.retain_history_images(true);
    match seed % 3 {
        0 => {
            cfg.pause_workers(4);
        }
        1 => {
            cfg.pause_workers(1);
        }
        _ => {
            cfg.pause_workers(2);
            cfg.staging_buffers(2);
        }
    }
    let cfg = cfg.build().expect("valid config");
    let mut c = loop {
        let mut b = Vm::builder();
        b.pages(1024).seed(seed);
        let vm = b.build();
        match Crimes::protect(vm, cfg.clone()) {
            Ok(c) => break c,
            Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => continue,
            Err(e) => panic!("protect failed hard: {e}"),
        }
    };
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    c.register_module(Box::new(HiddenProcessModule::new()));
    let pid = c
        .vm_mut()
        .spawn_process("workload", 700, 16)
        .expect("spawn victim");
    (c, pid)
}

/// Replace a dead/quarantined tenant with a fresh one whose spawned
/// process has been made durable by a committed warm-up epoch. The fault
/// plan stays armed, so warm-up itself may need several tries.
fn replacement_tenant(generation: &mut u64) -> (Crimes, u32) {
    loop {
        *generation += 1;
        let (mut c, pid) = tenant(900 + *generation);
        let mut warmed = false;
        for _ in 0..8 {
            match c.run_epoch(|vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            }) {
                Ok(EpochOutcome::Committed { .. }) => {
                    warmed = true;
                    break;
                }
                Ok(_) => continue,                // extension: try again
                Err(CrimesError::Exhausted { .. }) => continue, // rolled back, retry
                Err(_) => break,                  // quarantined: new tenant
            }
        }
        if warmed {
            return (c, pid);
        }
    }
}

/// After any rollback the guest must sit on checksum-verified state,
/// bit-identical to the backup image it was restored from.
fn assert_recovered(c: &Crimes, epoch: u64) {
    c.checkpointer()
        .verify_backup()
        .expect("restored backup must be checksum-verified");
    assert!(
        c.vm().memory().dump_frames().as_slice() == c.checkpointer().backup().frames(),
        "epoch {epoch}: guest memory must match the verified backup after rollback"
    );
    assert!(
        c.vm().disk().dump().as_slice() == c.checkpointer().backup().disk(),
        "epoch {epoch}: guest disk must match the verified backup after rollback"
    );
}

#[test]
fn soak_fail_closed_under_injected_faults() {
    let seed = env_u64("CRIMES_FAULT_SEED", DEFAULT_SEED);
    let epochs = env_u64("CRIMES_SOAK_EPOCHS", DEFAULT_EPOCHS);
    let _scope = install(soak_plan(), seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0xd21_4e55);

    let mut generation = 0u64;
    let (mut c, mut pid) = replacement_tenant(&mut generation);

    let mut attack_pending = false;
    let mut committed = 0u64;
    let mut extended = 0u64;
    let mut attacks_launched = 0u64;
    let mut attacks_detected = 0u64;
    let mut attacks_discarded = 0u64;
    let mut degraded_analyses = 0u64;
    let mut commit_failures = 0u64;
    let mut drain_failures = 0u64;
    let mut quarantines = 0u64;
    let mut overflows = 0u64;
    let mut released_total = 0u64;
    let mut discarded_total = 0u64;

    for epoch in 0..epochs {
        // Offer an output most epochs; backpressure (real or injected) is
        // a clean rejection, never a silent drop into the world.
        if driver.gen_range(0..4) != 0 {
            match c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 24]))) {
                Ok(None) => {}
                Ok(Some(_)) => panic!("epoch {epoch}: synchronous mode released at submit"),
                Err(CrimesError::BufferOverflow { .. }) => overflows += 1,
                Err(e) => panic!("epoch {epoch}: unexpected submit error: {e}"),
            }
        }

        let attack = !attack_pending && driver.gen_range(0..100) < 5;
        if attack {
            attacks_launched += 1;
        }
        let result = c.run_epoch(|vm, ms| {
            let obj = vm.malloc(pid, 48)?;
            vm.write_user(pid, obj, &[epoch as u8; 48], 0x1000)?;
            vm.free(pid, obj)?;
            vm.write_disk(epoch % 16, &[epoch as u8; 32])?;
            if attack {
                attacks::inject_heap_overflow(vm, pid, 32, 8)?;
            }
            vm.advance_time(ms * 1_000_000);
            Ok(())
        });
        if attack {
            attack_pending = true;
        }

        match result {
            Ok(EpochOutcome::Committed { released, .. }) => {
                assert!(
                    !attack_pending,
                    "epoch {epoch}: an epoch with a trampled canary must never commit"
                );
                // Output-commit: a release always follows its epoch's
                // evidence becoming durable on the backup. In the deferred
                // pipeline that means the drain acked (no staged slot in
                // flight) before anything left the buffer.
                assert_eq!(
                    c.checkpointer().drains_in_flight(),
                    0,
                    "epoch {epoch}: outputs released with a drain still in flight"
                );
                assert_eq!(
                    c.checkpointer().backup().epoch(),
                    c.committed_epochs(),
                    "epoch {epoch}: a release preceded its epoch's backup ack"
                );
                committed += 1;
                released_total += released.len() as u64;
            }
            Ok(EpochOutcome::AttackDetected { audit, .. }) => {
                assert!(
                    attack_pending,
                    "epoch {epoch}: detection fired without an injected attack"
                );
                assert!(!audit.findings.is_empty(), "a detection carries evidence");
                attacks_detected += 1;
                // Forensics is best-effort under faults: it may degrade
                // (no pinpoint) or fail outright on persistent transient
                // reads — but it must never block containment below.
                match c.investigate() {
                    Ok(analysis) => {
                        if analysis.replay_degraded.is_some() {
                            degraded_analyses += 1;
                        }
                    }
                    Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => {
                        degraded_analyses += 1;
                    }
                    Err(e) => panic!("epoch {epoch}: investigation failed hard: {e}"),
                }
                match c.rollback_and_resume() {
                    Ok(discarded) => {
                        discarded_total += discarded as u64;
                        assert_recovered(&c, epoch);
                        attack_pending = false;
                    }
                    Err(CrimesError::Quarantined { .. }) => {
                        quarantines += 1;
                        assert_impounded(&mut c, epoch);
                        (c, pid) = replacement_tenant(&mut generation);
                        attack_pending = false;
                    }
                    Err(e) => panic!("epoch {epoch}: rollback failed: {e}"),
                }
            }
            Ok(EpochOutcome::Extended { consecutive, .. }) => {
                // Fail closed without failing the guest: nothing released,
                // speculation (and the attack, if any) stays contained.
                assert!(consecutive >= 1);
                extended += 1;
            }
            Ok(EpochOutcome::Degraded { .. }) => {
                unreachable!(
                    "epoch {epoch}: degraded mode is disabled here (max_staged_backlog = 0)"
                )
            }
            Err(CrimesError::Exhausted { .. }) => {
                // Copy retries exhausted: the framework already discarded
                // the speculation and rolled back to verified state.
                if attack_pending {
                    // Only the fused boundary can get here with an attack
                    // in flight — its copy rides the walk *before* the
                    // verdict, so exhaustion can preempt detection. The
                    // rollback discarded the attacked speculation whole.
                    assert!(
                        c.config().checkpoint.pause_workers > 1,
                        "epoch {epoch}: the serial boundary fails its audit before any copy runs"
                    );
                    attacks_discarded += 1;
                    attack_pending = false;
                }
                assert!(!c.is_quarantined());
                commit_failures += 1;
                assert_recovered(&c, epoch);
            }
            Err(
                CrimesError::Timeout {
                    what: "backup drain",
                    ..
                }
                | CrimesError::Checkpoint(crimes_checkpoint::CheckpointError::DrainFault {
                    ..
                })
                | CrimesError::Checkpoint(
                    crimes_checkpoint::CheckpointError::BackupUnreachable { .. },
                ),
            ) => {
                // BackupDrain/BackupOutage exhausted the deferred drain's
                // retries: the
                // staged epoch (and every output gated on its ack) was
                // destroyed, and the guest rolled back to verified state.
                assert!(
                    c.config().checkpoint.staging_buffers > 0,
                    "epoch {epoch}: only the deferred pipeline drains out of window"
                );
                assert!(
                    !attack_pending,
                    "epoch {epoch}: the drain only runs after the in-window audit passed"
                );
                assert!(!c.is_quarantined());
                drain_failures += 1;
                assert_recovered(&c, epoch);
            }
            Err(CrimesError::Quarantined { .. }) => {
                quarantines += 1;
                assert_impounded(&mut c, epoch);
                (c, pid) = replacement_tenant(&mut generation);
                attack_pending = false;
            }
            Err(e) => panic!("epoch {epoch}: unexpected epoch error: {e}"),
        }
    }

    let stats = c.robustness_stats();
    let counters = crimes_faults::counters();
    println!(
        "soak: {epochs} epochs (committed {committed}, extended {extended}), \
         {attacks_detected}/{attacks_launched} attacks detected \
         ({attacks_discarded} discarded with their speculation), \
         {degraded_analyses} degraded analyses, {commit_failures} commit failures, \
         {drain_failures} drain failures, {quarantines} quarantines, {} tenant generations; \
         released {released_total}, discarded {discarded_total}, rejected {overflows}; \
         injected {} faults; live tenant: {} vmi retries, {} fallback rollbacks",
        generation,
        counters.total_hits(),
        stats.vmi_retries,
        stats.fallback_rollbacks,
    );

    assert_eq!(
        attacks_detected + attacks_discarded,
        attacks_launched,
        "every injected attack must be caught at a boundary or discarded with its speculation"
    );
    assert!(committed > epochs / 2, "most epochs should still commit");
    assert!(
        extended > 0,
        "the plan's overrun/VMI rates must exercise speculation extension"
    );
    assert!(
        counters.all_points_hit(),
        "every fault point must fire at least once; hits per point: {:?}",
        FaultPoint::ALL
            .iter()
            .map(|&p| (p.name(), counters.hits(p)))
            .collect::<Vec<_>>()
    );
}

/// Fleet-level soak: the fleet scheduler drives rounds over a shared
/// pause-window pool while the same fault plan hammers every tenant.
/// Scheduler-specific fail-closed invariants:
///
/// * a round never aborts — per-tenant failures land in the summary's
///   `quarantined`/`errored` buckets and the other tenants still run;
/// * an attacked tenant never appears in `committed` while its attack is
///   outstanding — it is detected, discarded with its speculation, or
///   stays contained in an extension;
/// * the shared pool never grants more leases than its capacity.
///
/// `CRIMES_FLEET_SOAK_ROUNDS` scales the length (default 150 rounds of 4
/// tenants); `CRIMES_FAULT_SEED` replays a failure bit-exactly (faults
/// are thread-local, so the scheduler runs its drains inline here).
#[test]
fn fleet_soak_scheduler_fail_closed_under_injected_faults() {
    fleet_soak(
        env_u64("CRIMES_FAULT_SEED", DEFAULT_SEED),
        env_u64("CRIMES_FLEET_SOAK_ROUNDS", 150),
    );
}

/// Seed 5 once failed in `add_vm`: a transient VMI read fault fired in a
/// replacement tenant's initial introspection init, which `protect` did
/// not retry.
#[test]
fn regression_fleet_soak_seed_5() {
    fleet_soak(5, 60);
}

fn fleet_soak(seed: u64, rounds: u64) {
    use crimes::modules::BlacklistScanModule;
    use crimes::{Fleet, FleetScheduler, FleetSchedulerConfig};
    use std::collections::BTreeMap;

    let _scope = install(soak_plan(), seed ^ 0xf1ee);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0x0f1e_e750);

    let fleet_config = |i: u64| {
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(10).external_pool(true);
        match i % 3 {
            0 => {
                cfg.pause_workers(4);
            }
            1 => {
                cfg.pause_workers(1);
            }
            _ => {
                cfg.pause_workers(2).staging_buffers(2);
            }
        }
        cfg.build().expect("valid config")
    };
    let fresh_tenant = |fleet: &mut Fleet, name: &str, generation: u64| {
        let mut b = Vm::builder();
        b.pages(1024).seed(3_000 + generation);
        fleet.remove_vm(name);
        let crimes = fleet
            .add_vm(name, b.build(), fleet_config(generation))
            .expect("add tenant");
        crimes.register_module(Box::new(BlacklistScanModule::bundled()));
    };

    let names: Vec<String> = (0..4).map(|i| format!("tenant-{i}")).collect();
    let mut fleet = Fleet::new();
    let mut generation = 0u64;
    for name in &names {
        generation += 1;
        fresh_tenant(&mut fleet, name, generation);
    }
    let mut sched = FleetScheduler::for_fleet(
        &fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: 2,
            pool_workers: 4,
            overlap_drains: true,
        },
    );

    let mut attack_pending: BTreeMap<String, bool> =
        names.iter().map(|n| (n.clone(), false)).collect();
    let mut committed = 0u64;
    let mut attacks_launched = 0u64;
    let mut attacks_detected = 0u64;
    let mut attacks_discarded = 0u64;

    for round in 0..rounds {
        // Schedule fresh attacks on tenants without one outstanding.
        let mut attack_now: Vec<String> = Vec::new();
        for name in &names {
            if !attack_pending[name] && driver.gen_range(0..100) < 5 {
                attack_now.push(name.clone());
                attacks_launched += 1;
            }
        }
        let summary = sched
            .run_round(&mut fleet, |name, vm, ms| {
                vm.write_disk(round % 16, &[round as u8; 32])?;
                if attack_now.iter().any(|n| n == name) {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("a fleet round never aborts on per-tenant failures");
        for name in attack_now {
            attack_pending.insert(name, true);
        }

        for name in &summary.committed {
            assert!(
                !attack_pending[name],
                "round {round}: {name} committed with an attack outstanding"
            );
            committed += 1;
        }
        for name in &summary.degraded {
            // The drain only runs after the in-window audit passed.
            assert!(
                !attack_pending[name],
                "round {round}: {name} degraded with an attack outstanding"
            );
        }
        for name in summary.new_incidents.clone() {
            assert!(
                attack_pending[&name],
                "round {round}: {name} detected without an injected attack"
            );
            attacks_detected += 1;
            // Zero-touch response; forensics is best-effort under faults.
            match fleet.investigate(&name) {
                Ok(_) | Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => {}
                Err(e) => panic!("round {round}: investigation failed hard: {e}"),
            }
            match fleet.rollback_and_resume(&name) {
                Ok(_) => {
                    attack_pending.insert(name, false);
                }
                Err(CrimesError::Quarantined { .. }) => {
                    generation += 1;
                    fresh_tenant(&mut fleet, &name, generation);
                    attack_pending.insert(name, false);
                }
                Err(e) => panic!("round {round}: rollback failed: {e}"),
            }
        }
        for (name, _e) in summary.errored.clone() {
            // Copy/drain exhaustion rolled the tenant back to verified
            // state; an attack in flight was discarded with the
            // speculation.
            if attack_pending[&name] {
                attacks_discarded += 1;
                attack_pending.insert(name, false);
            }
        }
        for name in summary
            .quarantined
            .iter()
            .chain(summary.skipped_quarantined.iter())
            .cloned()
            .collect::<Vec<_>>()
        {
            if attack_pending[&name] {
                attacks_discarded += 1;
            }
            generation += 1;
            fresh_tenant(&mut fleet, &name, generation);
            attack_pending.insert(name, false);
        }
        // Extensions keep their attack contained and outstanding.
    }

    let stats = sched.stats();
    println!(
        "fleet soak: {rounds} rounds x {} tenants, {committed} commits, \
         {attacks_detected}/{attacks_launched} attacks detected \
         ({attacks_discarded} discarded with their speculation), \
         {} tenant generations, {} pool leases (peak {})",
        names.len(),
        generation,
        stats.total_leases,
        stats.peak_leases,
    );
    assert_eq!(stats.rounds, rounds);
    assert!(
        stats.peak_leases <= stats.capacity,
        "the shared pool over-granted leases"
    );
    assert_eq!(
        attacks_detected + attacks_discarded,
        attacks_launched,
        "every injected attack must be caught at a boundary or discarded with its speculation"
    );
    assert!(committed > 0, "the fleet must make progress under faults");
}

/// Quarantine invariants: the tenant is terminal and its outputs are
/// impounded — rejected work, nothing released, nothing discarded.
fn assert_impounded(c: &mut Crimes, epoch: u64) {
    assert!(c.is_quarantined(), "epoch {epoch}: quarantine must latch");
    let before = c.buffer_stats();
    assert!(
        matches!(
            c.submit_output(Output::Net(NetPacket::new(0, vec![0]))),
            Err(CrimesError::Quarantined { .. })
        ),
        "epoch {epoch}: a quarantined VM must reject outputs"
    );
    assert!(
        matches!(
            c.run_epoch(|_vm, _ms| Ok(())),
            Err(CrimesError::Quarantined { .. })
        ),
        "epoch {epoch}: a quarantined VM must reject epochs"
    );
    let after = c.buffer_stats();
    assert_eq!(
        (before.released, before.discarded),
        (after.released, after.discarded),
        "epoch {epoch}: impounded outputs are neither released nor discarded"
    );
}
