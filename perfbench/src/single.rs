//! The single-guest workloads: `web-inline`, `web-deferred` and
//! `incident`. All three run the fig7 guest — 8192 pages, the Medium
//! `WebServerWorkload`, a victim process for heap overflows — under a
//! different configuration and cycle plan.
//!
//! A session protects a fresh guest (the timed set-up), then runs its
//! cycles: `clean` closed-loop epochs followed by `attacks` incident
//! cycles, rotating through heap overflow, rootkit hide and malware. It
//! ends with one more committed epoch and the backup-equals-memory check.

use std::time::Instant;

use crimes::{Crimes, CrimesConfig};
use crimes_vm::Vm;
use crimes_workloads::{WebIntensity, WebServerWorkload};

use crate::guest::{self, Attack, Guest, Load, Traffic};
use crate::run::Run;

const GUEST_PAGES: usize = 8_192;
const VICTIM_HEAP_PAGES: usize = 16;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub config: CrimesConfig,
    pub cycles: u64,
    /// Clean epochs at the start of each cycle.
    pub clean: u64,
    /// Incident cycles at the end of each cycle.
    pub attacks: u64,
    /// Outputs submitted per epoch, and their size.
    pub outputs: usize,
    pub output_len: usize,
    /// `true` when the incident cycles are the workload itself: their
    /// epochs count and the whole cycle is the timed loop. Otherwise only
    /// the clean epochs are timed and the incidents probe time-to-evidence.
    pub incidents_in_loop: bool,
}

fn protect(plan: &Plan, seed: u64) -> Result<Guest, String> {
    let mut b = Vm::builder();
    b.pages(GUEST_PAGES).seed(seed);
    let mut vm = b.build();
    let web = WebServerWorkload::launch(&mut vm, WebIntensity::Medium, seed)
        .map_err(|e| format!("launch web server: {e}"))?;
    let pid = web.pid();
    let victim = vm
        .spawn_process("victim", 0, VICTIM_HEAP_PAGES)
        .map_err(|e| format!("spawn victim: {e}"))?;
    let mut crimes = Crimes::protect(vm, plan.config).map_err(|e| format!("protect: {e}"))?;
    guest::register_modules(&mut crimes)?;
    Ok(Guest {
        crimes,
        load: Load::new(
            Traffic::Web(web),
            pid,
            victim,
            seed,
            plan.outputs,
            plan.output_len,
        ),
        class: "guest",
    })
}

pub fn session(run: &mut Run, plan: &Plan, session: u64, seed: u64) -> Result<(), String> {
    let root = run.tracer.begin("bench.session", session);
    let setup = run.tracer.begin("bench.setup", session);
    let mut g = protect(plan, seed)?;
    let setup_time = run.tracer.end(&setup);
    run.session().setup_s.push(setup_time.as_secs_f64());

    let mut id = session << 32;
    let mut incidents = 0u64;
    for _ in 0..plan.cycles {
        let cycle_start = Instant::now();
        for _ in 0..plan.clean {
            id += 1;
            let result = guest::clean_epoch(run, &mut g, id, true);
            let ok = result.is_ok();
            run.op(result.map(drop));
            if !ok {
                return Ok(());
            }
        }
        if !plan.incidents_in_loop {
            run.session().loop_s += cycle_start.elapsed().as_secs_f64();
        }
        for _ in 0..plan.attacks {
            id += 1;
            let attack = Attack::ALL[(incidents % 3) as usize];
            incidents += 1;
            let result = guest::incident(run, &mut g, attack, id, plan.incidents_in_loop);
            let ok = result.is_ok();
            run.op(result);
            if !ok {
                return Ok(());
            }
        }
        if plan.incidents_in_loop {
            run.session().loop_s += cycle_start.elapsed().as_secs_f64();
        }
    }
    id += 1;
    let verified = guest::settle_and_verify(run, &mut g, id);
    run.op(verified);
    run.tracer.end(&root);
    Ok(())
}
