//! One protected guest and what drives it: generated traffic, numbered
//! outputs, injected attacks, and the two closed-loop steps every
//! workload is built from — a clean epoch and an incident cycle — each
//! with its correctness checks.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crimes::modules::{
    BlacklistScanModule, CanaryScanModule, HiddenProcessModule, SyscallTableModule,
};
use crimes::{Crimes, EpochOutcome};
use crimes_checkpoint::PhaseTimings;
use crimes_outbuf::{NetPacket, Output};
use crimes_rng::ChaCha8Rng;
use crimes_telemetry::{Counter, RealClock, Telemetry};
use crimes_vm::{Gva, Vm, VmError, PAGE_SIZE, WORKLOAD_RIP};
use crimes_vmi::VmiSession;
use crimes_workloads::attacks::{self, attack_rips};
use crimes_workloads::WebServerWorkload;

use crate::run::Run;
use crate::trace::{Open, Tracer};

/// Epochs a step may spend inconclusive (counted as retries in
/// `framework.extended`) before the step counts as failed.
const MAX_EXTENSIONS: usize = 3;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    Heap,
    Rootkit,
    Malware,
}

impl Attack {
    pub const ALL: [Attack; 3] = [Attack::Heap, Attack::Rootkit, Attack::Malware];

    pub fn label(self) -> &'static str {
        match self {
            Attack::Heap => "heap",
            Attack::Rootkit => "rootkit",
            Attack::Malware => "malware",
        }
    }
}

/// How a guest dirties memory during its slice.
#[derive(Debug)]
pub enum Traffic {
    /// The fig7 web server (`WebServerWorkload`): single-byte writes.
    Web(WebServerWorkload),
    /// Single-byte writes to `per_epoch` random pages of an arena.
    Sparse {
        arena_pages: usize,
        per_epoch: usize,
    },
    /// `bytes` random bytes rewritten inside each heap buffer per epoch,
    /// more changed words per page than the delta encoder keeps.
    Churn {
        buffers: Vec<Gva>,
        buffer_len: usize,
        bytes: usize,
    },
}

/// Output sequence numbers still held by the framework, oldest first.
#[derive(Debug, Default)]
pub struct Ledger {
    next: u64,
    held: VecDeque<u64>,
}

impl Ledger {
    /// Released outputs must be exactly the oldest held ones, in order.
    pub fn released(&mut self, outputs: &[Output]) -> Result<(), String> {
        for output in outputs {
            let seq = seq_of(output).ok_or("released an output the benchmark never submitted")?;
            match self.held.pop_front() {
                Some(expected) if expected == seq => {}
                Some(expected) => {
                    return Err(format!("released output {seq} while {expected} was next"))
                }
                None => return Err(format!("output {seq} released twice")),
            }
        }
        Ok(())
    }

    /// A rollback must discard every held output, and nothing else.
    pub fn discarded(&mut self, n: usize) -> Result<(), String> {
        let held = self.held.len();
        self.held.clear();
        if n == held {
            Ok(())
        } else {
            Err(format!("rollback discarded {n} outputs, {held} were held"))
        }
    }

    /// Mark every held output released, where the caller checked through
    /// the output buffer that nothing is held any more.
    pub fn settle(&mut self) {
        self.held.clear();
    }

    pub fn outstanding(&self) -> usize {
        self.held.len()
    }
}

fn seq_of(output: &Output) -> Option<u64> {
    match output {
        Output::Net(p) => Some(u64::from_le_bytes(p.payload.get(..8)?.try_into().ok()?)),
        Output::Disk(_) => None,
    }
}

/// Generates a guest's traffic, outputs and attacks from one seed.
#[derive(Debug)]
pub struct Load {
    traffic: Traffic,
    /// The process the traffic runs in.
    pid: u32,
    /// Heap-overflow target.
    victim: u32,
    rng: ChaCha8Rng,
    outputs_per_epoch: usize,
    output_len: usize,
    pub ledger: Ledger,
}

impl Load {
    pub fn new(
        traffic: Traffic,
        pid: u32,
        victim: u32,
        seed: u64,
        outputs_per_epoch: usize,
        output_len: usize,
    ) -> Self {
        Load {
            traffic,
            pid,
            victim,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6f75_7470),
            outputs_per_epoch,
            output_len: output_len.max(8),
            ledger: Ledger::default(),
        }
    }

    /// Drive the guest for `ms` of guest time.
    pub fn slice(&mut self, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
        let Load {
            traffic, pid, rng, ..
        } = self;
        match traffic {
            Traffic::Web(web) => return web.run_ms(vm, ms),
            Traffic::Sparse {
                arena_pages,
                per_epoch,
            } => {
                for _ in 0..*per_epoch {
                    let page = rng.gen_range(0..*arena_pages);
                    let offset = rng.gen_range(0..PAGE_SIZE);
                    vm.dirty_arena_page(*pid, page, offset, rng.gen())?;
                }
            }
            Traffic::Churn {
                buffers,
                buffer_len,
                bytes,
            } => {
                let mut data = vec![0u8; *bytes];
                for base in buffers.iter() {
                    rng.fill_bytes(&mut data);
                    let offset = rng.gen_range(0..(*buffer_len - *bytes) as u64);
                    vm.write_user(*pid, Gva(base.0 + offset), &data, WORKLOAD_RIP)?;
                }
            }
        }
        vm.advance_time(ms * 1_000_000);
        Ok(())
    }

    pub fn inject(&mut self, vm: &mut Vm, attack: Attack) -> Result<(), VmError> {
        match attack {
            Attack::Heap => attacks::inject_heap_overflow(vm, self.victim, 64, 16),
            Attack::Rootkit => attacks::inject_rootkit_hide(vm, "stealthy"),
            Attack::Malware => attacks::inject_malware_launch(vm, "reg_read.exe"),
        }
        .map(drop)
    }

    /// Submit this epoch's numbered outputs; each must be held.
    pub fn submit_outputs(
        &mut self,
        crimes: &mut Crimes,
        tr: &mut Tracer,
        cycle: u64,
    ) -> Result<(), String> {
        for _ in 0..self.outputs_per_epoch {
            let seq = self.ledger.next;
            let mut payload = vec![0u8; self.output_len];
            self.rng.fill_bytes(&mut payload);
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            let output = Output::Net(NetPacket::new(u64::from(self.pid), payload));
            let span = tr.begin("crimes.submit_output", cycle);
            let passed = crimes.submit_output(output);
            tr.end(&span);
            match passed {
                Ok(None) => {
                    self.ledger.next += 1;
                    self.ledger.held.push_back(seq);
                }
                Ok(Some(_)) => return Err(format!("output {seq} bypassed the buffer")),
                Err(e) => return Err(format!("submit_output: {e}")),
            }
        }
        Ok(())
    }
}

/// The scan modules every workload registers: canary, blacklist,
/// hidden-process cross-view and syscall table.
pub fn register_modules(crimes: &mut Crimes) -> Result<(), String> {
    let session = VmiSession::init(crimes.vm()).map_err(|e| format!("vmi init: {e}"))?;
    let syscall = SyscallTableModule::capture(&session, crimes.vm().memory())
        .map_err(|e| format!("syscall table: {e}"))?;
    let secret = crimes.vm().canary_secret();
    crimes.register_module(Box::new(CanaryScanModule::new(secret)));
    crimes.register_module(Box::new(BlacklistScanModule::bundled()));
    crimes.register_module(Box::new(HiddenProcessModule::new()));
    crimes.register_module(Box::new(syscall));
    Ok(())
}

/// Framework counters read around one boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub bytes_saved: u64,
    pub dedup_hits: u64,
    pub dedup_misses: u64,
    pub vmi_retries: u64,
    pub dirty_pages: u64,
}

impl Counters {
    pub fn read(t: &Telemetry) -> Self {
        Counters {
            bytes_saved: t.counter(Counter::BytesSavedDelta),
            dedup_hits: t.counter(Counter::DedupHits),
            dedup_misses: t.counter(Counter::DedupMisses),
            vmi_retries: t.counter(Counter::VmiRetries),
            dirty_pages: t.dirty_pages().sum(),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            bytes_saved: self.bytes_saved.saturating_sub(before.bytes_saved),
            dedup_hits: self.dedup_hits.saturating_sub(before.dedup_hits),
            dedup_misses: self.dedup_misses.saturating_sub(before.dedup_misses),
            vmi_retries: self.vmi_retries.saturating_sub(before.vmi_retries),
            dirty_pages: self.dirty_pages.saturating_sub(before.dirty_pages),
        }
    }

    pub fn attach(self, tr: &mut Tracer, span: &Open) {
        tr.attr(span, "bytes_saved", self.bytes_saved as f64);
        tr.attr(span, "dedup_hits", self.dedup_hits as f64);
        tr.attr(span, "dedup_misses", self.dedup_misses as f64);
        tr.attr(span, "vmi_retries", self.vmi_retries as f64);
    }

    pub fn tally(self, run: &mut Run, class: &'static str) {
        let e = run.encoding.entry(class).or_default();
        e.epochs += 1;
        e.bytes_saved += self.bytes_saved;
        e.dedup_hits += self.dedup_hits;
        e.dedup_misses += self.dedup_misses;
    }
}

/// Attach one boundary's pause-window phases. `boundary` is the wall
/// time the boundary cost its caller; the part after the pause is the
/// post-resume (drain) share.
pub fn phase_attrs(tr: &mut Tracer, span: &Open, t: &PhaseTimings, boundary: Duration) {
    let pause = t.total();
    tr.attr(span, "suspend_ms", ms(t.suspend));
    tr.attr(span, "bitscan_ms", ms(t.bitscan));
    tr.attr(span, "map_ms", ms(t.map));
    tr.attr(span, "copy_ms", ms(t.copy));
    tr.attr(span, "resume_ms", ms(t.resume));
    tr.attr(span, "pause_ms", ms(pause));
    tr.attr(span, "post_resume_ms", ms(boundary.saturating_sub(pause)));
}

/// A protected guest plus its load.
#[derive(Debug)]
pub struct Guest {
    pub crimes: Crimes,
    pub load: Load,
    /// Encoder-tally key (tenant class, or the workload's guest).
    pub class: &'static str,
}

fn outcome_name(o: &EpochOutcome) -> &'static str {
    match o {
        EpochOutcome::Committed { .. } => "committed",
        EpochOutcome::AttackDetected { .. } => "attack detected",
        EpochOutcome::Extended { .. } => "extended",
        EpochOutcome::Degraded { .. } => "degraded",
    }
}

/// One clean epoch: guest slice, outputs, `epoch_boundary`. Returns
/// whether it committed (`false` = inconclusive audit, a retry). Counted
/// epochs feed the end-to-end samples.
pub fn clean_epoch(
    run: &mut Run,
    g: &mut Guest,
    cycle: u64,
    counted: bool,
) -> Result<bool, String> {
    let interval = g.crimes.config().epoch_interval_ms;
    let journal_before = g.crimes.journal().bytes().len();
    let before = Counters::read(g.crimes.telemetry());
    let tr = &mut run.tracer;
    let epoch = tr.begin("bench.epoch", cycle);
    let slice = tr.begin("vm.slice", cycle);
    let sliced = g.load.slice(g.crimes.vm_mut(), interval);
    tr.end(&slice);
    sliced.map_err(|e| format!("guest slice: {e}"))?;
    let turn = tr.begin("scheduler.turn", cycle);
    g.load.submit_outputs(&mut g.crimes, tr, cycle)?;
    let span = tr.begin("crimes.epoch_boundary", cycle);
    let outcome = g.crimes.epoch_boundary();
    let boundary = tr.end(&span);
    tr.end(&turn);
    let outcome = outcome.map_err(|e| format!("epoch_boundary: {e}"))?;
    let (report, committed) = match outcome {
        EpochOutcome::Committed {
            report,
            audit,
            released,
        } => {
            g.load.ledger.released(&released)?;
            tr.attr(&span, "audit_ms", ms(audit.total_scan_time()));
            (report, true)
        }
        EpochOutcome::Extended { report, .. } => {
            tr.attr(&span, "extended", 1.0);
            (report, false)
        }
        other => return Err(format!("clean epoch ended {}", outcome_name(&other))),
    };
    phase_attrs(tr, &span, &report.timings, boundary);
    tr.attr(&span, "dirty_pages", report.dirty_pages as f64);
    let counters = Counters::read(g.crimes.telemetry()).since(before);
    counters.attach(tr, &span);
    let iteration = tr.end(&epoch);
    let journal = g
        .crimes
        .journal()
        .bytes()
        .len()
        .saturating_sub(journal_before);
    tr.attr(&epoch, "journal_bytes", journal as f64);
    counters.tally(run, g.class);
    if counted {
        run.session().pause_ms.push(ms(report.timings.total()));
        run.session().boundary_ms.push(ms(boundary));
        run.session().round_ms.push(ms(iteration));
        run.session().committed += u64::from(committed);
    }
    Ok(committed)
}

/// Run clean epochs until one commits (inconclusive audits retry).
pub fn commit_epoch(run: &mut Run, g: &mut Guest, cycle: u64, counted: bool) -> Result<(), String> {
    for _ in 0..=MAX_EXTENSIONS {
        if clean_epoch(run, g, cycle, counted)? {
            return Ok(());
        }
    }
    Err(format!(
        "no commit after {MAX_EXTENSIONS} inconclusive audits"
    ))
}

/// One incident cycle: an attack epoch that must be detected, then
/// `investigate`, `rollback_and_resume` (discarding exactly the held
/// outputs), an epoch that must commit, and a monitor crash recovered
/// with `Crimes::recover` from the journal bytes and the backup.
pub fn incident(
    run: &mut Run,
    g: &mut Guest,
    attack: Attack,
    cycle: u64,
    count_epochs: bool,
) -> Result<(), String> {
    let label = attack.label();
    let interval = g.crimes.config().epoch_interval_ms;
    let tr = &mut run.tracer;
    let inc = tr.begin_labelled("bench.incident", label, cycle);
    let slice = tr.begin_labelled("vm.slice", label, cycle);
    let vm = g.crimes.vm_mut();
    let sliced = g
        .load
        .slice(vm, interval)
        .and_then(|()| g.load.inject(vm, attack));
    tr.end(&slice);
    sliced.map_err(|e| format!("{label} attack slice: {e}"))?;
    g.load.submit_outputs(&mut g.crimes, tr, cycle)?;

    // An inconclusive audit extends speculation; the next boundary audits
    // the attack epoch's writes again. Time-to-evidence includes it.
    let mut boundary = Duration::ZERO;
    let mut detected = false;
    for _ in 0..=MAX_EXTENSIONS {
        let span = tr.begin_labelled("crimes.epoch_boundary", label, cycle);
        let outcome = g.crimes.epoch_boundary();
        boundary += tr.end(&span);
        match outcome.map_err(|e| format!("{label} attack boundary: {e}"))? {
            EpochOutcome::AttackDetected { report, .. } => {
                tr.attr(&span, "attack_pause_ms", ms(report.timings.total()));
                detected = true;
                break;
            }
            EpochOutcome::Extended { .. } => tr.attr(&span, "extended", 1.0),
            other => {
                return Err(format!(
                    "{label} attack epoch ended {}",
                    outcome_name(&other)
                ))
            }
        }
    }
    if !detected {
        return Err(format!(
            "{label} attack undecided after {MAX_EXTENSIONS} inconclusive audits"
        ));
    }

    let span = tr.begin_labelled("crimes.investigate", label, cycle);
    let analysis = g.crimes.investigate();
    let investigate = tr.end(&span);
    let analysis = analysis.map_err(|e| format!("{label} investigate: {e}"))?;
    tr.attr(
        &span,
        "report_bytes",
        analysis.report.to_text().len() as f64,
    );
    tr.attr(&span, "findings", analysis.findings.len() as f64);
    if let Some(p) = &analysis.pinpoint {
        tr.attr(&span, "ops_replayed", p.ops_replayed as f64);
    }
    if analysis.findings.is_empty() {
        return Err(format!("{label} analysis carries no findings"));
    }
    if attack == Attack::Heap {
        match &analysis.pinpoint {
            Some(p) if p.rip == attack_rips::HEAP_OVERFLOW => {}
            Some(p) => return Err(format!("heap overflow pinpointed at rip {:#x}", p.rip)),
            None => return Err("heap overflow not pinpointed".to_owned()),
        }
    }

    let span = tr.begin("crimes.rollback_and_resume", cycle);
    let discarded = g.crimes.rollback_and_resume();
    let rollback = tr.end(&span);
    let discarded = discarded.map_err(|e| format!("rollback_and_resume: {e}"))?;
    tr.attr(&span, "discarded", discarded as f64);
    g.load.ledger.discarded(discarded)?;

    commit_epoch(run, g, cycle, count_epochs).map_err(|e| format!("after rollback: {e}"))?;

    // Crash the monitor: only the guest, the backup and the journal
    // bytes survive.
    let vm = g.crimes.vm().clone();
    let backup = g.crimes.checkpointer().backup().clone();
    let journal = g.crimes.journal().bytes().to_vec();
    let config = *g.crimes.config();
    let tr = &mut run.tracer;
    let span = tr.begin("crimes.recover", cycle);
    let recovered = Crimes::recover(vm, backup, config, Arc::new(RealClock::new()), &journal);
    let recover = tr.end(&span);
    let mut recovered = recovered.map_err(|e| format!("recover: {e}"))?;
    tr.attr(&span, "journal_len", journal.len() as f64);
    if recovered.committed_epochs() != g.crimes.committed_epochs() {
        return Err(format!(
            "recovered monitor has {} committed epochs, the crashed one {}",
            recovered.committed_epochs(),
            g.crimes.committed_epochs()
        ));
    }
    register_modules(&mut recovered)?;
    drop(std::mem::replace(&mut g.crimes, recovered));
    tr.end(&inc);

    run.session().report_ms.push(ms(boundary + investigate));
    run.session().rollback_ms.push(ms(rollback));
    run.session().recover_ms.push(ms(recover));
    Ok(())
}

/// End of a session: one more committed epoch so every output is
/// released, then the backup must equal guest memory frame for frame.
pub fn settle_and_verify(run: &mut Run, g: &mut Guest, cycle: u64) -> Result<(), String> {
    commit_epoch(run, g, cycle, false)?;
    if g.load.ledger.outstanding() != 0 {
        return Err(format!(
            "{} outputs never released",
            g.load.ledger.outstanding()
        ));
    }
    if g.crimes.checkpointer().backup().frames() != g.crimes.vm().memory().dump_frames().as_slice()
    {
        return Err("backup frames differ from guest memory".to_owned());
    }
    Ok(())
}
