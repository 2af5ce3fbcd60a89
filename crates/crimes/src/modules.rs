//! The concrete scan modules shipped with CRIMES (§4.2).
//!
//! *Unaided* modules need nothing from the guest: the malware blacklist
//! scan, the syscall-table integrity check, the kernel-module allowlist,
//! and the pid-hash cross-view check. The *guest-aided* canary module
//! relies on the malloc wrapper inside the VM publishing its canary table.
//! [`NoopScanModule`] is the minimal scan the paper's overhead benchmarks
//! configure (§5.2: "our CRIMES prototype is configured to only run a
//! minimal no-op scan").

use std::collections::BTreeSet;

use crimes_checkpoint::{FusedPageVisitor, PageCtx, ShardSink};
use crimes_vm::layout::{CANARY_LEN, SYSCALL_COUNT};
use crimes_vmi::{linux, CanaryScanner, CanaryViolation, PreparedCanaries, VmiError};
use crimes_workloads::Blacklist;

use crate::detector::{Detection, ScanContext, ScanFinding, ScanModule};

/// Guest-aided buffer-overflow detection: validate the canaries the guest
/// malloc wrapper placed, scoped to pages dirtied this epoch.
#[derive(Debug)]
pub struct CanaryScanModule {
    scanner: CanaryScanner,
    /// Validate every canary instead of only those on dirty pages (the
    /// ablation `benches/canary_scan.rs` measures).
    full_scan: bool,
    /// Canaries validated across all audits (throughput accounting).
    validated: u64,
    /// Checks staged for the current epoch's fused walk (kept until the
    /// next staging so a retried verdict pass can re-resolve).
    staged: Option<FusedCanaryChecks>,
}

impl CanaryScanModule {
    /// Dirty-page-scoped scanner with the VM's canary secret.
    pub fn new(secret: [u8; CANARY_LEN]) -> Self {
        CanaryScanModule {
            scanner: CanaryScanner::new(secret),
            full_scan: false,
            validated: 0,
            staged: None,
        }
    }

    /// Validate all live canaries each epoch, ignoring the dirty filter.
    pub fn full_scan(secret: [u8; CANARY_LEN]) -> Self {
        CanaryScanModule {
            scanner: CanaryScanner::new(secret),
            full_scan: true,
            validated: 0,
            staged: None,
        }
    }

    /// Canaries validated so far.
    pub fn validated(&self) -> u64 {
        self.validated
    }
}

/// The canary module's fused-walk adapter: compares the staged checks'
/// bytes when the walk visits their owner pages, surfacing trampled record
/// indices as finding keys. Plain data over paused guest memory, so it is
/// `Sync` and shards freely.
#[derive(Debug)]
struct FusedCanaryChecks(PreparedCanaries);

impl FusedPageVisitor for FusedCanaryChecks {
    fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
        self.0
            .check_page(ctx.pfn, ctx.mem, &mut |idx| sink.push_finding(idx as u64, ctx.pfn));
    }
}

impl ScanModule for CanaryScanModule {
    fn name(&self) -> &str {
        "canary"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let report = if self.full_scan {
            self.scanner.scan_all(ctx.session, ctx.memory)?
        } else {
            self.scanner
                .scan_dirty(ctx.session, ctx.memory, ctx.dirty)?
        };
        self.validated += report.checked as u64;
        if report.violations.is_empty() {
            Ok(vec![])
        } else {
            // lint: allow(pause-window) -- allocates only to report a detection
            Ok(vec![ScanFinding {
                module: self.name().to_owned(),
                detection: Detection::CanaryViolations(report.violations),
            }])
        }
    }

    fn stage_fused(&mut self, ctx: &ScanContext<'_>) -> Result<bool, VmiError> {
        if self.full_scan {
            // Full scans ignore the dirty filter, so there is nothing
            // page-scoped to fuse; the ordinary scan runs in the verdict
            // pass.
            return Ok(false);
        }
        let prepared = self
            .scanner
            .prepare_dirty(ctx.session, ctx.memory, ctx.dirty)?;
        self.validated += prepared.checked() as u64;
        self.staged = Some(FusedCanaryChecks(prepared));
        Ok(true)
    }

    fn fused_visitor(&self) -> Option<&dyn FusedPageVisitor> {
        self.staged
            .as_ref()
            .map(|s| s as &dyn FusedPageVisitor)
    }

    fn resolve_fused(
        &mut self,
        keys: &[u64],
        ctx: &ScanContext<'_>,
    ) -> Result<Vec<ScanFinding>, VmiError> {
        let Some(staged) = self.staged.as_ref() else {
            return Ok(Vec::new());
        };
        let mut violations = Vec::new();
        for &key in keys {
            let Some(check) = staged.0.resolve(key as usize) else {
                continue;
            };
            let mut found = [0u8; CANARY_LEN];
            ctx.memory.read(check.canary_gpa, &mut found);
            violations.push(CanaryViolation {
                record_idx: check.record_idx,
                pid: check.pid,
                object_gva: check.object_gva,
                size: check.size,
                canary_gva: check.canary_gva,
                found,
            });
        }
        if violations.is_empty() {
            Ok(Vec::new())
        } else {
            // lint: allow(pause-window) -- allocates only to report a detection
            Ok(vec![ScanFinding {
                module: self.name().to_owned(),
                detection: Detection::CanaryViolations(violations),
            }])
        }
    }
}

/// Unaided malware detection: compare the task list against a blacklist
/// (the paper's stand-in for McAfee's registry).
#[derive(Debug)]
pub struct BlacklistScanModule {
    blacklist: Blacklist,
}

impl BlacklistScanModule {
    /// Scan against `blacklist`.
    pub fn new(blacklist: Blacklist) -> Self {
        BlacklistScanModule { blacklist }
    }

    /// Scan against the bundled default list.
    pub fn bundled() -> Self {
        BlacklistScanModule::new(Blacklist::bundled())
    }
}

impl ScanModule for BlacklistScanModule {
    fn name(&self) -> &str {
        "malware-blacklist"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let tasks = linux::process_list(ctx.session, ctx.memory)?;
        Ok(tasks
            .into_iter()
            .filter(|t| self.blacklist.contains(&t.comm))
            .map(|t| ScanFinding {
                module: "malware-blacklist".to_owned(),
                detection: Detection::BlacklistedProcess(t),
            })
            .collect())
    }
}

/// Unaided syscall-table integrity: compare against the known-good table
/// captured when protection started.
#[derive(Debug)]
pub struct SyscallTableModule {
    known_good: Vec<u64>,
}

impl SyscallTableModule {
    /// Capture the known-good table from the (trusted-at-start) guest.
    ///
    /// # Errors
    ///
    /// Fails if the table cannot be read.
    pub fn capture(
        session: &crimes_vmi::VmiSession,
        memory: &crimes_vm::GuestMemory,
    ) -> Result<Self, VmiError> {
        Ok(SyscallTableModule {
            known_good: linux::syscall_table(session, memory)?,
        })
    }

    /// Build from an externally provided known-good table.
    ///
    /// # Panics
    ///
    /// Panics if the table is not [`SYSCALL_COUNT`] entries.
    pub fn from_table(table: Vec<u64>) -> Self {
        assert_eq!(table.len(), SYSCALL_COUNT, "full table required");
        SyscallTableModule { known_good: table }
    }
}

impl ScanModule for SyscallTableModule {
    fn name(&self) -> &str {
        "syscall-table"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let current = linux::syscall_table(ctx.session, ctx.memory)?;
        let tampered: Vec<(usize, u64, u64)> = self
            .known_good
            .iter()
            .zip(&current)
            .enumerate()
            .filter(|(_, (good, cur))| good != cur)
            .map(|(i, (good, cur))| (i, *good, *cur))
            .collect();
        if tampered.is_empty() {
            Ok(vec![])
        } else {
            // lint: allow(pause-window) -- allocates only to report a detection
            Ok(vec![ScanFinding {
                module: self.name().to_owned(),
                detection: Detection::SyscallTableTampered(tampered),
            }])
        }
    }
}

/// Unaided module allowlist: any kernel module outside the approved set is
/// flagged.
#[derive(Debug)]
pub struct ModuleAllowlistModule {
    allowed: BTreeSet<String>,
}

impl ModuleAllowlistModule {
    /// Allow exactly `names`.
    pub fn new<I: IntoIterator<Item = String>>(names: I) -> Self {
        ModuleAllowlistModule {
            allowed: names.into_iter().collect(),
        }
    }

    /// Capture the currently loaded set as the allowlist.
    ///
    /// # Errors
    ///
    /// Fails if the module list cannot be walked.
    pub fn capture(
        session: &crimes_vmi::VmiSession,
        memory: &crimes_vm::GuestMemory,
    ) -> Result<Self, VmiError> {
        Ok(Self::new(
            linux::module_list(session, memory)?
                .into_iter()
                .map(|m| m.name),
        ))
    }
}

impl ScanModule for ModuleAllowlistModule {
    fn name(&self) -> &str {
        "module-allowlist"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let modules = linux::module_list(ctx.session, ctx.memory)?;
        Ok(modules
            .into_iter()
            .filter(|m| !self.allowed.contains(&m.name))
            .map(|m| ScanFinding {
                module: "module-allowlist".to_owned(),
                detection: Detection::UnknownModule(m.name),
            })
            .collect())
    }
}

/// Unaided hidden-process detection: cross-check the pid hash against the
/// task list (the online, lightweight cousin of the forensic `psxview`).
#[derive(Debug, Default)]
pub struct HiddenProcessModule;

impl HiddenProcessModule {
    /// Create the module.
    pub fn new() -> Self {
        HiddenProcessModule
    }
}

impl ScanModule for HiddenProcessModule {
    fn name(&self) -> &str {
        "hidden-process"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let listed: BTreeSet<u32> = linux::process_list(ctx.session, ctx.memory)?
            .into_iter()
            .map(|t| t.pid)
            .collect();
        let mut findings = Vec::new();
        for entry in linux::pid_hash_entries(ctx.session, ctx.memory)? {
            if !listed.contains(&entry.pid) {
                findings.push(ScanFinding {
                    module: self.name().to_owned(),
                    detection: Detection::HiddenProcess {
                        pid: entry.pid,
                        comm: linux::pid_hash_comm(ctx.session, ctx.memory, &entry),
                    },
                });
            }
        }
        Ok(findings)
    }
}

/// Unaided hidden-module detection: cross-check the module slab against
/// the module list (the `modscan` counterpart of [`HiddenProcessModule`]).
#[derive(Debug, Default)]
pub struct HiddenModuleModule;

impl HiddenModuleModule {
    /// Create the module.
    pub fn new() -> Self {
        HiddenModuleModule
    }
}

impl ScanModule for HiddenModuleModule {
    fn name(&self) -> &str {
        "hidden-module"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        let listed: BTreeSet<String> = linux::module_list(ctx.session, ctx.memory)?
            .into_iter()
            .map(|m| m.name)
            .collect();
        Ok(linux::module_scan(ctx.session, ctx.memory)?
            .into_iter()
            .filter(|m| !listed.contains(&m.module.name))
            .map(|m| ScanFinding {
                module: "hidden-module".to_owned(),
                detection: Detection::HiddenModule {
                    name: m.module.name,
                },
            })
            .collect())
    }
}

/// Unaided privilege-escalation detection: a task whose cred marker says
/// root while its uid does not has been DKOM-patched (the Threat Model's
/// "gain higher privilege" case). Kernels never produce this state
/// legitimately in the simulated guest, so the check is stateless.
#[derive(Debug, Default)]
pub struct CredIntegrityModule;

impl CredIntegrityModule {
    /// Create the module.
    pub fn new() -> Self {
        CredIntegrityModule
    }
}

impl ScanModule for CredIntegrityModule {
    fn name(&self) -> &str {
        "cred-integrity"
    }

    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        Ok(linux::process_list(ctx.session, ctx.memory)?
            .into_iter()
            .filter(|t| t.uid != 0 && t.cred == 0)
            .map(|t| ScanFinding {
                module: "cred-integrity".to_owned(),
                detection: Detection::PrivilegeEscalation {
                    pid: t.pid,
                    comm: t.comm,
                    uid: t.uid,
                },
            })
            .collect())
    }
}

/// The minimal no-op scan used by the overhead benchmarks.
#[derive(Debug, Default)]
pub struct NoopScanModule;

impl NoopScanModule {
    /// Create the module.
    pub fn new() -> Self {
        NoopScanModule
    }
}

impl ScanModule for NoopScanModule {
    fn name(&self) -> &str {
        "noop"
    }

    fn scan(&mut self, _ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
        Ok(vec![])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crimes_vm::{Vm, VmError};
    use crimes_vmi::VmiSession;
    use crimes_workloads::attacks;

    fn setup() -> (Vm, VmiSession) {
        let mut b = Vm::builder();
        b.pages(4096).seed(12);
        let vm = b.build();
        let s = VmiSession::init(&vm).unwrap();
        (vm, s)
    }

    fn audit(vm: &Vm, s: &mut VmiSession, module: Box<dyn ScanModule>) -> Vec<ScanFinding> {
        let mut d = Detector::new();
        d.register(module);
        let dirty = vm.memory().dirty().clone();
        let report = d.audit(vm.memory(), s, &dirty, 0);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        report.findings
    }

    #[test]
    fn canary_module_catches_overflow() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let pid = vm.spawn_process("victim", 0, 16)?;
        attacks::inject_heap_overflow(&mut vm, pid, 64, 16)?;
        let secret = vm.canary_secret();
        let findings = audit(&vm, &mut s, Box::new(CanaryScanModule::new(secret)));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].detection.category(), "buffer-overflow");
        assert!(findings[0].detection.first_canary_target().is_some());
        Ok(())
    }

    #[test]
    fn canary_module_passes_clean_epoch() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let pid = vm.spawn_process("app", 0, 16)?;
        let obj = vm.malloc(pid, 64)?;
        vm.write_user(pid, obj, &[1u8; 64], 0)?;
        let secret = vm.canary_secret();
        assert!(audit(&vm, &mut s, Box::new(CanaryScanModule::new(secret))).is_empty());
        Ok(())
    }

    #[test]
    fn full_and_dirty_canary_scans_agree() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let pid = vm.spawn_process("victim", 0, 16)?;
        attacks::inject_heap_overflow(&mut vm, pid, 32, 8)?;
        let secret = vm.canary_secret();
        let scoped = audit(&vm, &mut s, Box::new(CanaryScanModule::new(secret)));
        let full = audit(&vm, &mut s, Box::new(CanaryScanModule::full_scan(secret)));
        assert_eq!(scoped, full);
        Ok(())
    }

    #[test]
    fn blacklist_module_finds_malware() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        attacks::inject_malware_launch(&mut vm, "reg_read.exe")?;
        let findings = audit(&vm, &mut s, Box::new(BlacklistScanModule::bundled()));
        assert_eq!(findings.len(), 1);
        match &findings[0].detection {
            Detection::BlacklistedProcess(t) => assert_eq!(t.comm, "reg_read.exe"),
            other => panic!("wrong detection {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn blacklist_module_ignores_benign_processes() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        vm.spawn_process("nginx", 33, 2)?;
        assert!(audit(&vm, &mut s, Box::new(BlacklistScanModule::bundled())).is_empty());
        Ok(())
    }

    #[test]
    fn syscall_module_detects_hijack() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let module = SyscallTableModule::capture(&s, vm.memory()).unwrap();
        attacks::inject_syscall_hijack(&mut vm, 42)?;
        let findings = audit(&vm, &mut s, Box::new(module));
        assert_eq!(findings.len(), 1);
        match &findings[0].detection {
            Detection::SyscallTableTampered(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, 42);
            }
            other => panic!("wrong detection {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn syscall_module_passes_untampered_table() {
        let (vm, mut s) = setup();
        let module = SyscallTableModule::capture(&s, vm.memory()).unwrap();
        assert!(audit(&vm, &mut s, Box::new(module)).is_empty());
    }

    #[test]
    fn allowlist_module_flags_new_module() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        vm.load_module("ext4", 0x1000)?;
        let module = ModuleAllowlistModule::capture(&s, vm.memory()).unwrap();
        vm.load_module("evil_rootkit", 0x666)?;
        let findings = audit(&vm, &mut s, Box::new(module));
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].detection,
            Detection::UnknownModule("evil_rootkit".to_owned())
        );
        Ok(())
    }

    #[test]
    fn hidden_process_module_cross_checks_views() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        attacks::inject_rootkit_hide(&mut vm, "rootkitd")?;
        let findings = audit(&vm, &mut s, Box::new(HiddenProcessModule::new()));
        assert_eq!(findings.len(), 1);
        match &findings[0].detection {
            Detection::HiddenProcess { comm, .. } => assert_eq!(comm, "rootkitd"),
            other => panic!("wrong detection {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn hidden_process_module_reports_a_wild_pid_hash_pointer() {
        // A guest-written pid-hash slot whose task pointer lies 1 TiB into
        // the direct map, far past the guest's memory: the audit must fail
        // closed on it, not error or panic.
        let (mut vm, mut s) = setup();
        let layout = vm.layout().clone();
        let slot = (0..layout.pid_hash_capacity as u64)
            .map(|i| layout.pid_hash.add(i * crimes_vm::layout::PID_SLOT_SIZE))
            .find(|&slot| vm.memory().read_u32(slot.add(4)) == 0)
            .expect("a free pid-hash slot");
        let mem = vm.memory_mut();
        mem.write_u32(slot, 4242);
        mem.write_u32(slot.add(4), 1);
        mem.write_u64(slot.add(8), crimes_vm::KERNEL_VIRT_BASE + (1 << 40));
        let findings = audit(&vm, &mut s, Box::new(HiddenProcessModule::new()));
        assert_eq!(
            findings,
            vec![ScanFinding {
                module: "hidden-process".to_owned(),
                detection: Detection::HiddenProcess {
                    pid: 4242,
                    comm: linux::UNREADABLE_COMM.to_owned(),
                },
            }]
        );
    }

    #[test]
    fn hidden_module_module_catches_lkm_rootkit() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        vm.load_module("ext4", 0x1000)?;
        vm.load_module("rk_lkm", 0x666)?;
        vm.hide_module("rk_lkm")?;
        let findings = audit(&vm, &mut s, Box::new(HiddenModuleModule::new()));
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].detection,
            Detection::HiddenModule {
                name: "rk_lkm".to_owned()
            }
        );
        Ok(())
    }

    #[test]
    fn hidden_module_module_passes_clean_modules() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        vm.load_module("ext4", 0x1000)?;
        assert!(audit(&vm, &mut s, Box::new(HiddenModuleModule::new())).is_empty());
        Ok(())
    }

    #[test]
    fn cred_integrity_catches_dkom_escalation() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let pid = vm.spawn_process("www-data", 33, 2)?;
        vm.escalate_privileges(pid)?;
        let findings = audit(&vm, &mut s, Box::new(CredIntegrityModule::new()));
        assert_eq!(findings.len(), 1);
        match &findings[0].detection {
            Detection::PrivilegeEscalation { comm, uid, .. } => {
                assert_eq!(comm, "www-data");
                assert_eq!(*uid, 33);
            }
            other => panic!("wrong detection {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn cred_integrity_accepts_real_root_processes() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        vm.spawn_process("sshd", 0, 2)?; // legitimately root: uid 0, cred 0
        vm.spawn_process("nginx", 33, 2)?;
        assert!(audit(&vm, &mut s, Box::new(CredIntegrityModule::new())).is_empty());
        Ok(())
    }

    #[test]
    fn noop_module_always_passes() {
        let (vm, mut s) = setup();
        assert!(audit(&vm, &mut s, Box::new(NoopScanModule::new())).is_empty());
    }

    #[test]
    fn canary_validation_counter_accumulates() -> Result<(), VmError> {
        let (mut vm, mut s) = setup();
        let pid = vm.spawn_process("app", 0, 16)?;
        for _ in 0..5 {
            vm.malloc(pid, 64)?;
        }
        let mut module = CanaryScanModule::full_scan(vm.canary_secret());
        s.refresh_address_spaces(vm.memory()).unwrap();
        let dirty = vm.memory().dirty().clone();
        let ctx = ScanContext {
            memory: vm.memory(),
            session: &s,
            dirty: &dirty,
            epoch: 0,
        };
        module.scan(&ctx).unwrap();
        module.scan(&ctx).unwrap();
        assert_eq!(module.validated(), 10);
        Ok(())
    }
}
