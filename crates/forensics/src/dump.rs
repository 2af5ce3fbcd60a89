//! Memory dumps — the artifacts post-mortem analysis works on.
//!
//! CRIMES generates "two memory dumps of the VM: one at the last known safe
//! checkpoint and the other at the point where the audit failed" (§3.3),
//! plus a third at the pinpointed attack instruction during replay. A
//! [`MemoryDump`] is such an artifact: a self-contained frame image with
//! the PFN→MFN table and `System.map` needed to re-address it offline.
//!
//! A dump opens its introspection session at most once and every plugin,
//! diff and report over it reuses that session. A monitor that already
//! holds a session opens the dump's from it with
//! [`MemoryDump::open_session_from`], so analysing an incident never
//! parses `System.map` again.

use std::sync::{Arc, OnceLock};

use crimes_vm::{GuestMemory, Mfn, SystemMap, Vm, PAGE_SIZE};
use crimes_vmi::{VmiError, VmiSession};

/// Which moment a dump captures, relative to a detected attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DumpKind {
    /// The last committed clean checkpoint.
    LastGoodCheckpoint,
    /// The end of the epoch whose audit failed.
    AuditFailure,
    /// The instant of the attack, found during replay.
    AttackInstant,
    /// Any other capture.
    Adhoc,
}

impl DumpKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DumpKind::LastGoodCheckpoint => "last-good-checkpoint",
            DumpKind::AuditFailure => "audit-failure",
            DumpKind::AttackInstant => "attack-instant",
            DumpKind::Adhoc => "adhoc",
        }
    }
}

/// A self-contained guest memory dump.
#[derive(Debug, Clone)]
pub struct MemoryDump {
    mem: GuestMemory,
    /// The guest's table, shared with the VM it was captured from.
    symbols: Arc<SystemMap>,
    kind: DumpKind,
    guest_time_ns: u64,
    /// The session over this dump, once opened.
    session: OnceLock<VmiSession>,
}

impl MemoryDump {
    /// Capture the VM's current memory.
    pub fn from_vm(vm: &Vm, kind: DumpKind) -> Self {
        MemoryDump {
            mem: GuestMemory::from_raw_parts(
                vm.memory().dump_frames(),
                vm.memory().pfn_to_mfn_table().to_vec(),
            ),
            symbols: Arc::clone(vm.system_map()),
            kind,
            guest_time_ns: vm.now_ns(),
            session: OnceLock::new(),
        }
    }

    /// Build a dump from a raw frame image (e.g. the checkpointer's backup
    /// VM), borrowing addressing metadata from the live VM.
    ///
    /// # Panics
    ///
    /// Panics if `frames` does not match the VM's memory size.
    pub fn from_frames(frames: &[u8], vm: &Vm, kind: DumpKind, guest_time_ns: u64) -> Self {
        MemoryDump {
            mem: GuestMemory::from_raw_parts(
                frames.to_vec(),
                vm.memory().pfn_to_mfn_table().to_vec(),
            ),
            symbols: Arc::clone(vm.system_map()),
            kind,
            guest_time_ns,
            session: OnceLock::new(),
        }
    }

    /// What this dump captures.
    pub fn kind(&self) -> DumpKind {
        self.kind
    }

    /// Guest time at capture.
    pub fn guest_time_ns(&self) -> u64 {
        self.guest_time_ns
    }

    /// The addressable memory view.
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// The symbol table shipped with the dump.
    pub fn system_map(&self) -> &Arc<SystemMap> {
        &self.symbols
    }

    /// Number of guest pages.
    pub fn num_pages(&self) -> usize {
        self.mem.num_pages()
    }

    /// Dump size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.num_pages() * PAGE_SIZE
    }

    /// The introspection session over this dump. The first call on a dump
    /// that has none yet initialises one the way an offline tool would:
    /// it parses the `System.map` shipped with the dump, detects the
    /// kernel and builds the translation caches. Every later call returns
    /// that session, as it does the one [`open_session_from`] opened.
    ///
    /// [`open_session_from`]: Self::open_session_from
    ///
    /// # Errors
    ///
    /// Fails if the dump's kernel structures are too damaged to initialise
    /// against. Nothing is kept then; a later call tries again.
    pub fn open_session(&self) -> Result<&VmiSession, VmiError> {
        if let Some(session) = self.session.get() {
            return Ok(session);
        }
        let session = VmiSession::init_with(&self.symbols, &self.mem)?;
        Ok(self.session.get_or_init(|| session))
    }

    /// The introspection session over this dump, opened (on first use)
    /// from `base`'s parsed symbol table: kernel detection and translation
    /// caches only, no `System.map` parse. `base` must belong to the guest
    /// this dump was captured from. Returns the existing session if one is
    /// already open.
    ///
    /// # Errors
    ///
    /// As [`VmiSession::reopen`]. Nothing is kept then; a later call tries
    /// again.
    pub fn open_session_from(&self, base: &VmiSession) -> Result<&VmiSession, VmiError> {
        if let Some(session) = self.session.get() {
            return Ok(session);
        }
        let session = base.reopen(&self.mem)?;
        Ok(self.session.get_or_init(|| session))
    }

    /// Raw page content by guest frame number (for diffing).
    pub fn page(&self, pfn: crimes_vm::Pfn) -> &[u8] {
        self.mem.page(pfn)
    }

    /// The PFN→MFN table.
    pub fn pfn_to_mfn_table(&self) -> &[Mfn] {
        self.mem.pfn_to_mfn_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Pfn;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(8);
        b.build()
    }

    #[test]
    fn dump_is_independent_of_the_live_vm() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let obj = vm.malloc(pid, 16).unwrap();
        vm.write_user(pid, obj, b"at-dump", 0).unwrap();
        let dump = MemoryDump::from_vm(&vm, DumpKind::Adhoc);
        vm.write_user(pid, obj, b"later!!", 0).unwrap();

        // The dump still reads the old bytes.
        let gpa = vm
            .processes()
            .get(pid)
            .unwrap()
            .mapping
            .translate(obj)
            .unwrap();
        let mut buf = [0u8; 7];
        dump.memory().read(gpa, &mut buf);
        assert_eq!(&buf, b"at-dump");
    }

    #[test]
    fn dump_session_walks_kernel_structures() {
        let mut vm = vm();
        vm.spawn_process("nginx", 33, 4).unwrap();
        let dump = MemoryDump::from_vm(&vm, DumpKind::AuditFailure);
        let session = dump.open_session().expect("session over dump");
        let tasks = crimes_vmi::linux::process_list(session, dump.memory()).unwrap();
        assert!(tasks.iter().any(|t| t.comm == "nginx"));
    }

    #[test]
    fn dump_opens_its_session_once() {
        let vm = vm();
        let dump = MemoryDump::from_vm(&vm, DumpKind::Adhoc);
        assert!(Arc::ptr_eq(dump.system_map(), vm.system_map()));
        let first: *const VmiSession = dump.open_session().unwrap();
        let again: *const VmiSession = dump.open_session().unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn session_from_a_monitor_shares_its_table() {
        let mut vm = vm();
        let monitor = VmiSession::init(&vm).unwrap();
        vm.spawn_process("later", 0, 2).unwrap();
        let dump = MemoryDump::from_vm(&vm, DumpKind::AuditFailure);
        let session = dump.open_session_from(&monitor).unwrap();
        assert!(Arc::ptr_eq(session.symbols(), monitor.symbols()));
        // Later callers, with or without a base, get the same session.
        assert!(std::ptr::eq(dump.open_session().unwrap(), session));
        let tasks = crimes_vmi::linux::process_list(session, dump.memory()).unwrap();
        assert!(tasks.iter().any(|t| t.comm == "later"));
    }

    #[test]
    fn from_frames_builds_checkpoint_dump() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let clean = vm.memory().dump_frames();
        vm.dirty_arena_page(pid, 0, 0, 0xff).unwrap();
        let dump = MemoryDump::from_frames(&clean, &vm, DumpKind::LastGoodCheckpoint, 123);
        assert_eq!(dump.kind(), DumpKind::LastGoodCheckpoint);
        assert_eq!(dump.guest_time_ns(), 123);
        // The checkpoint dump shows the pre-write value.
        let phys = vm.processes().get(pid).unwrap().mapping.phys_base;
        assert_eq!(dump.memory().read_u8(phys), 0);
        assert_eq!(vm.memory().read_u8(phys), 0xff);
    }

    #[test]
    fn metadata_accessors() {
        let vm = vm();
        let dump = MemoryDump::from_vm(&vm, DumpKind::AttackInstant);
        assert_eq!(dump.num_pages(), 2048);
        assert_eq!(dump.size_bytes(), 2048 * PAGE_SIZE);
        assert_eq!(dump.kind().label(), "attack-instant");
        assert!(dump.system_map().lookup("sys_call_table").is_some());
        let _ = dump.page(Pfn(0));
    }

    #[test]
    fn kind_labels_are_distinct() {
        let labels = [
            DumpKind::LastGoodCheckpoint.label(),
            DumpKind::AuditFailure.label(),
            DumpKind::AttackInstant.label(),
            DumpKind::Adhoc.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
