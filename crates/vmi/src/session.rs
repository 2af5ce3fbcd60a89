//! The introspection session — our LibVMI.
//!
//! `vmi_init` on real LibVMI is expensive: it parses the kernel's symbol
//! file, detects the OS version, and configures address translation. That
//! is why CRIMES initialises **once** and only pays the (sub-millisecond)
//! structure walks at each checkpoint (§5.3, Table 3). [`VmiSession`]
//! reproduces the same phase split:
//!
//! * **initialization** — render and *re-parse* the textual `System.map`
//!   (tens of thousands of lines), read the `linux_banner` string out of
//!   guest memory, and check the kernel version against the profile;
//! * **preprocessing** — pre-resolve the hot symbols to physical addresses
//!   and build the user-address-translation cache by walking the task list
//!   once;
//! * **memory analysis** — the per-scan walks in [`crate::linux`], which are
//!   all that runs inside the checkpoint pause window.
//!
//! The parsed table is shared (`Arc`): [`VmiSession::reopen`] opens a
//! session over another memory view of the same guest — a forensic dump,
//! or the guest after a rollback — from an existing session's table. It
//! re-reads and checks the banner, resolves the hot symbols and refreshes
//! the address spaces, but does not parse again. A monitor therefore pays
//! the parse once, when it starts protecting a guest.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crimes_vm::layout::{task_offsets, TASK_STRUCT_SIZE};
use crimes_vm::symbols::names;
use crimes_vm::{Gpa, GuestMemory, Gva, SystemMap, Vm};

use crate::error::VmiError;

/// Init-phase timings, matching Table 3's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InitTimings {
    /// Symbol parse + kernel detection (kernel detection alone for a
    /// [`VmiSession::reopen`]ed session).
    pub initialization: Duration,
    /// Translation-cache construction.
    pub preprocessing: Duration,
}

/// Cached user address-space info for one task, read from its task struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    /// User virtual base.
    pub virt_base: Gva,
    /// Backing physical base.
    pub phys_base: Gpa,
    /// Mapping length in bytes.
    pub len: u64,
}

impl AddressSpace {
    /// Translate a user GVA in this space.
    pub fn translate(&self, gva: Gva) -> Option<Gpa> {
        let off = gva.0.checked_sub(self.virt_base.0)?;
        (off < self.len).then(|| self.phys_base.add(off))
    }
}

/// An initialised introspection session for one VM.
#[derive(Debug, Clone)]
pub struct VmiSession {
    symbols: Arc<SystemMap>,
    banner: String,
    /// Hot symbols resolved to guest-physical addresses.
    resolved: HashMap<&'static str, Gpa>,
    /// pid → user address space, discovered from task structs.
    address_spaces: HashMap<u32, AddressSpace>,
    /// Size of the memory view the session was opened over: a kernel
    /// pointer whose object would end past it faults instead of reading
    /// out of range.
    mem_bytes: u64,
    timings: InitTimings,
}

/// The symbols resolved eagerly during preprocessing.
const HOT_SYMBOLS: [&str; 9] = [
    names::SYS_CALL_TABLE,
    names::INIT_TASK,
    names::MODULES,
    names::PID_HASH,
    names::TASK_SLAB,
    names::MODULE_SLAB,
    names::SOCKET_TABLE,
    names::FILE_TABLE,
    names::CANARY_TABLE,
];

impl VmiSession {
    /// Initialise introspection against `vm`, paying the full
    /// initialization + preprocessing cost.
    ///
    /// # Errors
    ///
    /// Fails if `System.map` is malformed, a required symbol is missing, or
    /// the guest banner names an unsupported kernel.
    pub fn init(vm: &Vm) -> Result<Self, VmiError> {
        Self::init_with(vm.system_map(), vm.memory())
    }

    /// Initialise against any memory view (a live guest or a forensic
    /// dump) plus its `System.map` — the path Volatility-style offline
    /// analysis uses.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VmiSession::init`].
    pub fn init_with(map: &SystemMap, mem: &GuestMemory) -> Result<Self, VmiError> {
        // ---- initialization --------------------------------------------
        let t0 = Instant::now();
        // The provider stores System.map as text; parse it like LibVMI
        // parses the real file.
        let text = map.to_text();
        let symbols = SystemMap::parse(&text).map_err(VmiError::BadSystemMap)?;
        Self::open(Arc::new(symbols), mem, t0)
    }

    /// Open a session over another memory view of the same guest (a dump,
    /// or the guest after a rollback), sharing this session's parsed
    /// symbol table. The banner is re-read and checked, the hot symbols
    /// resolved and the address spaces refreshed; the table is not parsed
    /// again.
    ///
    /// # Errors
    ///
    /// Fails if the view's banner names an unsupported kernel or its task
    /// list is malformed, or with [`VmiError::TransientReadFault`] when an
    /// injected read fault fires.
    pub fn reopen(&self, mem: &GuestMemory) -> Result<Self, VmiError> {
        Self::open(Arc::clone(&self.symbols), mem, Instant::now())
    }

    /// Kernel detection and preprocessing over `mem` from a parsed table;
    /// `t0` is when the initialization phase started.
    fn open(symbols: Arc<SystemMap>, mem: &GuestMemory, t0: Instant) -> Result<Self, VmiError> {
        let banner_gpa = kernel_sym_gpa(&symbols, names::LINUX_BANNER)?;
        let banner = read_c_string(mem, banner_gpa, 128);
        if !banner.starts_with("Linux version 4.") {
            return Err(VmiError::UnsupportedKernel(banner));
        }
        let initialization = t0.elapsed();

        // ---- preprocessing ----------------------------------------------
        let t1 = Instant::now();
        let mut resolved = HashMap::new();
        for name in HOT_SYMBOLS {
            resolved.insert(name, kernel_sym_gpa(&symbols, name)?);
        }
        let mut session = VmiSession {
            symbols,
            banner,
            resolved,
            address_spaces: HashMap::new(),
            mem_bytes: mem.size_bytes() as u64,
            timings: InitTimings::default(),
        };
        session.refresh_address_spaces(mem)?;
        session.timings = InitTimings {
            initialization,
            preprocessing: t1.elapsed(),
        };
        Ok(session)
    }

    /// Init-phase timings (Table 3's first two rows).
    pub fn timings(&self) -> InitTimings {
        self.timings
    }

    /// The parsed symbol table, shared with every session
    /// [`reopen`](Self::reopen)ed from this one.
    pub fn symbols(&self) -> &Arc<SystemMap> {
        &self.symbols
    }

    /// The banner string read from guest memory.
    pub fn kernel_banner(&self) -> &str {
        &self.banner
    }

    /// Resolve a hot symbol to its guest-physical address (pre-resolved at
    /// preprocessing time, so this is a map lookup).
    ///
    /// # Errors
    ///
    /// Fails for symbols outside the hot set — use [`VmiSession::lookup`]
    /// for those.
    pub fn hot_symbol(&self, name: &str) -> Result<Gpa, VmiError> {
        self.resolved
            .get(name)
            .copied()
            .ok_or_else(|| VmiError::UnknownSymbol(name.to_owned()))
    }

    /// Resolve any symbol through the parsed map (kernel direct map only).
    ///
    /// # Errors
    ///
    /// Fails if the symbol is missing or not a kernel address.
    pub fn lookup(&self, name: &str) -> Result<Gpa, VmiError> {
        kernel_sym_gpa(&self.symbols, name)
    }

    /// Translate the kernel GVA of a `len`-byte kernel object (direct
    /// map). Kernel pointers read out of guest memory are guest-written,
    /// so the whole object must lie inside the memory view the session
    /// was opened over.
    ///
    /// # Errors
    ///
    /// [`VmiError::TranslationFault`] for user addresses and for objects
    /// that would end past guest memory.
    // lint: pause-window
    pub fn translate_kernel(&self, gva: Gva, len: u64) -> Result<Gpa, VmiError> {
        if !gva.is_kernel() {
            return Err(VmiError::TranslationFault(gva));
        }
        let gpa = gva.kernel_to_gpa().ok_or(VmiError::TranslationFault(gva))?;
        match gpa.0.checked_add(len) {
            Some(end) if end <= self.mem_bytes => Ok(gpa),
            _ => Err(VmiError::TranslationFault(gva)),
        }
    }

    /// Translate a user GVA through `pid`'s cached address space.
    ///
    /// # Errors
    ///
    /// Fails if the pid is unknown to the cache or the address is outside
    /// its mapping.
    // lint: pause-window
    pub fn translate_user(&self, pid: u32, gva: Gva) -> Result<Gpa, VmiError> {
        let space = self
            .address_spaces
            .get(&pid)
            .ok_or(VmiError::NoSuchTask(pid))?;
        space.translate(gva).ok_or(VmiError::TranslationFault(gva))
    }

    /// The cached address space of `pid`, if known.
    pub fn address_space(&self, pid: u32) -> Option<AddressSpace> {
        self.address_spaces.get(&pid).copied()
    }

    /// Re-walk the task list and rebuild the pid → address-space cache.
    /// Call after process churn; the canary scanner calls it each scan so
    /// newly spawned processes translate.
    ///
    /// # Errors
    ///
    /// Fails if the task list is malformed, or with
    /// [`VmiError::TransientReadFault`] when an injected read fault fires
    /// (retry-safe — the guest is paused during audits).
    // lint: pause-window
    pub fn refresh_address_spaces(&mut self, mem: &GuestMemory) -> Result<(), VmiError> {
        if crimes_faults::should_inject(crimes_faults::FaultPoint::VmiRead) {
            return Err(VmiError::TransientReadFault);
        }
        let init_task = self.hot_symbol(names::INIT_TASK)?;
        let mut spaces = HashMap::new();
        let init_gva = init_task.to_kernel_gva();
        let mut cur_gpa = init_task;
        // Bounded walk: no real task slab exceeds this.
        for _ in 0..65_536 {
            let pid = mem.read_u32(cur_gpa.add(task_offsets::PID));
            let virt_base = Gva(mem.read_u64(cur_gpa.add(task_offsets::MM_START)));
            let phys_base = Gpa(mem.read_u64(cur_gpa.add(task_offsets::MM_PHYS)));
            let len = mem.read_u64(cur_gpa.add(task_offsets::MM_SIZE));
            if len > 0 {
                spaces.insert(
                    pid,
                    AddressSpace {
                        virt_base,
                        phys_base,
                        len,
                    },
                );
            }
            let next = Gva(mem.read_u64(cur_gpa.add(task_offsets::NEXT)));
            if next == init_gva {
                self.address_spaces = spaces;
                return Ok(());
            }
            cur_gpa = self.translate_kernel(next, TASK_STRUCT_SIZE)?;
        }
        Err(VmiError::MalformedList {
            what: "task",
            steps: 65_536,
        })
    }
}

/// Resolve `name` and translate through the kernel direct map.
fn kernel_sym_gpa(symbols: &SystemMap, name: &str) -> Result<Gpa, VmiError> {
    let gva = symbols
        .lookup(name)
        .ok_or_else(|| VmiError::UnknownSymbol(name.to_owned()))?;
    gva.kernel_to_gpa().ok_or(VmiError::TranslationFault(gva))
}

/// Read a NUL-terminated string of at most `max` bytes.
fn read_c_string(mem: &GuestMemory, gpa: Gpa, max: usize) -> String {
    let mut buf = vec![0u8; max];
    mem.read(gpa, &mut buf);
    let end = buf.iter().position(|&b| b == 0).unwrap_or(max);
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Vm;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(4);
        b.build()
    }

    #[test]
    fn init_detects_kernel_version() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.kernel_banner().starts_with("Linux version 4.8.0-crimes"));
    }

    #[test]
    fn init_records_phase_timings() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.timings().initialization > Duration::ZERO);
        assert!(s.timings().preprocessing > Duration::ZERO);
    }

    #[test]
    fn hot_symbols_resolve_to_layout_addresses() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert_eq!(
            s.hot_symbol(names::SYS_CALL_TABLE).unwrap(),
            vm.layout().syscall_table
        );
        assert_eq!(
            s.hot_symbol(names::CANARY_TABLE).unwrap(),
            vm.layout().canary_table
        );
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(matches!(
            s.hot_symbol("no_such_symbol"),
            Err(VmiError::UnknownSymbol(_))
        ));
        assert!(matches!(
            s.lookup("no_such_symbol"),
            Err(VmiError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn translate_kernel_rejects_user_addresses() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.translate_kernel(Gva(0x1000), 8).is_err());
    }

    #[test]
    fn translate_kernel_rejects_objects_past_guest_memory() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        let end = vm.memory().size_bytes() as u64;
        let last = Gpa(end - 128).to_kernel_gva();
        assert_eq!(s.translate_kernel(last, 128), Ok(Gpa(end - 128)));
        assert!(s.translate_kernel(last, 129).is_err());
        let far = Gpa(end + (1 << 40)).to_kernel_gva();
        assert_eq!(
            s.translate_kernel(far, 8),
            Err(VmiError::TranslationFault(far))
        );
    }

    #[test]
    fn reopen_shares_the_table_and_reads_the_new_view() {
        let mut vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        let pid = vm.spawn_process("late", 0, 4).unwrap();
        let r = s.reopen(vm.memory()).expect("reopen");
        assert!(Arc::ptr_eq(r.symbols(), s.symbols()));
        assert!(s.address_space(pid).is_none());
        assert!(r.address_space(pid).is_some());
        assert_eq!(r.kernel_banner(), s.kernel_banner());
        // A fresh init parses its own table with the same contents.
        let fresh = VmiSession::init(&vm).expect("init");
        assert!(!Arc::ptr_eq(fresh.symbols(), s.symbols()));
        assert_eq!(**fresh.symbols(), **r.symbols());
        assert_eq!(fresh.address_space(pid), r.address_space(pid));
    }

    #[test]
    fn reopen_checks_the_banner_of_the_new_view() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        let mut mem = vm.memory().clone();
        mem.write(vm.layout().banner, b"Linux version 2.6.32");
        assert!(matches!(
            s.reopen(&mem),
            Err(VmiError::UnsupportedKernel(_))
        ));
    }

    #[test]
    fn user_translation_goes_through_task_structs() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        let obj = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, obj, b"find me", 0).unwrap();

        let mut s = VmiSession::init(&vm).expect("init");
        s.refresh_address_spaces(vm.memory()).unwrap();
        let gpa = s.translate_user(pid, obj).expect("translate");
        let mut buf = [0u8; 7];
        vm.memory().read(gpa, &mut buf);
        assert_eq!(&buf, b"find me");
    }

    #[test]
    fn translation_cache_refresh_picks_up_new_processes() {
        let mut vm = vm();
        let s0 = VmiSession::init(&vm).expect("init");
        let pid = vm.spawn_process("late", 0, 4).unwrap();
        assert!(s0.address_space(pid).is_none(), "stale cache misses it");
        let mut s = s0;
        s.refresh_address_spaces(vm.memory()).unwrap();
        assert!(s.address_space(pid).is_some());
    }

    #[test]
    fn translate_user_unknown_pid_fails() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert_eq!(s.translate_user(42, Gva(0)), Err(VmiError::NoSuchTask(42)));
    }

    #[test]
    fn translate_user_out_of_mapping_fails() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 1).unwrap();
        let mut s = VmiSession::init(&vm).expect("init");
        s.refresh_address_spaces(vm.memory()).unwrap();
        let end = vm.processes().get(pid).unwrap().mapping.virt_end();
        assert!(matches!(
            s.translate_user(pid, end),
            Err(VmiError::TranslationFault(_))
        ));
    }
}
