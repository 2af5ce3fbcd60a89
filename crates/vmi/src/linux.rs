//! Linux-profile structure readers — the per-checkpoint "memory analysis"
//! scans (Table 3's third row, and the unaided security modules of §4.2).
//!
//! Everything here reads raw guest memory through a [`VmiSession`]'s symbol
//! and translation machinery: no host-side bookkeeping is consulted, so a
//! rootkit that unlinks a task really does disappear from
//! [`process_list`], exactly as it would from LibVMI's.

use crimes_vm::kernel::TaskState;
use crimes_vm::layout::{
    module_offsets, task_offsets, MODULE_MAGIC, MODULE_STRUCT_SIZE, SYSCALL_COUNT, TASK_STRUCT_SIZE,
};
use crimes_vm::symbols::names;
use crimes_vm::{Gpa, GuestMemory, Gva};

use crate::error::VmiError;
use crate::session::VmiSession;

/// A task as seen from outside the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInfo {
    /// Process id.
    pub pid: u32,
    /// Owner uid.
    pub uid: u32,
    /// Scheduler state.
    pub state: TaskState,
    /// Command name.
    pub comm: String,
    /// Start time in guest nanoseconds.
    pub start_time_ns: u64,
    /// Kernel GVA of the task struct.
    pub task_gva: Gva,
    /// User mapping base (zero for kernel threads).
    pub mm_start: Gva,
    /// User mapping size.
    pub mm_size: u64,
    /// Credential marker (0 = root). Consistent kernels keep this equal to
    /// `uid`; a mismatch is DKOM credential patching.
    pub cred: u64,
}

/// A loaded kernel module as seen from outside the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Module name.
    pub name: String,
    /// Core size in bytes.
    pub size: u64,
    /// Kernel GVA of the module struct.
    pub module_gva: Gva,
}

/// A module found by scanning the module slab (sees DKOM-hidden modules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedModule {
    /// Decoded module fields.
    pub module: ModuleInfo,
    /// Physical address of the slab slot.
    pub found_at: Gpa,
}

/// A pid-hash entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PidHashEntry {
    /// Process id.
    pub pid: u32,
    /// Kernel GVA of the owning task struct.
    pub task_gva: Gva,
}

/// Upper bound on list walks, against corrupted pointers.
const MAX_LIST_STEPS: usize = 65_536;

/// Walk the kernel task list from `init_task` (the classic `pslist` view —
/// blind to DKOM-hidden processes).
///
/// # Errors
///
/// Fails on translation faults or a non-terminating list.
pub fn process_list(session: &VmiSession, mem: &GuestMemory) -> Result<Vec<TaskInfo>, VmiError> {
    let init_task = session.hot_symbol(names::INIT_TASK)?;
    let init_gva = init_task.to_kernel_gva();
    let mut tasks = Vec::new();
    let mut cur = init_task;
    for _ in 0..MAX_LIST_STEPS {
        tasks.push(read_task(mem, cur));
        let next = Gva(mem.read_u64(cur.add(task_offsets::NEXT)));
        if next == init_gva {
            return Ok(tasks);
        }
        cur = session.translate_kernel(next, TASK_STRUCT_SIZE)?;
    }
    Err(VmiError::MalformedList {
        what: "task",
        steps: MAX_LIST_STEPS,
    })
}

/// Walk the kernel module list (the `module-list` scan of Table 3).
///
/// # Errors
///
/// Fails on translation faults or a non-terminating list.
pub fn module_list(session: &VmiSession, mem: &GuestMemory) -> Result<Vec<ModuleInfo>, VmiError> {
    let head = session.hot_symbol(names::MODULES)?;
    let head_gva = head.to_kernel_gva();
    let mut modules = Vec::new();
    let mut cur = Gva(mem.read_u64(head));
    for _ in 0..MAX_LIST_STEPS {
        if cur == head_gva {
            return Ok(modules);
        }
        let gpa = session.translate_kernel(cur, MODULE_STRUCT_SIZE)?;
        let magic = mem.read_u32(gpa.add(module_offsets::MAGIC));
        if magic != MODULE_MAGIC {
            // A stale or corrupted entry: report the walk as malformed
            // rather than fabricating a module.
            return Err(VmiError::MalformedList {
                what: "module",
                steps: modules.len(),
            });
        }
        modules.push(ModuleInfo {
            name: read_fixed_string(mem, gpa.add(module_offsets::NAME), 32),
            size: mem.read_u64(gpa.add(module_offsets::SIZE)),
            module_gva: cur,
        });
        cur = Gva(mem.read_u64(gpa.add(module_offsets::NEXT)));
    }
    Err(VmiError::MalformedList {
        what: "module",
        steps: MAX_LIST_STEPS,
    })
}

/// Read the full syscall table.
///
/// # Errors
///
/// Fails if the table symbol is unknown.
pub fn syscall_table(session: &VmiSession, mem: &GuestMemory) -> Result<Vec<u64>, VmiError> {
    let base = session.hot_symbol(names::SYS_CALL_TABLE)?;
    let mut table = Vec::with_capacity(SYSCALL_COUNT);
    for i in 0..SYSCALL_COUNT {
        table.push(mem.read_u64(base.add(i as u64 * 8)));
    }
    Ok(table)
}

/// Heuristic sweep of the module slab for live module structs (the
/// `modscan` counterpart to `psscan`): sees modules a rootkit unlinked
/// from the list.
///
/// # Errors
///
/// Fails if the module-slab symbol is unknown.
pub fn module_scan(
    session: &VmiSession,
    mem: &GuestMemory,
) -> Result<Vec<ScannedModule>, VmiError> {
    let base = session.hot_symbol(names::MODULE_SLAB)?;
    // Slab capacity is part of the kernel profile.
    let capacity = 64usize;
    let mut found = Vec::new();
    for slot in 0..capacity {
        let gpa = base.add(slot as u64 * MODULE_STRUCT_SIZE);
        if mem.read_u32(gpa.add(module_offsets::MAGIC)) != MODULE_MAGIC {
            continue;
        }
        found.push(ScannedModule {
            module: ModuleInfo {
                name: read_fixed_string(mem, gpa.add(module_offsets::NAME), 32),
                size: mem.read_u64(gpa.add(module_offsets::SIZE)),
                module_gva: gpa.to_kernel_gva(),
            },
            found_at: gpa,
        });
    }
    Ok(found)
}

/// Read the live pid-hash entries (`pid_hash` view for cross-view
/// detection: a pid here but not in [`process_list`] is hiding).
///
/// # Errors
///
/// Fails if the hash symbol is unknown.
pub fn pid_hash_entries(
    session: &VmiSession,
    mem: &GuestMemory,
) -> Result<Vec<PidHashEntry>, VmiError> {
    let base = session.hot_symbol(names::PID_HASH)?;
    // Slot count is part of the kernel profile; mirror the layout constant
    // the simulated kernel was built with.
    let capacity = 1024usize;
    let mut entries = Vec::new();
    for i in 0..capacity {
        let slot = base.add(i as u64 * 16);
        if mem.read_u32(slot.add(4)) == 1 {
            entries.push(PidHashEntry {
                pid: mem.read_u32(slot),
                task_gva: Gva(mem.read_u64(slot.add(8))),
            });
        }
    }
    entries.sort_by_key(|e| e.pid);
    Ok(entries)
}

/// The comm reported for a pid-hash entry whose task pointer does not
/// lead to a task struct inside guest memory.
pub const UNREADABLE_COMM: &str = "<unreadable>";

/// The comm of the task a pid-hash entry points at. The entry's task
/// pointer is guest-written: when it does not translate to a task struct
/// inside guest memory the comm is [`UNREADABLE_COMM`], so a cross-view
/// check still reports the entry instead of failing on it.
pub fn pid_hash_comm(session: &VmiSession, mem: &GuestMemory, entry: &PidHashEntry) -> String {
    match session.translate_kernel(entry.task_gva, TASK_STRUCT_SIZE) {
        Ok(gpa) => read_task(mem, gpa).comm,
        Err(_) => UNREADABLE_COMM.to_owned(),
    }
}

/// Find a task by pid via the task list.
///
/// # Errors
///
/// Fails if no visible task has that pid.
pub fn task_by_pid(
    session: &VmiSession,
    mem: &GuestMemory,
    pid: u32,
) -> Result<TaskInfo, VmiError> {
    process_list(session, mem)?
        .into_iter()
        .find(|t| t.pid == pid)
        .ok_or(VmiError::NoSuchTask(pid))
}

/// Decode one task struct at `gpa`.
pub fn read_task(mem: &GuestMemory, gpa: Gpa) -> TaskInfo {
    TaskInfo {
        pid: mem.read_u32(gpa.add(task_offsets::PID)),
        uid: mem.read_u32(gpa.add(task_offsets::UID)),
        state: TaskState::from_raw(mem.read_u32(gpa.add(task_offsets::STATE))),
        comm: read_fixed_string(mem, gpa.add(task_offsets::COMM), 16),
        start_time_ns: mem.read_u64(gpa.add(task_offsets::START_TIME)),
        task_gva: gpa.to_kernel_gva(),
        mm_start: Gva(mem.read_u64(gpa.add(task_offsets::MM_START))),
        mm_size: mem.read_u64(gpa.add(task_offsets::MM_SIZE)),
        cred: mem.read_u64(gpa.add(task_offsets::CRED)),
    }
}

/// Read a NUL-padded fixed-width string field.
pub fn read_fixed_string(mem: &GuestMemory, gpa: Gpa, width: usize) -> String {
    let mut buf = vec![0u8; width];
    mem.read(gpa, &mut buf);
    let end = buf.iter().position(|&b| b == 0).unwrap_or(width);
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::{Kernel, Vm};

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(13);
        b.build()
    }

    fn session(vm: &Vm) -> VmiSession {
        VmiSession::init(vm).expect("init")
    }

    #[test]
    fn process_list_sees_spawned_processes() {
        let mut vm = vm();
        vm.spawn_process("nginx", 33, 4).unwrap();
        vm.spawn_process("sshd", 0, 4).unwrap();
        let s = session(&vm);
        let tasks = process_list(&s, vm.memory()).unwrap();
        let names: Vec<&str> = tasks.iter().map(|t| t.comm.as_str()).collect();
        assert_eq!(names, vec!["swapper", "nginx", "sshd"]);
        assert_eq!(tasks[1].uid, 33);
    }

    #[test]
    fn process_list_misses_hidden_process() {
        let mut vm = vm();
        let evil = vm.spawn_process("rootkit", 0, 4).unwrap();
        vm.hide_process(evil).unwrap();
        let s = session(&vm);
        let tasks = process_list(&s, vm.memory()).unwrap();
        assert!(!tasks.iter().any(|t| t.pid == evil));
    }

    #[test]
    fn pid_hash_still_sees_hidden_process() {
        let mut vm = vm();
        let evil = vm.spawn_process("rootkit", 0, 4).unwrap();
        vm.hide_process(evil).unwrap();
        let s = session(&vm);
        let entries = pid_hash_entries(&s, vm.memory()).unwrap();
        assert!(entries.iter().any(|e| e.pid == evil));
    }

    #[test]
    fn module_list_round_trips() {
        let mut vm = vm();
        vm.load_module("ext4", 0x8000).unwrap();
        vm.load_module("e1000", 0x2000).unwrap();
        let s = session(&vm);
        let mods = module_list(&s, vm.memory()).unwrap();
        let names: Vec<&str> = mods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["e1000", "ext4"]);
        assert_eq!(mods[0].size, 0x2000);
    }

    #[test]
    fn empty_module_list_is_empty() {
        let vm = vm();
        let s = session(&vm);
        assert!(module_list(&s, vm.memory()).unwrap().is_empty());
    }

    #[test]
    fn syscall_table_matches_known_good() {
        let vm = vm();
        let s = session(&vm);
        let table = syscall_table(&s, vm.memory()).unwrap();
        assert_eq!(table.len(), SYSCALL_COUNT);
        for (i, &h) in table.iter().enumerate() {
            assert_eq!(h, Kernel::good_syscall_handler(i));
        }
    }

    #[test]
    fn syscall_table_reflects_hijack() {
        let mut vm = vm();
        vm.hijack_syscall(42, 0xbad).unwrap();
        let s = session(&vm);
        let table = syscall_table(&s, vm.memory()).unwrap();
        assert_eq!(table[42], 0xbad);
        assert_eq!(table[41], Kernel::good_syscall_handler(41));
    }

    #[test]
    fn task_by_pid_finds_and_misses() {
        let mut vm = vm();
        let pid = vm.spawn_process("target", 7, 4).unwrap();
        let s = session(&vm);
        let t = task_by_pid(&s, vm.memory(), pid).unwrap();
        assert_eq!(t.comm, "target");
        assert_eq!(t.uid, 7);
        assert_eq!(
            task_by_pid(&s, vm.memory(), 9999),
            Err(VmiError::NoSuchTask(9999))
        );
    }

    #[test]
    fn exited_process_disappears_from_both_views() {
        let mut vm = vm();
        let pid = vm.spawn_process("gone", 0, 4).unwrap();
        vm.exit_process(pid).unwrap();
        let s = session(&vm);
        assert!(!process_list(&s, vm.memory())
            .unwrap()
            .iter()
            .any(|t| t.pid == pid));
        assert!(!pid_hash_entries(&s, vm.memory())
            .unwrap()
            .iter()
            .any(|e| e.pid == pid));
    }

    #[test]
    fn module_scan_sees_hidden_modules() {
        let mut vm = vm();
        vm.load_module("ext4", 0x1000).unwrap();
        vm.load_module("rootkit_lkm", 0x666).unwrap();
        vm.hide_module("rootkit_lkm").unwrap();
        let s = session(&vm);
        // The list walk is blind…
        let listed = module_list(&s, vm.memory()).unwrap();
        assert!(!listed.iter().any(|m| m.name == "rootkit_lkm"));
        // …the slab scan is not.
        let scanned = module_scan(&s, vm.memory()).unwrap();
        assert!(scanned.iter().any(|m| m.module.name == "rootkit_lkm"));
        assert!(scanned.iter().any(|m| m.module.name == "ext4"));
    }

    #[test]
    fn module_scan_skips_unloaded_slots() {
        let mut vm = vm();
        vm.load_module("ext4", 0x1000).unwrap();
        vm.unload_module("ext4").unwrap();
        let s = session(&vm);
        assert!(module_scan(&s, vm.memory()).unwrap().is_empty());
    }

    #[test]
    fn process_list_survives_churn() {
        let mut vm = vm();
        let mut pids = Vec::new();
        for i in 0..20 {
            pids.push(vm.spawn_process(&format!("p{i}"), 0, 1).unwrap());
        }
        for pid in pids.iter().step_by(2) {
            vm.exit_process(*pid).unwrap();
        }
        let s = session(&vm);
        let tasks = process_list(&s, vm.memory()).unwrap();
        assert_eq!(tasks.len(), 1 + 10); // swapper + surviving half
    }
}
