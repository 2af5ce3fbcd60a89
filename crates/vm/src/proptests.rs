//! Property tests over the substrate's lowest layers: guest memory,
//! dirty tracking, the kernel layout, and `System.map` parsing.
//!
//! Run on the in-tree [`crimes_rng::prop`] harness: each property draws
//! its inputs from a seeded [`Gen`] and failures shrink to a minimal
//! tape, reported with a `CRIMES_PROP_SEED` replay hint.

#![cfg(test)]

use crimes_rng::prop::{check, Config, Gen};

use crate::addr::{Gpa, Pfn, PAGE_SIZE};
use crate::layout::KernelLayout;
use crate::mem::GuestMemory;
use crate::symbols::SystemMap;

/// Any write anywhere (including page-straddling spans) reads back
/// exactly, and dirties exactly the pages the span covers.
#[test]
fn memory_write_read_round_trip() {
    check("memory_write_read_round_trip", Config::default(), |g: &mut Gen| {
        let offset = g.int(0u64..(64 * PAGE_SIZE as u64 - 512));
        let data = g.vec(1..512, Gen::any_u8);
        let seed = g.any_u64();

        let mut mem = GuestMemory::new(64, seed);
        let gpa = Gpa(offset);
        mem.write(gpa, &data);
        let mut back = vec![0u8; data.len()];
        mem.read(gpa, &mut back);
        assert_eq!(&back, &data);

        let first = gpa.pfn().0;
        let last = gpa.add(data.len() as u64 - 1).pfn().0;
        for pfn in 0..64u64 {
            assert_eq!(
                mem.dirty().is_dirty(Pfn(pfn)),
                (first..=last).contains(&pfn),
                "page {pfn} dirty state wrong for span {first}..{last}"
            );
        }
    });
}

/// Overlapping writes behave like writes to a flat buffer: the guest's
/// view equals a reference model regardless of the MFN permutation.
#[test]
fn memory_matches_flat_reference_model() {
    check("memory_matches_flat_reference_model", Config::default(), |g: &mut Gen| {
        let writes = g.vec(0..32, |g| {
            (
                g.int(0u64..(16 * PAGE_SIZE as u64 - 64)),
                g.vec(1..64, Gen::any_u8),
            )
        });
        let seed = g.any_u64();

        let mut mem = GuestMemory::new(16, seed);
        let mut reference = vec![0u8; 16 * PAGE_SIZE];
        for (offset, data) in &writes {
            mem.write(Gpa(*offset), data);
            reference[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
        }
        let mut all = vec![0u8; 16 * PAGE_SIZE];
        mem.read(Gpa(0), &mut all);
        assert_eq!(all, reference);
    });
}

/// `dump_frames` → `restore_frames` is an exact round trip under any
/// interleaving of writes.
#[test]
fn dump_restore_round_trips() {
    check("dump_restore_round_trips", Config::default(), |g: &mut Gen| {
        let span = 8 * PAGE_SIZE as u64 - 8;
        let before = g.vec(0..16, |g| (g.int(0..span), g.any_u64()));
        let after = g.vec(1..16, |g| (g.int(0..span), g.any_u64()));

        let mut mem = GuestMemory::new(8, 1);
        for (off, v) in &before {
            mem.write_u64(Gpa(*off), *v);
        }
        let dump = mem.dump_frames();
        for (off, v) in &after {
            mem.write_u64(Gpa(*off), !*v);
        }
        mem.restore_frames(&dump);
        let mut all = vec![0u8; 8 * PAGE_SIZE];
        mem.read(Gpa(0), &mut all);
        let mut reference = GuestMemory::new(8, 1);
        for (off, v) in &before {
            reference.write_u64(Gpa(*off), *v);
        }
        let mut expect = vec![0u8; 8 * PAGE_SIZE];
        reference.read(Gpa(0), &mut expect);
        assert_eq!(all, expect);
    });
}

/// The kernel layout never overlaps regions and always leaves user
/// pages, for any plausible guest size.
#[test]
fn layout_is_sound_for_any_size() {
    check("layout_is_sound_for_any_size", Config::default(), |g: &mut Gen| {
        let total_pages = g.int(1800usize..65536);
        let l = KernelLayout::for_pages(total_pages);
        assert!(l.user_pages() > 0);
        assert!(l.user_start.0 as usize / PAGE_SIZE <= total_pages);
        // Region bounds are monotonically increasing in layout order.
        let bounds = [
            l.syscall_table.0,
            l.modules_head.0,
            l.module_area.0,
            l.task_area.0,
            l.pid_hash.0,
            l.socket_table.0,
            l.file_table.0,
            l.canary_table.0,
            l.user_start.0,
        ];
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "regions out of order: {bounds:?}");
        }
    });
}

/// System.map parsing accepts anything `to_text` produces, for
/// arbitrary symbol sets.
#[test]
fn system_map_round_trips() {
    check("system_map_round_trips", Config::default(), |g: &mut Gen| {
        let symbols: std::collections::BTreeMap<String, u64> = (0..g.int(0usize..50))
            .map(|_| {
                // Identifier shape: [a-z_][a-z0-9_]{0,30}
                let mut name = g.ascii_string(1..2, b"abcdefghijklmnopqrstuvwxyz_");
                name.push_str(&g.ascii_string(0..31, b"abcdefghijklmnopqrstuvwxyz0123456789_"));
                (name, g.any_u64())
            })
            .collect();

        let mut m = SystemMap::new();
        for (name, addr) in &symbols {
            m.insert(name, crate::addr::Gva(*addr));
        }
        let parsed = SystemMap::parse(&m.to_text()).expect("own text must parse");
        assert_eq!(parsed, m);
    });
}

/// `Vm::restore_with_frames` rewrites only the frames that differ from
/// the image, yet leaves memory byte-identical to a full copy whether no
/// frame, some frames or every frame differs; dirty tracking and
/// watchpoints come back cleared.
#[test]
fn restore_with_frames_matches_a_full_copy() {
    let mut b = crate::Vm::builder();
    b.pages(2048).seed(9);
    let base = b.build();
    let image = base.memory().dump_frames();
    let meta = base.meta_snapshot();
    let pages = base.memory().num_pages() as u64;
    check("restore_with_frames_matches_a_full_copy", Config::with_cases(24), |g: &mut Gen| {
        let mut vm = base.clone();
        match g.int(0u8..3) {
            // No frame differs.
            0 => {}
            // Some frames differ (a write may also leave a frame as it was).
            1 => {
                for _ in 0..g.int(1usize..64) {
                    let gpa = Gpa(g.int(0..pages) * PAGE_SIZE as u64 + g.int(0..PAGE_SIZE as u64 - 8));
                    vm.memory_mut().write_u64(gpa, g.any_u64());
                }
            }
            // Every frame differs.
            _ => {
                for pfn in 0..pages {
                    let gpa = Gpa(pfn * PAGE_SIZE as u64 + g.int(0..PAGE_SIZE as u64));
                    let old = vm.memory().read_u8(gpa);
                    vm.memory_mut().write(gpa, &[!old]);
                }
            }
        }
        vm.memory_mut().watches_mut().watch(Pfn(g.int(0..pages)));
        let differing = (0..pages)
            .filter(|&mfn| {
                let at = mfn as usize * PAGE_SIZE;
                vm.memory().frame(crate::addr::Mfn(mfn)) != &image[at..at + PAGE_SIZE]
            })
            .count();
        assert_eq!(vm.memory().clone().restore_frames(&image), differing);

        vm.restore_with_frames(&image, &meta);
        assert!(vm.memory().dump_frames() == image, "memory differs from the image");
        assert!(vm.memory().dirty().is_empty());
        assert!(vm.memory().watches().is_empty());
    });
}
