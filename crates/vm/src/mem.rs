//! Guest physical memory: real, page-backed storage with dirty tracking,
//! PFN→MFN translation, and write watchpoints.
//!
//! Every byte a workload, the guest "kernel", or an attack touches lives in
//! this buffer, so checkpoint copies, VMI walks and forensic scans all pay
//! genuine memory-system costs — that is what makes the reproduced
//! benchmarks meaningful.
//!
//! The PFN→MFN mapping is a seeded pseudo-random permutation rather than the
//! identity, mirroring how a real hypervisor scatters guest frames over
//! machine frames. Code that skips translation therefore reads the wrong
//! frame and fails tests, instead of silently passing.

use crimes_rng::ChaCha8Rng;

use crate::addr::{Gpa, Mfn, Pfn, PAGE_SIZE};
use crate::dirty::DirtyBitmap;
use crate::watch::{MemoryEvent, WatchSet};

/// Guest physical memory of a simulated VM.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    /// Flat storage indexed by *machine* frame: frame `mfn` occupies bytes
    /// `[mfn * PAGE_SIZE, (mfn + 1) * PAGE_SIZE)`.
    frames: Vec<u8>,
    /// `pfn_to_mfn[pfn] = mfn`, the permutation handed to the checkpointer.
    pfn_to_mfn: Vec<Mfn>,
    dirty: DirtyBitmap,
    watches: WatchSet,
    /// Instruction pointer of the write currently executing, recorded into
    /// watchpoint events. Updated by the VM facade before each guest op.
    exec_rip: u64,
}

impl GuestMemory {
    /// Allocate `num_pages` pages of zeroed guest memory. The PFN→MFN
    /// permutation is derived from `seed` so whole-VM runs are
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `num_pages` is zero.
    pub fn new(num_pages: usize, seed: u64) -> Self {
        assert!(num_pages > 0, "guest memory must have at least one page");
        let mut mfns: Vec<Mfn> = (0..num_pages as u64).map(Mfn).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        rng.shuffle(&mut mfns);
        GuestMemory {
            frames: vec![0; num_pages * PAGE_SIZE],
            pfn_to_mfn: mfns,
            dirty: DirtyBitmap::new(num_pages),
            watches: WatchSet::new(),
            exec_rip: 0,
        }
    }

    /// Reassemble guest memory from a raw frame image (machine-frame
    /// order) and its PFN→MFN table — how forensic tooling turns a dump
    /// back into an addressable view.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not `pfn_to_mfn.len()` whole pages or the
    /// table is not a permutation-sized, non-empty list.
    pub fn from_raw_parts(frames: Vec<u8>, pfn_to_mfn: Vec<Mfn>) -> Self {
        assert!(
            !pfn_to_mfn.is_empty(),
            "guest memory must have at least one page"
        );
        assert_eq!(
            frames.len(),
            pfn_to_mfn.len() * PAGE_SIZE,
            "frame image must be num_pages whole pages"
        );
        let num_pages = pfn_to_mfn.len();
        GuestMemory {
            frames,
            pfn_to_mfn,
            dirty: DirtyBitmap::new(num_pages),
            watches: WatchSet::new(),
            exec_rip: 0,
        }
    }

    /// Number of guest pages.
    pub fn num_pages(&self) -> usize {
        self.pfn_to_mfn.len()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.frames.len()
    }

    /// Translate a guest frame number to its machine frame.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is out of range.
    pub fn pfn_to_mfn(&self, pfn: Pfn) -> Mfn {
        self.pfn_to_mfn[self.check_pfn(pfn)]
    }

    /// The full PFN→MFN table, used by the checkpointer's global pre-map
    /// optimisation (§4.1, Optimization 2).
    pub fn pfn_to_mfn_table(&self) -> &[Mfn] {
        &self.pfn_to_mfn
    }

    /// Read `buf.len()` bytes starting at `gpa`. Reads may cross page
    /// boundaries; the underlying frames are resolved page by page.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of guest memory.
    pub fn read(&self, gpa: Gpa, buf: &mut [u8]) {
        self.for_each_span(gpa, buf.len(), |off, frame_range, mem| {
            buf[off..off + frame_range.len()].copy_from_slice(&mem[frame_range]);
        });
    }

    /// Read a single byte.
    pub fn read_u8(&self, gpa: Gpa) -> u8 {
        let mut b = [0u8; 1];
        self.read(gpa, &mut b);
        b[0]
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, gpa: Gpa) -> u32 {
        let mut b = [0u8; 4];
        self.read(gpa, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, gpa: Gpa) -> u64 {
        let mut b = [0u8; 8];
        self.read(gpa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write `data` starting at `gpa`, marking touched pages dirty and
    /// firing any watchpoints covering the range.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of guest memory.
    pub fn write(&mut self, gpa: Gpa, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.record_watch_hits(gpa, data);
        let mut off = 0usize;
        let mut cur = gpa;
        while off < data.len() {
            let pfn = cur.pfn();
            self.check_pfn(pfn);
            let in_page = PAGE_SIZE - cur.page_offset();
            let n = in_page.min(data.len() - off);
            let mfn = self.pfn_to_mfn[pfn.0 as usize];
            let base = mfn.0 as usize * PAGE_SIZE + cur.page_offset();
            self.frames[base..base + n].copy_from_slice(&data[off..off + n]);
            self.dirty.mark(pfn);
            off += n;
            cur = cur.add(n as u64);
        }
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, gpa: Gpa, v: u32) {
        self.write(gpa, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, gpa: Gpa, v: u64) {
        self.write(gpa, &v.to_le_bytes());
    }

    /// Borrow one whole page by its *guest* frame number.
    pub fn page(&self, pfn: Pfn) -> &[u8] {
        let mfn = self.pfn_to_mfn[self.check_pfn(pfn)];
        let base = mfn.0 as usize * PAGE_SIZE;
        &self.frames[base..base + PAGE_SIZE]
    }

    /// Borrow one whole frame by its *machine* frame number — the view the
    /// hypervisor-side checkpointer works with after translation.
    ///
    /// # Panics
    ///
    /// Panics if `mfn` is out of range.
    pub fn frame(&self, mfn: Mfn) -> &[u8] {
        let base = mfn.0 as usize * PAGE_SIZE;
        assert!(
            base + PAGE_SIZE <= self.frames.len(),
            "{mfn} out of range for {} pages",
            self.num_pages()
        );
        &self.frames[base..base + PAGE_SIZE]
    }

    /// Overwrite one whole frame, bypassing dirty tracking and watchpoints.
    /// Used only by rollback/restore, which by definition resets state.
    pub fn restore_frame(&mut self, mfn: Mfn, data: &[u8]) {
        assert_eq!(data.len(), PAGE_SIZE, "restore data must be one page");
        let base = mfn.0 as usize * PAGE_SIZE;
        self.frames[base..base + PAGE_SIZE].copy_from_slice(data);
    }

    /// The dirty bitmap accumulated since it was last cleared or taken.
    pub fn dirty(&self) -> &DirtyBitmap {
        &self.dirty
    }

    /// Atomically grab and reset the dirty bitmap (checkpoint boundary).
    pub fn take_dirty(&mut self) -> DirtyBitmap {
        self.dirty.take()
    }

    /// Mark a page dirty without writing — used to model read-mostly
    /// workload pages that the guest touches via DMA or page-table bits.
    pub fn mark_dirty(&mut self, pfn: Pfn) {
        self.dirty.mark(pfn);
    }

    /// Mutable access to the watchpoint set (replay/forensics only).
    pub fn watches_mut(&mut self) -> &mut WatchSet {
        &mut self.watches
    }

    /// The watchpoint set.
    pub fn watches(&self) -> &WatchSet {
        &self.watches
    }

    /// Record the instruction pointer attributed to subsequent writes.
    pub fn set_exec_rip(&mut self, rip: u64) {
        self.exec_rip = rip;
    }

    /// Instruction pointer attributed to the write currently executing.
    pub fn exec_rip(&self) -> u64 {
        self.exec_rip
    }

    /// Copy the entire memory image into a fresh byte vector (dump /
    /// snapshot support). Returned data is laid out in *machine* frame
    /// order, matching [`GuestMemory::frame`].
    pub fn dump_frames(&self) -> Vec<u8> {
        self.frames.clone()
    }

    /// Restore the entire memory image from a dump produced by
    /// [`GuestMemory::dump_frames`]. Only frames whose content differs
    /// from the dump are rewritten: a rollback after one epoch differs in
    /// the frames that epoch wrote, not the whole guest, and the result is
    /// byte-identical to a full copy either way. Returns the number of
    /// frames rewritten.
    ///
    /// # Panics
    ///
    /// Panics if the dump size does not match this memory's size.
    pub fn restore_frames(&mut self, dump: &[u8]) -> usize {
        assert_eq!(
            dump.len(),
            self.frames.len(),
            "dump size mismatch: {} vs {}",
            dump.len(),
            self.frames.len()
        );
        let mut rewritten = 0;
        for (frame, src) in self
            .frames
            .chunks_exact_mut(PAGE_SIZE)
            .zip(dump.chunks_exact(PAGE_SIZE))
        {
            if frame != src {
                frame.copy_from_slice(src);
                rewritten += 1;
            }
        }
        rewritten
    }

    fn record_watch_hits(&mut self, gpa: Gpa, data: &[u8]) {
        if self.watches.is_empty() {
            return;
        }
        // Capture old bytes before the write for the event record.
        let first = gpa.pfn();
        let last = gpa.add(data.len() as u64 - 1).pfn();
        let mut hit = false;
        let mut p = first;
        while p.0 <= last.0 {
            if self.watches.is_watched(p) {
                hit = true;
                break;
            }
            p = p.next();
        }
        if !hit {
            return;
        }
        let mut old = vec![0u8; data.len()];
        self.read(gpa, &mut old);
        let ev = MemoryEvent {
            gpa,
            len: data.len(),
            old_bytes: old,
            new_bytes: data.to_vec(),
            rip: self.exec_rip,
        };
        self.watches.push_event(ev);
    }

    fn check_pfn(&self, pfn: Pfn) -> usize {
        let idx = pfn.0 as usize;
        assert!(
            idx < self.pfn_to_mfn.len(),
            "{pfn} out of range for {} pages",
            self.pfn_to_mfn.len()
        );
        idx
    }

    fn for_each_span(
        &self,
        gpa: Gpa,
        len: usize,
        mut f: impl FnMut(usize, std::ops::Range<usize>, &[u8]),
    ) {
        let mut off = 0usize;
        let mut cur = gpa;
        while off < len {
            let pfn = cur.pfn();
            self.check_pfn(pfn);
            let in_page = PAGE_SIZE - cur.page_offset();
            let n = in_page.min(len - off);
            let mfn = self.pfn_to_mfn[pfn.0 as usize];
            let base = mfn.0 as usize * PAGE_SIZE + cur.page_offset();
            f(off, base..base + n, &self.frames);
            off += n;
            cur = cur.add(n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> GuestMemory {
        GuestMemory::new(64, 42)
    }

    #[test]
    fn fresh_memory_is_zeroed_and_clean() {
        let m = mem();
        let mut buf = vec![0xffu8; 100];
        m.read(Gpa(0), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert!(m.dirty().is_empty());
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = mem();
        m.write(Gpa(100), b"hello crimes");
        let mut buf = vec![0u8; 12];
        m.read(Gpa(100), &mut buf);
        assert_eq!(&buf, b"hello crimes");
    }

    #[test]
    fn write_crossing_page_boundary_round_trips() {
        let mut m = mem();
        let gpa = Gpa(PAGE_SIZE as u64 - 3);
        m.write(gpa, b"boundary!");
        let mut buf = vec![0u8; 9];
        m.read(gpa, &mut buf);
        assert_eq!(&buf, b"boundary!");
        assert!(m.dirty().is_dirty(Pfn(0)));
        assert!(m.dirty().is_dirty(Pfn(1)));
    }

    #[test]
    fn writes_mark_exactly_touched_pages_dirty() {
        let mut m = mem();
        m.write(Gpa(5 * PAGE_SIZE as u64), &[1, 2, 3]);
        assert_eq!(m.dirty().count(), 1);
        assert!(m.dirty().is_dirty(Pfn(5)));
    }

    #[test]
    fn u32_u64_round_trip() {
        let mut m = mem();
        m.write_u32(Gpa(8), 0xdead_beef);
        m.write_u64(Gpa(16), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(Gpa(8)), 0xdead_beef);
        assert_eq!(m.read_u64(Gpa(16)), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn pfn_to_mfn_is_a_permutation() {
        let m = GuestMemory::new(512, 7);
        let mut seen = vec![false; 512];
        for pfn in 0..512u64 {
            let mfn = m.pfn_to_mfn(Pfn(pfn));
            assert!(!seen[mfn.0 as usize], "duplicate mfn");
            seen[mfn.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_is_not_identity() {
        // With 512 pages the odds of a random shuffle being the identity are
        // negligible; this guards against accidentally removing the shuffle.
        let m = GuestMemory::new(512, 7);
        let moved = (0..512u64).filter(|&p| m.pfn_to_mfn(Pfn(p)).0 != p).count();
        assert!(moved > 0);
    }

    #[test]
    fn same_seed_same_permutation() {
        let a = GuestMemory::new(128, 99);
        let b = GuestMemory::new(128, 99);
        assert_eq!(a.pfn_to_mfn_table(), b.pfn_to_mfn_table());
    }

    #[test]
    fn page_view_matches_written_data() {
        let mut m = mem();
        m.write(Gpa(3 * PAGE_SIZE as u64 + 10), &[9, 9, 9]);
        let page = m.page(Pfn(3));
        assert_eq!(&page[10..13], &[9, 9, 9]);
    }

    #[test]
    fn frame_view_goes_through_translation() {
        let mut m = mem();
        m.write(Gpa(2 * PAGE_SIZE as u64), &[7; 8]);
        let mfn = m.pfn_to_mfn(Pfn(2));
        assert_eq!(&m.frame(mfn)[..8], &[7; 8]);
    }

    #[test]
    fn restore_frame_does_not_dirty() {
        let mut m = mem();
        let mfn = m.pfn_to_mfn(Pfn(1));
        m.restore_frame(mfn, &[5u8; PAGE_SIZE]);
        assert!(m.dirty().is_empty());
        assert_eq!(m.page(Pfn(1))[0], 5);
    }

    #[test]
    fn take_dirty_resets_tracking() {
        let mut m = mem();
        m.write(Gpa(0), &[1]);
        let taken = m.take_dirty();
        assert_eq!(taken.count(), 1);
        assert!(m.dirty().is_empty());
    }

    #[test]
    fn dump_and_restore_round_trip() {
        let mut m = mem();
        m.write(Gpa(1234), b"persist me");
        let dump = m.dump_frames();
        m.write(Gpa(1234), b"scribbled!");
        m.restore_frames(&dump);
        let mut buf = vec![0u8; 10];
        m.read(Gpa(1234), &mut buf);
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn watchpoint_records_write_event_with_rip() {
        let mut m = mem();
        m.watches_mut().watch(Pfn(4));
        m.set_exec_rip(0x4000_1234);
        m.write(Gpa(4 * PAGE_SIZE as u64 + 8), &[0xaa, 0xbb]);
        let events = m.watches_mut().drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rip, 0x4000_1234);
        assert_eq!(events[0].new_bytes, vec![0xaa, 0xbb]);
        assert_eq!(events[0].old_bytes, vec![0, 0]);
    }

    #[test]
    fn unwatched_pages_record_nothing() {
        let mut m = mem();
        m.watches_mut().watch(Pfn(4));
        m.write(Gpa(0), &[1, 2, 3]);
        assert!(m.watches_mut().drain_events().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_past_end_panics() {
        let m = mem();
        let mut buf = [0u8; 8];
        m.read(Gpa(64 * PAGE_SIZE as u64 - 4), &mut buf);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_memory_panics() {
        GuestMemory::new(0, 1);
    }
}
