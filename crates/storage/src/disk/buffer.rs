//! Pinning buffer manager with clock replacement.
//!
//! A fixed pool of page frames mediates all data-page I/O (the snapshot
//! reader/writer in [`super::durable`] goes through it). Clients pin a
//! block — faulting it in from the file manager on a miss — mutate the
//! frame image, mark it dirty with the LSN of the log record describing
//! the change, and unpin. Eviction uses the clock (second-chance)
//! algorithm over unpinned frames only; a pool where every frame is
//! pinned aborts with [`DiskError::BufferAbort`] rather than evicting
//! under someone's feet.
//!
//! **Page table.** A hash map from block to frame index makes a hit O(1)
//! whatever the pool size. Frames are allocated on first use, up to the
//! capacity, so a pool larger than the data costs only the pages it has
//! held; unmapped frames wait on a free list, lowest index first. A
//! frame is unmapped before its new block is read, so a failed read
//! leaves it free rather than claiming its old block over a zeroed page.
//!
//! **WAL discipline.** Flushing a dirty frame first calls
//! [`LogMgr::flush_before`] with the frame's recorded LSN, so a data page
//! can never reach disk ahead of the log records that explain it.
//!
//! Counters: `buffer.pins`, `buffer.hits`, `buffer.evictions`,
//! `buffer.flushes`.

use super::file::{BlockId, FileMgr, Page};
use super::log::{LogMgr, Lsn};
use super::{DiskError, DiskResult};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Metric: pin requests served. Like every physical-I/O metric in the
/// disk layer this is recorded in the racy class — cache hit rates and
/// page placement depend on pool state and worker scheduling, so these
/// totals are real but not thread-count invariant.
pub const BUFFER_PINS: &str = "buffer.pins";
/// Metric: pin requests satisfied without disk I/O.
pub const BUFFER_HITS: &str = "buffer.hits";
/// Metric: frames evicted to make room.
pub const BUFFER_EVICTIONS: &str = "buffer.evictions";
/// Metric: dirty frames written back.
pub const BUFFER_FLUSHES: &str = "buffer.flushes";

#[derive(Debug)]
struct Frame {
    page: Page,
    blk: Option<BlockId>,
    pins: u32,
    dirty: bool,
    /// LSN of the newest log record describing this frame's contents.
    lsn: Lsn,
    /// Clock reference bit: second chance before eviction.
    referenced: bool,
}

impl Frame {
    fn new(page_size: usize) -> Frame {
        Frame {
            page: Page::new(page_size),
            blk: None,
            pins: 0,
            dirty: false,
            lsn: 0,
            referenced: false,
        }
    }
}

/// Handle to a pinned frame, by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(usize);

/// A fixed pool of page frames over one [`FileMgr`].
///
/// In **no-steal** mode ([`BufferMgr::set_no_steal`]) dirty frames are
/// never eviction victims: the pool grows one frame at a time instead,
/// and [`BufferMgr::trim`] shrinks it back to the base capacity once the
/// dirty set has been checkpointed. This is what keeps the on-disk image
/// of a durable heap exactly at its last checkpoint between checkpoints.
#[derive(Debug)]
pub struct BufferMgr {
    fm: Arc<FileMgr>,
    /// Frames allocated so far, in first-use order.
    frames: Vec<Frame>,
    /// Block → index of the frame holding it; exactly the mapped frames.
    table: HashMap<BlockId, usize>,
    /// Unmapped frames, handed out lowest index first.
    free: BTreeSet<usize>,
    hand: usize,
    /// Capacity requested at construction; `trim` shrinks back to it.
    base_capacity: usize,
    /// Never evict dirty frames; grow the pool instead.
    no_steal: bool,
}

impl BufferMgr {
    /// Create a pool of `capacity` frames (at least 1).
    pub fn new(fm: Arc<FileMgr>, capacity: usize) -> DiskResult<BufferMgr> {
        if capacity == 0 {
            return Err(DiskError::Config("buffer pool capacity 0".to_string()));
        }
        Ok(BufferMgr {
            fm,
            frames: Vec::new(),
            table: HashMap::new(),
            free: BTreeSet::new(),
            hand: 0,
            base_capacity: capacity,
            no_steal: false,
        })
    }

    /// Frames the pool may hold: its base capacity, or more after
    /// no-steal growth.
    pub fn capacity(&self) -> usize {
        self.frames.len().max(self.base_capacity)
    }

    /// Page size of the underlying file manager.
    pub fn page_size(&self) -> usize {
        self.fm.page_size()
    }

    /// The file manager this pool reads and writes through.
    pub fn file_mgr(&self) -> &Arc<FileMgr> {
        &self.fm
    }

    /// Number of frames currently pinned at least once.
    pub fn pinned(&self) -> usize {
        self.frames.iter().filter(|f| f.pins > 0).count()
    }

    /// Enable/disable no-steal replacement: with it on, dirty frames are
    /// never evicted — the pool grows by one frame when no clean victim
    /// exists, so un-checkpointed changes can only live in RAM.
    pub fn set_no_steal(&mut self, on: bool) {
        self.no_steal = on;
    }

    /// The frame holding `blk`, if it is resident (pinned or not).
    pub fn lookup(&self, blk: &BlockId) -> Option<FrameId> {
        self.table.get(blk).map(|&i| FrameId(i))
    }

    /// Every resident block with its frame, in frame order.
    pub fn resident(&self) -> Vec<(BlockId, FrameId)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.blk.clone().map(|b| (b, FrameId(i))))
            .collect()
    }

    /// Blocks currently held in dirty frames, in block order.
    pub fn dirty_blocks(&self) -> Vec<BlockId> {
        let mut blks: Vec<BlockId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .filter_map(|f| f.blk.clone())
            .collect();
        blks.sort();
        blks
    }

    /// Drop clean, unpinned frames until the pool is back at its base
    /// capacity (a no-op while it is not above it). Outstanding
    /// [`FrameId`]s are invalidated, so callers only trim at quiescent
    /// points — after a checkpoint, with nothing pinned.
    pub fn trim(&mut self) {
        let mut i = self.frames.len();
        while self.frames.len() > self.base_capacity && i > 0 {
            i -= 1;
            if self.frames[i].pins == 0 && !self.frames[i].dirty {
                self.frames.remove(i);
            }
        }
        self.hand = 0;
        // Removal shifted frame indexes: rebuild the page table.
        self.table.clear();
        self.free.clear();
        for (i, f) in self.frames.iter().enumerate() {
            match &f.blk {
                Some(blk) => {
                    self.table.insert(blk.clone(), i);
                }
                None => {
                    self.free.insert(i);
                }
            }
        }
    }

    /// Pin `blk` into a frame, reading it from disk on a miss. Evicting a
    /// victim flushes it first (honoring WAL order via `log`). Fails with
    /// [`DiskError::BufferAbort`] when every frame is pinned.
    pub fn pin(&mut self, blk: &BlockId, log: Option<&mut LogMgr>) -> DiskResult<FrameId> {
        dbpc_obs::racy(BUFFER_PINS, 1);
        if let Some(&i) = self.table.get(blk) {
            dbpc_obs::racy(BUFFER_HITS, 1);
            self.frames[i].pins += 1;
            self.frames[i].referenced = true;
            return Ok(FrameId(i));
        }
        let i = self.victim()?;
        if self.frames[i].blk.is_some() {
            dbpc_obs::racy(BUFFER_EVICTIONS, 1);
        }
        self.flush_frame(i, log)?;
        let frame = &mut self.frames[i];
        if let Some(old) = frame.blk.take() {
            self.table.remove(&old);
        }
        if let Err(e) = self.fm.read(blk, &mut frame.page) {
            self.free.insert(i);
            return Err(e);
        }
        frame.blk = Some(blk.clone());
        self.table.insert(blk.clone(), i);
        frame.pins = 1;
        frame.dirty = false;
        frame.lsn = 0;
        frame.referenced = true;
        Ok(FrameId(i))
    }

    /// Clock sweep for an unpinned victim frame. In no-steal mode dirty
    /// frames are also skipped, and an exhausted sweep grows the pool by
    /// one frame instead of aborting.
    fn victim(&mut self) -> DiskResult<usize> {
        // First preference: the lowest frame holding no block, allocated
        // or not.
        if let Some(i) = self.free.pop_first() {
            return Ok(i);
        }
        if self.frames.len() < self.base_capacity {
            return Ok(self.new_frame());
        }
        // Two full sweeps: the first clears reference bits, the second
        // must then find any eligible frame if one exists.
        for _ in 0..self.frames.len() * 2 {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[i];
            if f.pins > 0 || (self.no_steal && f.dirty) {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Ok(i);
        }
        if self.no_steal {
            return Ok(self.new_frame());
        }
        Err(DiskError::BufferAbort {
            capacity: self.frames.len(),
        })
    }

    fn new_frame(&mut self) -> usize {
        self.frames.push(Frame::new(self.fm.page_size()));
        self.frames.len() - 1
    }

    fn check(&self, id: FrameId) -> DiskResult<()> {
        match self.frames.get(id.0) {
            Some(f) if f.pins > 0 => Ok(()),
            _ => Err(DiskError::Config(format!("frame {} not pinned", id.0))),
        }
    }

    /// Read the pinned frame's page image.
    pub fn page(&self, id: FrameId) -> DiskResult<&Page> {
        self.check(id)?;
        Ok(&self.frames[id.0].page)
    }

    /// Mutate the pinned frame's page image. The caller must follow up
    /// with [`BufferMgr::mark_dirty`] for the change to ever be written.
    pub fn page_mut(&mut self, id: FrameId) -> DiskResult<&mut Page> {
        self.check(id)?;
        Ok(&mut self.frames[id.0].page)
    }

    /// Record that the frame was modified, described by log record `lsn`
    /// (0 for changes outside the log, e.g. snapshot bulk writes that are
    /// fenced by a manifest instead).
    pub fn mark_dirty(&mut self, id: FrameId, lsn: Lsn) -> DiskResult<()> {
        self.check(id)?;
        let f = &mut self.frames[id.0];
        f.dirty = true;
        f.lsn = f.lsn.max(lsn);
        Ok(())
    }

    /// Release one pin. Unpinning an unpinned frame is an error.
    pub fn unpin(&mut self, id: FrameId) -> DiskResult<()> {
        self.check(id)?;
        self.frames[id.0].pins -= 1;
        Ok(())
    }

    fn flush_frame(&mut self, i: usize, log: Option<&mut LogMgr>) -> DiskResult<()> {
        let (dirty, lsn) = (self.frames[i].dirty, self.frames[i].lsn);
        if !dirty {
            return Ok(());
        }
        if let Some(log) = log {
            log.flush_before(lsn)?;
        } else if lsn > 0 {
            return Err(DiskError::Config(
                "flushing a logged page without a log manager".to_string(),
            ));
        }
        let blk = self.frames[i]
            .blk
            .clone()
            .ok_or_else(|| DiskError::Config("dirty frame with no block".to_string()))?;
        self.fm.write(&blk, &self.frames[i].page)?;
        self.frames[i].dirty = false;
        dbpc_obs::racy(BUFFER_FLUSHES, 1);
        Ok(())
    }

    /// Write back every dirty frame (honoring WAL order), leaving pins
    /// untouched. Does not fsync — the caller owns the sync boundary.
    pub fn flush_all(&mut self, mut log: Option<&mut LogMgr>) -> DiskResult<()> {
        for i in 0..self.frames.len() {
            self.flush_frame(i, log.as_deref_mut())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;

    fn setup(cap: usize) -> (TempDir, BufferMgr) {
        let dir = TempDir::new("buffer").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        let bm = BufferMgr::new(fm, cap).unwrap();
        (dir, bm)
    }

    #[test]
    fn pin_mutate_flush_round_trips() {
        let (_dir, mut bm) = setup(2);
        let blk = BlockId::new("data", 0);
        let id = bm.pin(&blk, None).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"buffered").unwrap();
        bm.mark_dirty(id, 0).unwrap();
        bm.unpin(id).unwrap();
        bm.flush_all(None).unwrap();

        // Force the frame out, then re-pin: bytes must come back from disk.
        for n in 1..=2 {
            let id = bm.pin(&BlockId::new("data", n), None).unwrap();
            bm.unpin(id).unwrap();
        }
        let id = bm.pin(&blk, None).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 8).unwrap(), b"buffered");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn fully_pinned_pool_aborts_instead_of_evicting() {
        let (_dir, mut bm) = setup(2);
        let a = bm.pin(&BlockId::new("data", 0), None).unwrap();
        let _b = bm.pin(&BlockId::new("data", 1), None).unwrap();
        let err = bm.pin(&BlockId::new("data", 2), None).unwrap_err();
        assert!(matches!(err, DiskError::BufferAbort { capacity: 2 }));
        bm.unpin(a).unwrap();
        // Now there is a victim.
        bm.pin(&BlockId::new("data", 2), None).unwrap();
    }

    #[test]
    fn eviction_writes_dirty_victim_back() {
        let (_dir, mut bm) = setup(1);
        let blk0 = BlockId::new("data", 0);
        let id = bm.pin(&blk0, None).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"victim").unwrap();
        bm.mark_dirty(id, 0).unwrap();
        bm.unpin(id).unwrap();

        // Pinning another block evicts frame 0, flushing it.
        let id = bm.pin(&BlockId::new("data", 1), None).unwrap();
        bm.unpin(id).unwrap();
        let id = bm.pin(&blk0, None).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 6).unwrap(), b"victim");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn stale_frame_ids_are_rejected() {
        let (_dir, mut bm) = setup(1);
        let id = bm.pin(&BlockId::new("data", 0), None).unwrap();
        bm.unpin(id).unwrap();
        assert!(bm.page(id).is_err());
        assert!(bm.unpin(id).is_err());
        assert!(bm.mark_dirty(id, 0).is_err());
    }

    #[test]
    fn failed_read_leaves_the_victim_reloadable_and_its_frame_free() {
        let (dir, mut bm) = setup(1);
        let blk = BlockId::new("data", 0);
        let id = bm.pin(&blk, None).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"survivor").unwrap();
        bm.mark_dirty(id, 0).unwrap();
        bm.unpin(id).unwrap();

        // Two reads that fail after the victim was evicted (and, the first
        // time, flushed): one the file manager cannot open (a directory),
        // one it opens but cannot read (an offset past the largest the OS
        // accepts), which zero-fills the frame's page before it fails.
        std::fs::create_dir(dir.path().join("subdir")).unwrap();
        let bad = [
            BlockId::new("subdir", 0),
            BlockId::new("data", (1u64 << 63) / 128 + 1),
        ];
        for bad in &bad {
            assert!(matches!(bm.pin(bad, None), Err(DiskError::Io { .. })));
            assert!(bm.lookup(bad).is_none());
            assert!(bm.lookup(&blk).is_none(), "victim still mapped");
            assert_eq!(bm.pinned(), 0);

            // The old block reads back its flushed bytes, into the frame
            // the failed pin gave back.
            let id = bm.pin(&blk, None).unwrap();
            assert_eq!(bm.page(id).unwrap().read_at(0, 8).unwrap(), b"survivor");
            assert_eq!(bm.lookup(&blk), Some(id));
            bm.unpin(id).unwrap();
        }
        assert_eq!(bm.capacity(), 1);
    }

    #[test]
    fn repinning_counts_nested_pins() {
        let (_dir, mut bm) = setup(2);
        let blk = BlockId::new("data", 0);
        let a = bm.pin(&blk, None).unwrap();
        let b = bm.pin(&blk, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(bm.pinned(), 1);
        bm.unpin(a).unwrap();
        // Still pinned once: not evictable.
        assert_eq!(bm.pinned(), 1);
        bm.unpin(b).unwrap();
        assert_eq!(bm.pinned(), 0);
    }
}
