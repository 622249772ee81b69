//! Slotted-page heap files under the buffer pool.
//!
//! A [`HeapFile`] stores variable-length record payloads in fixed-size
//! pages mediated by a [`BufferMgr`], addressed by stable
//! [`HeapId`]`{ block, slot }` handles. Each page carries:
//!
//! ```text
//! [0]        kind tag: 0x00 virgin, 0xA5 slotted, 0xB7 overflow
//! [1..3]     u16 nslots          (slotted pages)
//! [3..5]     u16 free_ptr        (start of the data area, grows down)
//! [5..]      slot directory: nslots × (u16 off, u16 len); off 0 = free
//! [free_ptr..page] record payloads, allocated high-to-low
//! ```
//!
//! Payloads that do not fit a page inline spill into **overflow chains**:
//! the slot keeps a small stub (`0x01` marker + total length + first
//! block) and the bytes live in dedicated `0xB7` blocks of shape
//! `[kind][u32 next][u16 chunk_len][chunk]`, linked until `next == 0`.
//! Erased overflow blocks are zeroed back to virgin and recycled.
//!
//! Two structures are RAM-resident and rebuilt by [`HeapFile::open`]'s
//! page scan rather than persisted: the **free-space map** (per-block
//! free and dead byte counts, driving first-fit placement with in-page
//! compaction when a page's free space is fragmented) and the virgin
//! block free list. Placement is deterministic — the lowest block that
//! fits, found in O(log pages) by a max segment tree over each block's
//! room — so identical operation sequences produce identical files.
//! Reading a slot (directory entry and body) takes one pin, and pins
//! reuse one [`BlockId`] key rather than building one per pin.
//!
//! The heap marks frames dirty with LSN 0: its crash consistency is
//! fenced by the owner's checkpoint protocol (see `disk::durable`), not
//! by per-page WAL coupling.

use super::buffer::{BufferMgr, FrameId};
use super::file::{BlockId, FileMgr, Page};
use super::{DiskError, DiskResult};
use std::sync::Arc;

/// Page kind tags (byte 0 of every block).
const KIND_VIRGIN: u8 = 0x00;
const KIND_SLOTTED: u8 = 0xA5;
const KIND_OVERFLOW: u8 = 0xB7;

/// Slotted-page header: kind + nslots + free_ptr.
const HDR: usize = 5;
/// Bytes per slot-directory entry (u16 off, u16 len).
const SLOT: usize = 4;
/// Overflow-page header: kind + next block (u32) + chunk length (u16).
const OVF_HDR: usize = 7;

/// Payload markers (first byte of every stored slot body).
const INLINE: u8 = 0x00;
const SPILLED: u8 = 0x01;
/// Slot body of a spilled record: marker + u32 total len + u32 first blk.
const STUB: usize = 9;
/// Overflow-chain terminator (block numbers are real from 0 up).
const NO_BLOCK: u32 = u32::MAX;

/// Stable handle to one stored payload: block number and slot index.
/// Handles survive in-page compaction (slots rebind to moved bytes) and
/// in-place updates; only an update that no longer fits its page returns
/// a fresh handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapId {
    pub block: u32,
    pub slot: u16,
}

impl std::fmt::Display for HeapId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.block, self.slot)
    }
}

/// Physical occupancy statistics, published as `heap.*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Total blocks in the file (slotted + overflow + recycled virgin).
    pub pages: u64,
    /// Live records (inline or spilled), i.e. live slots.
    pub records: u64,
    /// Sum of live payload lengths (markers, stubs, and page headers
    /// excluded — this is the caller's bytes, not the file's).
    pub live_bytes: u64,
    /// Fill factor in percent: live bytes over total file bytes.
    pub fill_pct: u64,
}

/// Per-slotted-page free-space map entry (all zero for other blocks).
#[derive(Debug, Clone, Copy, Default)]
struct PageSpace {
    /// Contiguous free bytes between the slot directory and `free_ptr`.
    free: u16,
    /// Dead bytes inside the data area (erased payloads), reclaimable by
    /// in-page compaction.
    dead: u16,
    /// Slots currently free for reuse (off == 0).
    free_slots: u16,
}

impl PageSpace {
    /// Largest body the page can take, compaction allowed: free plus
    /// dead bytes, less a new directory entry when no slot is free.
    /// Negative when not even an empty body fits.
    fn room(self) -> i32 {
        let entry = if self.free_slots > 0 { 0 } else { SLOT as i32 };
        i32::from(self.free) + i32::from(self.dead) - entry
    }
}

/// Max segment tree over per-block room: the lowest block whose room is
/// at least a given need, in O(log blocks). Blocks never set (overflow,
/// virgin) hold `i32::MIN` and never fit.
#[derive(Debug, Default)]
struct FitTree {
    /// Leaf count, a power of two (0 when empty).
    leaves: usize,
    /// `node[1]` is the root; leaf `b` is `node[leaves + b]`.
    node: Vec<i32>,
}

impl FitTree {
    fn set(&mut self, b: usize, room: i32) {
        if b >= self.leaves {
            self.grow(b + 1);
        }
        let mut i = self.leaves + b;
        self.node[i] = room;
        while i > 1 {
            i /= 2;
            self.node[i] = self.node[2 * i].max(self.node[2 * i + 1]);
        }
    }

    /// Re-size to at least `n` leaves, keeping the current ones.
    fn grow(&mut self, n: usize) {
        let leaves = n.next_power_of_two();
        let mut node = vec![i32::MIN; 2 * leaves];
        node[leaves..leaves + self.leaves].copy_from_slice(&self.node[self.leaves..]);
        for i in (1..leaves).rev() {
            node[i] = node[2 * i].max(node[2 * i + 1]);
        }
        self.leaves = leaves;
        self.node = node;
    }

    fn first_fit(&self, need: i32) -> Option<usize> {
        if self.leaves == 0 || self.node[1] < need {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            i = if self.node[2 * i] >= need {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.leaves)
    }
}

/// A heap file: slotted record pages + overflow chains in one paged file.
#[derive(Debug)]
pub struct HeapFile {
    bm: BufferMgr,
    file: String,
    /// Pin key, re-pointed at each block pinned so pins allocate nothing.
    key: BlockId,
    /// Number of blocks currently in the file.
    blocks: u32,
    /// Free-space map, indexed by block.
    space: Vec<PageSpace>,
    /// Room of every slotted page, for first-fit placement.
    rooms: FitTree,
    /// Virgin blocks (erased overflow pages) available for reuse.
    virgin: Vec<u32>,
    /// Live record count.
    records: u64,
    /// Live payload bytes.
    live_bytes: u64,
}

impl HeapFile {
    /// Open (or create) heap file `file` with a pool of `pool` frames.
    /// Existing pages are scanned once to rebuild the free-space map.
    pub fn open(fm: Arc<FileMgr>, file: impl Into<String>, pool: usize) -> DiskResult<HeapFile> {
        let file = file.into();
        let blocks = u32::try_from(fm.block_count(&file)?)
            .map_err(|_| DiskError::Config(format!("heap {file} exceeds u32 blocks")))?;
        let bm = BufferMgr::new(fm, pool)?;
        let mut heap = HeapFile {
            bm,
            key: BlockId::new(file.clone(), 0),
            file,
            blocks,
            space: Vec::new(),
            rooms: FitTree::default(),
            virgin: Vec::new(),
            records: 0,
            live_bytes: 0,
        };
        heap.rescan()?;
        Ok(heap)
    }

    /// Rebuild the free-space map, virgin list, and occupancy counters by
    /// scanning every page. Also used after recovery rolls pages back.
    pub fn rescan(&mut self) -> DiskResult<()> {
        self.space.clear();
        self.rooms = FitTree::default();
        self.virgin.clear();
        self.records = 0;
        self.live_bytes = 0;
        for b in 0..self.blocks {
            let (kind, entries, live_bytes) = self.with_page(b, |page| {
                let kind = page.as_slice()[0];
                if kind != KIND_SLOTTED {
                    return Ok((kind, Vec::new(), 0));
                }
                let entries = slot_entries(page)?;
                let mut live_bytes = 0;
                for &(off, len) in entries.iter().filter(|(off, _)| *off != 0) {
                    let body = page.read_at(off as usize, len as usize)?;
                    live_bytes += match body.first() {
                        Some(&SPILLED) => parse_stub(body)?.0 as u64,
                        _ => u64::from(len).saturating_sub(1),
                    };
                }
                Ok((kind, entries, live_bytes))
            })?;
            match kind {
                KIND_VIRGIN => self.virgin.push(b),
                KIND_OVERFLOW => {}
                KIND_SLOTTED => {
                    self.records += entries.iter().filter(|(off, _)| *off != 0).count() as u64;
                    self.live_bytes += live_bytes;
                    self.recompute_space(b, &entries);
                }
                other => {
                    return Err(DiskError::Corrupt(format!(
                        "heap {}[{b}]: unknown page kind 0x{other:02x}",
                        self.file
                    )))
                }
            }
        }
        Ok(())
    }

    /// The underlying buffer pool (for policy flips, flushes, and dirty
    /// tracking by the durable owner).
    pub fn buffer(&mut self) -> &mut BufferMgr {
        &mut self.bm
    }

    /// Physical statistics for gauges and benches.
    pub fn stats(&self) -> HeapStats {
        let page = self.page_size() as u64;
        let total = u64::from(self.blocks) * page;
        HeapStats {
            pages: u64::from(self.blocks),
            records: self.records,
            live_bytes: self.live_bytes,
            fill_pct: (self.live_bytes * 100).checked_div(total).unwrap_or(0),
        }
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.blocks) * self.page_size() as u64
    }

    fn page_size(&self) -> usize {
        self.bm.page_size()
    }

    /// Largest payload stored inline; anything bigger spills.
    fn inline_max(&self) -> usize {
        // A fresh page must hold the marker + payload after header + slot.
        self.page_size() - HDR - SLOT - 1
    }

    fn pin(&mut self, b: u32) -> DiskResult<FrameId> {
        self.key.num = u64::from(b);
        self.bm.pin(&self.key, None)
    }

    /// Pin block `b`, run `f` on its page, unpin. Read-only.
    fn with_page<T>(&mut self, b: u32, f: impl FnOnce(&Page) -> DiskResult<T>) -> DiskResult<T> {
        let fid = self.pin(b)?;
        let out = f(self.bm.page(fid)?);
        self.bm.unpin(fid)?;
        out
    }

    /// Pin block `b`, run `f` mutably on its page, mark dirty, unpin.
    fn with_page_mut<T>(
        &mut self,
        b: u32,
        f: impl FnOnce(&mut Page) -> DiskResult<T>,
    ) -> DiskResult<T> {
        let fid = self.pin(b)?;
        let out = f(self.bm.page_mut(fid)?);
        if out.is_ok() {
            self.bm.mark_dirty(fid, 0)?;
        }
        self.bm.unpin(fid)?;
        out
    }

    /// Append a fresh block (or recycle a virgin one) and return its id.
    fn alloc_block(&mut self, kind: u8) -> DiskResult<u32> {
        let b = match self.virgin.pop() {
            Some(b) => b,
            None => {
                let b = self.blocks;
                self.blocks = self
                    .blocks
                    .checked_add(1)
                    .ok_or_else(|| DiskError::Config("heap grew past u32 blocks".to_string()))?;
                b
            }
        };
        self.with_page_mut(b, |page| {
            page.zero();
            page.as_mut_slice()[0] = kind;
            Ok(())
        })?;
        Ok(b)
    }

    fn set_space(&mut self, b: u32, sp: PageSpace) {
        let i = b as usize;
        if i >= self.space.len() {
            self.space.resize(i + 1, PageSpace::default());
        }
        self.space[i] = sp;
        self.rooms.set(i, sp.room());
    }

    fn recompute_space(&mut self, b: u32, entries: &[(u16, u16)]) {
        let ps = self.page_size() as u16;
        let n = entries.len() as u16;
        let free_ptr = lowest_live(entries, ps);
        let dir_end = HDR as u16 + n * SLOT as u16;
        let live: u16 = entries
            .iter()
            .filter(|(off, _)| *off != 0)
            .map(|(_, len)| *len)
            .sum();
        let free_slots = entries.iter().filter(|(off, _)| *off == 0).count() as u16;
        self.set_space(
            b,
            PageSpace {
                free: free_ptr - dir_end,
                dead: (ps - free_ptr) - live,
                free_slots,
            },
        );
    }

    /// The lowest slotted page able to take a body of `need` bytes, and
    /// whether its free space must be compacted first.
    fn fit(&self, need: u16) -> Option<(u32, bool)> {
        let b = self.rooms.first_fit(i32::from(need))?;
        let sp = self.space[b];
        let cost = if sp.free_slots > 0 {
            need
        } else {
            need + SLOT as u16
        };
        Some((b as u32, sp.free < cost))
    }

    /// Where [`HeapFile::insert`] would put a payload of `len` bytes: the
    /// slotted block and whether that page is compacted first, or `None`
    /// when the insert opens a new page.
    pub fn placement(&self, len: usize) -> Option<(u32, bool)> {
        let need = if len <= self.inline_max() {
            len + 1
        } else {
            STUB
        };
        self.fit(need as u16)
    }

    /// Find (or create) a slotted page able to take `need` payload bytes,
    /// compacting a fragmented page in place when that suffices. First
    /// fit in block order keeps placement deterministic.
    fn place(&mut self, need: u16) -> DiskResult<u32> {
        if let Some((b, compact)) = self.fit(need) {
            if compact {
                self.compact(b)?;
            }
            return Ok(b);
        }
        let b = self.alloc_block(KIND_SLOTTED)?;
        let ps = self.page_size() as u16;
        self.with_page_mut(b, |page| {
            write_u16(page, 3, ps) // free_ptr = page end
        })?;
        self.set_space(
            b,
            PageSpace {
                free: ps - HDR as u16,
                dead: 0,
                free_slots: 0,
            },
        );
        Ok(b)
    }

    /// Slide live payloads of page `b` to the high end, turning dead
    /// bytes into contiguous free space. Slot offsets rebind, so
    /// [`HeapId`]s are unaffected.
    fn compact(&mut self, b: u32) -> DiskResult<()> {
        let entries = self.with_page_mut(b, |page| {
            let ps = page.size();
            let mut entries = slot_entries(page)?;
            // Move highest-offset payloads first so writes never overlap
            // unmoved live bytes.
            let mut order: Vec<usize> = (0..entries.len()).filter(|&s| entries[s].0 != 0).collect();
            order.sort_by_key(|&s| std::cmp::Reverse(entries[s].0));
            let mut top = ps as u16;
            for s in order {
                let (off, len) = entries[s];
                top -= len;
                if top != off {
                    let bytes = page.read_at(off as usize, len as usize)?.to_vec();
                    page.write_at(top as usize, &bytes)?;
                    write_u16(page, HDR + s * SLOT, top)?;
                }
                entries[s].0 = top;
            }
            write_u16(page, 3, top)?;
            Ok(entries)
        })?;
        self.recompute_space(b, &entries);
        Ok(())
    }

    /// Carve `len` bytes out of page `b`'s data area and bind them to a
    /// slot (reusing a free slot when one exists). Returns the handle;
    /// the caller writes the body via the returned offset.
    fn bind_slot(&mut self, b: u32, body: &[u8]) -> DiskResult<HeapId> {
        let len = body.len() as u16;
        let (slot, entries) = self.with_page_mut(b, |page| {
            let n = read_u16(page, 1)? as usize;
            let free_ptr = read_u16(page, 3)?;
            let slot = (0..n).find(|&s| matches!(read_u16(page, HDR + s * SLOT), Ok(0)));
            let off = free_ptr - len;
            page.write_at(off as usize, body)?;
            write_u16(page, 3, off)?;
            let s = match slot {
                Some(s) => s,
                None => {
                    write_u16(page, 1, n as u16 + 1)?;
                    n
                }
            };
            write_u16(page, HDR + s * SLOT, off)?;
            write_u16(page, HDR + s * SLOT + 2, len)?;
            Ok((s as u16, slot_entries(page)?))
        })?;
        self.recompute_space(b, &entries);
        Ok(HeapId { block: b, slot })
    }

    /// Store `payload`, returning its stable handle.
    pub fn insert(&mut self, payload: &[u8]) -> DiskResult<HeapId> {
        let body = if payload.len() <= self.inline_max() {
            let mut body = Vec::with_capacity(payload.len() + 1);
            body.push(INLINE);
            body.extend_from_slice(payload);
            body
        } else {
            self.spill_stub(payload)?
        };
        let b = self.place(body.len() as u16)?;
        let id = self.bind_slot(b, &body)?;
        self.records += 1;
        self.live_bytes += payload.len() as u64;
        Ok(id)
    }

    /// Write `payload` into an overflow chain, returning the slot stub.
    fn spill_stub(&mut self, payload: &[u8]) -> DiskResult<Vec<u8>> {
        let chunk_max = self.page_size() - OVF_HDR;
        let mut chunks: Vec<&[u8]> = payload.chunks(chunk_max).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let blocks: Vec<u32> = chunks
            .iter()
            .map(|_| self.alloc_block(KIND_OVERFLOW))
            .collect::<DiskResult<_>>()?;
        for (i, chunk) in chunks.iter().enumerate() {
            let next = blocks.get(i + 1).copied().unwrap_or(NO_BLOCK);
            self.with_page_mut(blocks[i], |page| {
                page.as_mut_slice()[0] = KIND_OVERFLOW;
                write_u32(page, 1, next)?;
                write_u16(page, 5, chunk.len() as u16)?;
                page.write_at(OVF_HDR, chunk)
            })?;
        }
        let mut stub = Vec::with_capacity(STUB);
        stub.push(SPILLED);
        stub.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stub.extend_from_slice(&blocks[0].to_le_bytes());
        Ok(stub)
    }

    /// Offset and body bytes of the live slot `id`, read under one pin
    /// after verifying the page kind and the slot number.
    fn slot(&mut self, id: HeapId) -> DiskResult<(u16, Vec<u8>)> {
        if id.block >= self.blocks {
            return Err(DiskError::State(format!(
                "heap {}: block {} out of range",
                self.file, id.block
            )));
        }
        let found = self.with_page(id.block, |page| {
            if page.as_slice()[0] != KIND_SLOTTED {
                return Err(DiskError::State(format!(
                    "heap: {id} does not address a slotted page"
                )));
            }
            if id.slot >= read_u16(page, 1)? {
                return Err(DiskError::State(format!("heap: no slot {id}")));
            }
            let off = read_u16(page, HDR + id.slot as usize * SLOT)?;
            if off == 0 {
                return Ok(None);
            }
            let len = read_u16(page, HDR + id.slot as usize * SLOT + 2)?;
            Ok(Some((
                off,
                page.read_at(off as usize, len as usize)?.to_vec(),
            )))
        })?;
        found.ok_or_else(|| {
            DiskError::State(format!("heap {}: read of erased slot {id}", self.file))
        })
    }

    /// Fetch the payload stored at `id`.
    pub fn get(&mut self, id: HeapId) -> DiskResult<Vec<u8>> {
        let (_, mut body) = self.slot(id)?;
        match body.first() {
            Some(&INLINE) => {
                body.remove(0);
                Ok(body)
            }
            Some(&SPILLED) => {
                let (total, first) = parse_stub(&body)?;
                let mut out = Vec::with_capacity(total);
                let mut b = first;
                while b != NO_BLOCK {
                    b = self.with_page(b, |page| {
                        if page.as_slice()[0] != KIND_OVERFLOW {
                            return Err(DiskError::Corrupt(format!(
                                "heap: overflow chain of {id} hit non-overflow block {b}"
                            )));
                        }
                        let clen = read_u16(page, 5)? as usize;
                        out.extend_from_slice(page.read_at(OVF_HDR, clen)?);
                        read_u32(page, 1)
                    })?;
                }
                if out.len() != total {
                    return Err(DiskError::Corrupt(format!(
                        "heap: overflow chain of {id} yielded {} bytes, stub said {total}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            _ => Err(DiskError::Corrupt(format!("heap: {id} has no marker byte"))),
        }
    }

    /// Free the slot at `id` (and any overflow chain hanging off it).
    pub fn erase(&mut self, id: HeapId) -> DiskResult<()> {
        let (_, body) = self.slot(id)?;
        self.release_body(&body)?;
        self.release_slot(id)?;
        self.records -= 1;
        Ok(())
    }

    /// Drop the live bytes of an erased or replaced slot body, freeing its
    /// overflow chain if it spilled.
    fn release_body(&mut self, body: &[u8]) -> DiskResult<()> {
        if let Some(&SPILLED) = body.first() {
            let (total, first) = parse_stub(body)?;
            self.free_chain(first)?;
            self.live_bytes -= total as u64;
        } else {
            self.live_bytes -= (body.len() as u64).saturating_sub(1);
        }
        Ok(())
    }

    /// Clear slot `id`'s directory entry (the slot number stays
    /// allocated, free for reuse) and refresh the page's free space.
    fn release_slot(&mut self, id: HeapId) -> DiskResult<()> {
        let entries = self.with_page_mut(id.block, |page| {
            write_u16(page, HDR + id.slot as usize * SLOT, 0)?;
            write_u16(page, HDR + id.slot as usize * SLOT + 2, 0)?;
            let entries = slot_entries(page)?;
            // free_ptr may now sit below the lowest live payload: raise
            // it, so the gap counts as free rather than dead.
            write_u16(page, 3, lowest_live(&entries, page.size() as u16))?;
            Ok(entries)
        })?;
        self.recompute_space(id.block, &entries);
        Ok(())
    }

    /// Zero an overflow chain back to virgin blocks for reuse.
    fn free_chain(&mut self, first: u32) -> DiskResult<()> {
        let mut b = first;
        while b != NO_BLOCK {
            let next = self.with_page_mut(b, |page| {
                let next = read_u32(page, 1)?;
                page.zero();
                Ok(next)
            })?;
            self.virgin.push(b);
            b = next;
        }
        self.virgin.sort_by(|a, b| b.cmp(a)); // pop() yields lowest first
        self.virgin.dedup();
        Ok(())
    }

    /// Replace the payload at `id`. Returns the (possibly new) handle:
    /// the id is preserved whenever the new body fits its current page —
    /// in place, or after compaction — and only a page overflow relocates
    /// the record.
    pub fn update(&mut self, id: HeapId, payload: &[u8]) -> DiskResult<HeapId> {
        let (off, old_body) = self.slot(id)?;
        let inline = payload.len() <= self.inline_max();

        // Fast path: same-size inline rewrite in place.
        if inline && payload.len() + 1 == old_body.len() && old_body.first() == Some(&INLINE) {
            self.with_page_mut(id.block, |page| page.write_at(off as usize + 1, payload))?;
            return Ok(id);
        }

        // General path: erase, then try to rebind the same slot on the
        // same page before falling back to a fresh placement.
        self.release_body(&old_body)?;
        let body = if inline {
            let mut body = Vec::with_capacity(payload.len() + 1);
            body.push(INLINE);
            body.extend_from_slice(payload);
            body
        } else {
            self.spill_stub(payload)?
        };
        let need = body.len() as u16;
        // Free the old bytes (slot stays allocated to us).
        self.release_slot(id)?;
        let sp = self
            .space
            .get(id.block as usize)
            .copied()
            .unwrap_or_default();
        let new_id = if sp.free >= need {
            self.rebind(id, &body)?
        } else if sp.free + sp.dead >= need {
            self.compact(id.block)?;
            self.rebind(id, &body)?
        } else {
            // Relocation: the old slot stays behind as a free slot, the
            // record count is unchanged.
            let b = self.place(need)?;
            self.bind_slot(b, &body)?
        };
        self.live_bytes += payload.len() as u64;
        Ok(new_id)
    }

    /// Re-point slot `id.slot` of its page at freshly written `body`.
    fn rebind(&mut self, id: HeapId, body: &[u8]) -> DiskResult<HeapId> {
        let len = body.len() as u16;
        let entries = self.with_page_mut(id.block, |page| {
            let free_ptr = read_u16(page, 3)?;
            let off = free_ptr - len;
            page.write_at(off as usize, body)?;
            write_u16(page, 3, off)?;
            write_u16(page, HDR + id.slot as usize * SLOT, off)?;
            write_u16(page, HDR + id.slot as usize * SLOT + 2, len)?;
            slot_entries(page)
        })?;
        self.recompute_space(id.block, &entries);
        Ok(id)
    }

    /// Visit every live record in (block, slot) order.
    pub fn for_each(
        &mut self,
        f: &mut dyn FnMut(HeapId, Vec<u8>) -> DiskResult<()>,
    ) -> DiskResult<()> {
        for b in 0..self.blocks {
            let entries = self.with_page(b, |page| {
                if page.as_slice()[0] != KIND_SLOTTED {
                    return Ok(Vec::new());
                }
                slot_entries(page)
            })?;
            for (slot, &(off, _)) in entries.iter().enumerate() {
                if off == 0 {
                    continue;
                }
                let id = HeapId {
                    block: b,
                    slot: slot as u16,
                };
                let payload = self.get(id)?;
                f(id, payload)?;
            }
        }
        Ok(())
    }

    /// Write back every dirty frame. Does not fsync.
    pub fn flush(&mut self) -> DiskResult<()> {
        self.bm.flush_all(None)
    }
}

/// A slotted page's directory: `(off, len)` per slot, `off == 0` free.
fn slot_entries(page: &Page) -> DiskResult<Vec<(u16, u16)>> {
    let n = read_u16(page, 1)? as usize;
    (0..n)
        .map(|s| {
            Ok((
                read_u16(page, HDR + s * SLOT)?,
                read_u16(page, HDR + s * SLOT + 2)?,
            ))
        })
        .collect()
}

/// Offset of the lowest live payload (`page_size` when none is live).
fn lowest_live(entries: &[(u16, u16)], page_size: u16) -> u16 {
    entries
        .iter()
        .filter(|(off, _)| *off != 0)
        .map(|(off, _)| *off)
        .min()
        .unwrap_or(page_size)
}

fn read_u16(page: &Page, off: usize) -> DiskResult<u16> {
    let b = page.read_at(off, 2)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn write_u16(page: &mut Page, off: usize, v: u16) -> DiskResult<()> {
    page.write_at(off, &v.to_le_bytes())
}

fn read_u32(page: &Page, off: usize) -> DiskResult<u32> {
    let b = page.read_at(off, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn write_u32(page: &mut Page, off: usize, v: u32) -> DiskResult<()> {
    page.write_at(off, &v.to_le_bytes())
}

fn parse_stub(body: &[u8]) -> DiskResult<(usize, u32)> {
    if body.len() != STUB {
        return Err(DiskError::Corrupt(format!(
            "heap: spilled stub of {} bytes",
            body.len()
        )));
    }
    let total = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    let first = u32::from_le_bytes([body[5], body[6], body[7], body[8]]);
    Ok((total, first))
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;

    fn setup(page: usize, pool: usize) -> (TempDir, HeapFile) {
        let dir = TempDir::new("heap").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), page).unwrap());
        let heap = HeapFile::open(fm, "heap.dat", pool).unwrap();
        (dir, heap)
    }

    #[test]
    fn insert_get_round_trips() {
        let (_d, mut heap) = setup(128, 4);
        let a = heap.insert(b"alpha").unwrap();
        let b = heap.insert(b"bravo-longer").unwrap();
        assert_eq!(heap.get(a).unwrap(), b"alpha");
        assert_eq!(heap.get(b).unwrap(), b"bravo-longer");
        assert_eq!(heap.stats().records, 2);
    }

    #[test]
    fn erase_frees_and_reuses_space() {
        let (_d, mut heap) = setup(128, 4);
        let ids: Vec<HeapId> = (0..20)
            .map(|i| heap.insert(format!("rec-{i:02}-xxxx").as_bytes()).unwrap())
            .collect();
        let pages_before = heap.stats().pages;
        for id in &ids {
            heap.erase(*id).unwrap();
        }
        assert_eq!(heap.stats().records, 0);
        // Refilling reuses the freed space instead of growing the file.
        for i in 0..20 {
            heap.insert(format!("rec-{i:02}-xxxx").as_bytes()).unwrap();
        }
        assert_eq!(heap.stats().pages, pages_before);
    }

    #[test]
    fn update_in_place_preserves_handle() {
        let (_d, mut heap) = setup(128, 4);
        let id = heap.insert(b"0123456789").unwrap();
        let same = heap.update(id, b"abcdefghij").unwrap();
        assert_eq!(same, id);
        assert_eq!(heap.get(id).unwrap(), b"abcdefghij");
    }

    #[test]
    fn update_grown_payload_still_prefers_its_page() {
        let (_d, mut heap) = setup(256, 4);
        let id = heap.insert(b"short").unwrap();
        let grown = vec![b'G'; 100];
        let new_id = heap.update(id, &grown).unwrap();
        assert_eq!(new_id, id, "page had room — handle must be stable");
        assert_eq!(heap.get(id).unwrap(), grown);
    }

    #[test]
    fn jumbo_records_spill_to_overflow_chains() {
        let (_d, mut heap) = setup(128, 4);
        let jumbo: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let id = heap.insert(&jumbo).unwrap();
        assert_eq!(heap.get(id).unwrap(), jumbo);
        let pages_with_chain = heap.stats().pages;
        heap.erase(id).unwrap();
        // The chain's blocks are recycled by the next jumbo insert.
        let id2 = heap.insert(&jumbo).unwrap();
        assert_eq!(heap.stats().pages, pages_with_chain);
        assert_eq!(heap.get(id2).unwrap(), jumbo);
    }

    #[test]
    fn compaction_reclaims_fragmented_pages() {
        let (_d, mut heap) = setup(128, 4);
        // Fill one page with small records, erase every other one, then
        // ask for a payload that only fits after compaction.
        let ids: Vec<HeapId> = (0..8)
            .map(|i| heap.insert(&[i as u8; 10]).unwrap())
            .collect();
        let first_page: Vec<&HeapId> = ids.iter().filter(|id| id.block == ids[0].block).collect();
        for id in first_page.iter().step_by(2) {
            heap.erase(**id).unwrap();
        }
        let sp_before = heap.stats();
        let big = heap.insert(&[0xEE; 20]).unwrap();
        assert_eq!(heap.get(big).unwrap(), vec![0xEE; 20]);
        assert!(heap.stats().pages <= sp_before.pages + 1);
    }

    #[test]
    fn reopen_rebuilds_free_map_and_counts() {
        let dir = TempDir::new("heap-reopen").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", 4).unwrap();
        let keep = heap.insert(b"keeper").unwrap();
        let gone = heap.insert(b"goner!").unwrap();
        let jumbo: Vec<u8> = vec![7; 500];
        let big = heap.insert(&jumbo).unwrap();
        heap.erase(gone).unwrap();
        heap.flush().unwrap();
        let stats = heap.stats();
        drop(heap);

        let mut heap = HeapFile::open(fm, "heap.dat", 4).unwrap();
        assert_eq!(heap.stats(), stats);
        assert_eq!(heap.get(keep).unwrap(), b"keeper");
        assert_eq!(heap.get(big).unwrap(), jumbo);
        assert!(heap.get(gone).is_err());
        // Free space from the erase is found again.
        let back = heap.insert(b"re-use").unwrap();
        assert_eq!(back.block, gone.block);
    }

    #[test]
    fn for_each_visits_live_records_in_handle_order() {
        let (_d, mut heap) = setup(128, 4);
        let a = heap.insert(b"aa").unwrap();
        let b = heap.insert(b"bb").unwrap();
        let c = heap.insert(b"cc").unwrap();
        heap.erase(b).unwrap();
        let mut seen = Vec::new();
        heap.for_each(&mut |id, bytes| {
            seen.push((id, bytes));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![(a, b"aa".to_vec()), (c, b"cc".to_vec())]);
    }

    #[test]
    fn tiny_pool_still_serves_many_pages() {
        let (_d, mut heap) = setup(128, 2);
        let ids: Vec<HeapId> = (0..200)
            .map(|i| {
                heap.insert(format!("record-number-{i:04}").as_bytes())
                    .unwrap()
            })
            .collect();
        assert!(heap.stats().pages > 10, "working set must exceed the pool");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                heap.get(*id).unwrap(),
                format!("record-number-{i:04}").as_bytes()
            );
        }
    }
}
