//! Property tests for the out-of-core record store.
//!
//! Four families:
//!
//! * a [`HeapFile`] under a deliberately tiny buffer pool (4 frames —
//!   far smaller than the data) driven by random insert / erase /
//!   update / get / iterate / flush-and-rescan sequences must agree
//!   with an in-memory shadow map at every step, and its free-space
//!   accounting must add up;
//! * on a **paged** [`NetworkDb`], rolling a savepoint back must leave
//!   a state byte-identical to never having run the savepoint's ops —
//!   the undo journal's logical records must exactly invert what the
//!   heap backend did physically;
//! * recovering a heap image twice yields the same database as
//!   recovering it once, and both match the writer that produced it;
//! * the heap's indexed placement chooses the same block and makes the
//!   same compaction decision as a linear first fit over a free-space
//!   map rebuilt from the page images on disk.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::disk::{BlockId, FileMgr, HeapFile, HeapId, Page, TempDir};
use dbpc_storage::{NetworkDb, RecordId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const PAGE: usize = 128;
const POOL: usize = 4;

/// Deterministic payload: length spans one-byte records through chains
/// that overflow several 128-byte pages.
fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add(i as u8) | 1)
        .collect::<Vec<u8>>()
}

fn schema() -> NetworkSchema {
    NetworkSchema::new("COMPANY-NAME")
        .with_record(RecordTypeDef::new(
            "DIV",
            vec![FieldDef::new("DIV-NAME", FieldType::Char(20))],
        ))
        .with_record(RecordTypeDef::new(
            "EMP",
            vec![
                FieldDef::new("EMP-NAME", FieldType::Char(25)),
                FieldDef::new("AGE", FieldType::Int(2)),
            ],
        ))
        .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
        .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
}

/// One random logical op against a paged database; mirrors the op mix
/// the engine's DML layer issues. Every op picks its target from the
/// live id list so sequences stay meaningful as records come and go.
#[derive(Debug, Clone)]
enum DbOp {
    StoreEmp { name: u16, age: i64, div: u8 },
    ModifyAge { pick: u8, age: i64 },
    Erase { pick: u8 },
    Reconnect { pick: u8, div: u8 },
}

fn db_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        3 => (any::<u16>(), 18i64..70, any::<u8>())
            .prop_map(|(name, age, div)| DbOp::StoreEmp { name, age, div }),
        2 => (any::<u8>(), 18i64..70).prop_map(|(pick, age)| DbOp::ModifyAge { pick, age }),
        1 => any::<u8>().prop_map(|pick| DbOp::Erase { pick }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(pick, div)| DbOp::Reconnect { pick, div }),
    ]
}

/// Build a paged database with a couple of divisions and apply `ops`,
/// tracking live employee ids. Ops that pick a missing target are
/// skipped — the generator is position-based, not id-based.
fn apply_ops(db: &mut NetworkDb, divs: &[RecordId], emps: &mut Vec<RecordId>, ops: &[DbOp]) {
    for op in ops {
        match op {
            DbOp::StoreEmp { name, age, div } => {
                let owner = divs[*div as usize % divs.len()];
                let id = db
                    .store(
                        "EMP",
                        &[
                            ("EMP-NAME", Value::str(format!("E{name:05}"))),
                            ("AGE", Value::Int(*age)),
                        ],
                        &[("DIV-EMP", owner)],
                    )
                    .unwrap();
                emps.push(id);
            }
            DbOp::ModifyAge { pick, age } if !emps.is_empty() => {
                let id = emps[*pick as usize % emps.len()];
                db.modify(id, &[("AGE", Value::Int(*age))]).unwrap();
            }
            DbOp::Erase { pick } if !emps.is_empty() => {
                let i = *pick as usize % emps.len();
                let id = emps.remove(i);
                db.erase(id, false).unwrap();
            }
            DbOp::Reconnect { pick, div } if !emps.is_empty() => {
                let id = emps[*pick as usize % emps.len()];
                let owner = divs[*div as usize % divs.len()];
                db.disconnect("DIV-EMP", id).unwrap();
                db.connect("DIV-EMP", owner, id).unwrap();
            }
            _ => {}
        }
    }
}

/// Slotted-page format, as the reference reads it: kind tag, header
/// bytes (kind + nslots + free_ptr), bytes per directory entry, the
/// slot body of a spilled record, and the largest inline payload.
const KIND_SLOTTED: u8 = 0xA5;
const HDR: usize = 5;
const SLOT: usize = 4;
const STUB: usize = 9;
const INLINE_MAX: usize = PAGE - HDR - SLOT - 1;

/// One slotted page's free-space entry, as the heap defines it.
#[derive(Debug, Clone, Copy)]
struct Space {
    block: u32,
    free: u16,
    dead: u16,
    free_slots: u16,
}

fn u16_at(page: &Page, off: usize) -> u16 {
    let b = page.read_at(off, 2).unwrap();
    u16::from_le_bytes([b[0], b[1]])
}

/// Every block's kind and, for slotted pages, the free-space entry,
/// recomputed from the flushed page images alone.
fn disk_space(fm: &FileMgr) -> (Vec<u8>, Vec<Space>) {
    let mut page = Page::new(PAGE);
    let mut kinds = Vec::new();
    let mut map = Vec::new();
    for b in 0..fm.block_count("heap.dat").unwrap() {
        fm.read(&BlockId::new("heap.dat", b), &mut page).unwrap();
        let kind = page.as_slice()[0];
        kinds.push(kind);
        if kind != KIND_SLOTTED {
            continue;
        }
        let n = u16_at(&page, 1) as usize;
        let entries: Vec<(u16, u16)> = (0..n)
            .map(|s| {
                (
                    u16_at(&page, HDR + s * SLOT),
                    u16_at(&page, HDR + s * SLOT + 2),
                )
            })
            .collect();
        let live = entries.iter().filter(|e| e.0 != 0);
        let free_ptr = live.clone().map(|e| e.0).min().unwrap_or(PAGE as u16);
        let live_len: u16 = live.map(|e| e.1).sum();
        map.push(Space {
            block: b as u32,
            free: free_ptr - (HDR + n * SLOT) as u16,
            dead: (PAGE as u16 - free_ptr) - live_len,
            free_slots: entries.iter().filter(|e| e.0 == 0).count() as u16,
        });
    }
    (kinds, map)
}

/// The reference placement: linear first fit in block order over every
/// slotted page, compacting when only free + dead bytes suffice.
fn linear_first_fit(map: &[Space], len: usize) -> Option<(u32, bool)> {
    let need = if len <= INLINE_MAX { len + 1 } else { STUB } as u16;
    map.iter().find_map(|sp| {
        let cost = if sp.free_slots > 0 {
            need
        } else {
            need + SLOT as u16
        };
        if sp.free >= cost {
            Some((sp.block, false))
        } else if sp.free + sp.dead >= cost {
            Some((sp.block, true))
        } else {
            None
        }
    })
}

fn seeded_paged_db() -> (NetworkDb, Vec<RecordId>) {
    let mut db = NetworkDb::new_paged(schema(), PAGE, POOL).unwrap();
    let divs: Vec<RecordId> = (0..3)
        .map(|d| {
            db.store("DIV", &[("DIV-NAME", Value::str(format!("DIV-{d}")))], &[])
                .unwrap()
        })
        .collect();
    (db, divs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shadow-model check of the raw heap file: after every random
    /// insert / erase / update, every live record must read back
    /// exactly, iteration must visit exactly the shadow map's payloads,
    /// and the stats must account for every live byte. A periodic
    /// flush + fresh-handle rescan proves the disk image alone carries
    /// the whole store even though the pool held only 4 frames.
    #[test]
    fn heap_ops_match_shadow_map(
        ops in prop::collection::vec((0u8..4, any::<u8>(), 0usize..300), 1..60),
    ) {
        let dir = TempDir::new("heap-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap();
        let mut shadow: BTreeMap<HeapId, Vec<u8>> = BTreeMap::new();
        let mut order: Vec<HeapId> = Vec::new();

        for (step, &(op, tag, len)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let bytes = payload(tag, len.max(1));
                    let id = heap.insert(&bytes).unwrap();
                    prop_assert!(shadow.insert(id, bytes).is_none(),
                        "insert reused live handle {id:?}");
                    order.push(id);
                }
                1 if !order.is_empty() => {
                    let id = order.remove(tag as usize % order.len());
                    heap.erase(id).unwrap();
                    shadow.remove(&id);
                }
                2 if !order.is_empty() => {
                    let i = tag as usize % order.len();
                    let old = order[i];
                    let bytes = payload(tag.wrapping_add(13), len.max(1));
                    let id = heap.update(old, &bytes).unwrap();
                    shadow.remove(&old);
                    prop_assert!(shadow.insert(id, bytes).is_none(),
                        "update reused live handle {id:?}");
                    order[i] = id;
                }
                3 => {
                    // Crash-free restart: flush, reopen a fresh handle
                    // over the same file, keep going.
                    heap.flush().unwrap();
                    heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap();
                }
                _ => {}
            }

            // Point reads see exactly the modeled bytes.
            for (id, bytes) in &shadow {
                prop_assert_eq!(&heap.get(*id).unwrap(), bytes,
                    "step {}: record {:?} read back wrong", step, id);
            }
            // Iteration visits every live record exactly once.
            let mut seen: BTreeMap<HeapId, Vec<u8>> = BTreeMap::new();
            heap.for_each(&mut |id, bytes| {
                assert!(seen.insert(id, bytes.to_vec()).is_none());
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(&seen, &shadow, "step {}: iteration drifted", step);
            // Stats account for every live payload byte.
            let stats = heap.stats();
            prop_assert_eq!(stats.records as usize, shadow.len());
            let live: u64 = shadow.values().map(|b| b.len() as u64).sum();
            prop_assert_eq!(stats.live_bytes, live, "step {}: live-byte accounting", step);
        }
    }

    /// Savepoint rollback on a paged database is equivalent to never
    /// having run the savepoint's ops: fingerprints and full state
    /// images match a twin database that only ran the prefix — even
    /// though the heap file underneath saw (and physically kept) every
    /// aborted insert and update.
    #[test]
    fn savepoint_rollback_equals_never_ran(
        prefix in prop::collection::vec(db_op(), 0..25),
        suffix in prop::collection::vec(db_op(), 1..25),
    ) {
        let (mut db, divs) = seeded_paged_db();
        let mut emps = Vec::new();
        apply_ops(&mut db, &divs, &mut emps, &prefix);

        let (mut twin, twin_divs) = seeded_paged_db();
        let mut twin_emps = Vec::new();
        apply_ops(&mut twin, &twin_divs, &mut twin_emps, &prefix);

        let sp = db.begin_savepoint();
        let mut scratch = emps.clone();
        apply_ops(&mut db, &divs, &mut scratch, &suffix);
        db.rollback_to(sp);

        prop_assert_eq!(db.fingerprint(), twin.fingerprint(),
            "rollback left a different logical state");
        prop_assert_eq!(db.state_bytes(), twin.state_bytes(),
            "rollback left different state bytes");
    }

    /// Recovery is idempotent: scan-rebuild a flushed heap image twice
    /// with fresh handles; both recovered databases must equal the
    /// writer — fingerprint and state image — and each other.
    #[test]
    fn heap_recovery_twice_equals_recovery_once(
        ops in prop::collection::vec(db_op(), 1..40),
    ) {
        let dir = TempDir::new("heap-recover-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut db =
            NetworkDb::paged_on(schema(), Arc::clone(&fm), "heap.dat", POOL).unwrap();
        let divs: Vec<RecordId> = (0..3)
            .map(|d| {
                db.store("DIV", &[("DIV-NAME", Value::str(format!("DIV-{d}")))], &[])
                    .unwrap()
            })
            .collect();
        let mut emps = Vec::new();
        apply_ops(&mut db, &divs, &mut emps, &ops);
        db.sync_links().unwrap();
        db.flush_heap().unwrap();
        let (next_id, seqs) = db.allocator_state();

        let once = NetworkDb::recover_paged(
            schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs,
        )
        .unwrap();
        let twice = NetworkDb::recover_paged(
            schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs,
        )
        .unwrap();

        prop_assert_eq!(once.fingerprint(), db.fingerprint(),
            "recovered database drifted from the writer");
        prop_assert_eq!(twice.fingerprint(), once.fingerprint(),
            "second recovery drifted from the first");
        prop_assert_eq!(once.state_bytes(), db.state_bytes());
        prop_assert_eq!(twice.state_bytes(), once.state_bytes());
        prop_assert_eq!(once.allocator_state(), db.allocator_state());
    }

    /// Placement oracle: over random inserts (inline and spilled),
    /// erases that recycle overflow blocks, updates that grow, shrink or
    /// relocate, rescans and reopens, the indexed placement agrees with
    /// the linear first fit for every payload length after every step,
    /// and each insert lands where both predicted — compacting the page
    /// exactly when the reference says it must.
    #[test]
    fn indexed_placement_matches_linear_first_fit(
        ops in prop::collection::vec((0u8..5, any::<u8>(), 1usize..300), 1..60),
    ) {
        let dir = TempDir::new("heap-fit-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap();
        let mut live: Vec<HeapId> = Vec::new();

        for (step, &(op, tag, len)) in ops.iter().enumerate() {
            heap.flush().unwrap();
            let (kinds, before) = disk_space(&fm);
            match op {
                0 | 1 => {
                    // Inserts weighted double; short payloads pack pages
                    // densely enough for compaction to matter.
                    let len = if op == 0 { len % 40 + 1 } else { len };
                    let predicted = linear_first_fit(&before, len);
                    let indexed = heap.placement(len);
                    prop_assert_eq!(indexed, predicted,
                        "step {}: indexed {:?}, reference {:?}", step, indexed, predicted);
                    let id = heap.insert(&payload(tag, len)).unwrap();
                    live.push(id);
                    heap.flush().unwrap();
                    let (_, after) = disk_space(&fm);
                    let dead = |map: &[Space]| {
                        map.iter().find(|sp| sp.block == id.block).map(|sp| sp.dead)
                    };
                    match predicted {
                        Some((b, compacted)) => {
                            prop_assert_eq!(id.block, b, "step {}: wrong block", step);
                            let expect = if compacted { Some(0) } else { dead(&before) };
                            prop_assert_eq!(dead(&after), expect, "step {}: compaction", step);
                        }
                        None => {
                            prop_assert!(dead(&before).is_none(), "step {}: reused a page", step);
                            if len <= INLINE_MAX {
                                // A new page recycles a virgin block when
                                // there is one, else extends the file.
                                let b = id.block as usize;
                                let fresh = if kinds.contains(&0) {
                                    kinds.get(b) == Some(&0)
                                } else {
                                    b == kinds.len()
                                };
                                prop_assert!(fresh, "step {}: new page {}", step, b);
                            }
                        }
                    }
                }
                2 if !live.is_empty() => {
                    let id = live.remove(tag as usize % live.len());
                    heap.erase(id).unwrap();
                }
                3 if !live.is_empty() => {
                    let i = tag as usize % live.len();
                    live[i] = heap.update(live[i], &payload(tag, len)).unwrap();
                }
                3 => heap.rescan().unwrap(),
                4 => heap = HeapFile::open(Arc::clone(&fm), "heap.dat", POOL).unwrap(),
                _ => {}
            }
            heap.flush().unwrap();
            let (_, map) = disk_space(&fm);
            for len in 1..=PAGE {
                prop_assert_eq!(heap.placement(len), linear_first_fit(&map, len),
                    "step {}: placement of {} bytes", step, len);
            }
        }
    }
}
