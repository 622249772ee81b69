//! A paged translation reads its source in place.
//!
//! `Restructuring::translate` and `translate_checkpointed` read the
//! caller's database directly: no physical copy of a paged source is
//! made, so the only pages the translation writes belong to its target.
//! The source stays byte-identical, and the paged target matches the
//! in-memory translation exactly.

use dbpc::corpus::named;
use dbpc::obs::local_snapshot;
use dbpc::storage::disk::file::DISK_WRITES;
use dbpc::storage::NetworkDb;

/// 512-byte pages under a 4-frame pool: the source spans far more pages
/// than the pool holds, so every read of it goes through eviction.
const PAGE: usize = 512;
const POOL: usize = 4;

/// About 2k records: 4 divisions of 500 employees over 8 departments.
/// The paged copy is flushed, so pages its build left dirty are not
/// written out later by evictions the translation's reads cause.
fn sources() -> (NetworkDb, NetworkDb) {
    let mem = named::company_db(4, 8, 500);
    let mut paged = mem.to_paged(PAGE, POOL).unwrap();
    paged.flush_heap().unwrap();
    assert!(mem.record_count() >= 2000);
    let pages = paged.heap_stats().unwrap().pages as usize;
    assert!(
        pages > 20 * POOL,
        "source must be under pressure: {pages} pages"
    );
    (mem, paged)
}

/// Run `translate` over the paged source and check what it wrote: at most
/// one disk write per target page, the source untouched, and the target
/// equal to the in-memory translation.
fn check_writes_only_target(label: &str, translate: impl Fn(&NetworkDb) -> NetworkDb) {
    let (mem, paged) = sources();
    let source_fp = paged.fingerprint();
    assert_eq!(source_fp, mem.fingerprint());

    let before = local_snapshot();
    let target = translate(&paged);
    let writes = local_snapshot().since(&before).counter(DISK_WRITES);

    let target_pages = target.heap_stats().expect("target stays paged").pages;
    assert!(
        writes <= target_pages,
        "{label}: {writes} disk writes for a {target_pages}-page target"
    );
    assert_eq!(paged.fingerprint(), source_fp, "{label}: source changed");
    assert_eq!(
        target.fingerprint(),
        translate(&mem).fingerprint(),
        "{label}: paged target differs from the in-memory translation"
    );
}

#[test]
fn paged_translate_writes_only_its_target() {
    let r = named::fig_4_4_restructuring();
    check_writes_only_target("translate", |db| r.translate(db).unwrap());
}

#[test]
fn paged_checkpointed_translate_writes_only_its_target() {
    let r = named::fig_4_4_restructuring();
    check_writes_only_target("translate_checkpointed", |db| {
        let mut crashes = 0;
        let out = r
            .translate_checkpointed(db, 32, &mut |b| {
                let fire = b == 1;
                crashes += usize::from(fire);
                fire
            })
            .unwrap();
        assert_eq!(crashes, 1, "the crash plan must fire once");
        out
    });
}
