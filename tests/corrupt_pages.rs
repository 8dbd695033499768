//! A stored page whose slot directory points outside the page is a typed
//! `StorageError::Corrupt` on every read path — the block nested loop's
//! outer-block reads as well as heap-file page scans — and the database keeps
//! serving statements on its other tables.

use fuzzy_db::engine::{EngineError, Strategy};
use fuzzy_db::storage::{SimDisk, StorageError};
use fuzzy_db::workload::{generate, paper, WorkloadSpec};
use fuzzy_db::Database;

#[test]
fn corrupt_slot_is_a_typed_error_and_other_tables_still_answer() {
    let disk = SimDisk::with_default_page_size();
    let mut catalog = paper::dating_service(&disk).expect("paper catalog");
    let spec =
        WorkloadSpec { n_outer: 200, n_inner: 200, fanout: 7, seed: 3, ..Default::default() };
    let w = generate(&disk, spec).expect("workload");
    catalog.register(w.outer.clone());
    catalog.register(w.inner.clone());

    // Point slot 0 of R's second page far past the end of the page.
    let pages = w.outer.file().page_ids();
    assert!(pages.len() >= 2, "R spans {} pages", pages.len());
    let mut image = disk.read_page(pages[1]).unwrap().to_vec();
    let entry = image.len() - 4;
    image[entry..entry + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    disk.write_page(pages[1], &image).unwrap();

    let db = Database::from_catalog(catalog, disk);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)";
    for strategy in [Strategy::NestedLoop, Strategy::Unnest] {
        let res = db.query(sql).strategy(strategy).collect();
        assert!(
            matches!(res, Err(EngineError::Storage(StorageError::Corrupt(_)))),
            "{strategy:?}: {res:?}"
        );
    }

    let dating = "SELECT F.NAME FROM F WHERE F.INCOME IN \
                  (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)";
    let got = db.query(dating).collect().unwrap();
    let want = db.query(dating).strategy(Strategy::Naive).collect().unwrap();
    assert!(!got.is_empty(), "the dating-service query has answers");
    assert_eq!(got.canonicalized(), want.canonicalized());
}
