//! The reclamation use-after-free canary (DESIGN.md §11): the epoch
//! pool's invariant is that a slot retired at epoch `e` recycles only
//! once `e < min(active pins)`. The `ReclaimEarly` canary makes the pool
//! ignore pins — exactly the use-after-free window the generation check
//! in `BatchPool::resolve` exists to catch.

use spash_pmem::canary::{self, Canary};
use spash_service::pool::BatchPool;

#[test]
fn reclamation_window_canary_is_caught() {
    // Clean run: a pinned consumer's reference survives retirement — the
    // pin blocks recycling, so the resolve sees the original bytes.
    {
        let pool = BatchPool::new(1, 1);
        pool.pin(0);
        let buf = pool.acquire().expect("fresh pool must have a free slot");
        let r = pool.append(&buf, b"pinned bytes");
        pool.retire(buf);
        assert!(
            pool.acquire().is_none(),
            "recycling must stall while a pin covers the retired epoch"
        );
        let mut out = Vec::new();
        pool.resolve(&r, &mut out).expect("pin-protected ref must resolve");
        assert_eq!(out, b"pinned bytes");
        pool.unpin(0);
    }

    // Armed run: reclamation ignores the pin, the slot recycles under
    // the reader's feet, and the generation check must report the
    // violation instead of silently serving recycled bytes.
    let (recycled_despite_pin, resolve) = {
        let _c = canary::arm(Canary::ReclaimEarly);
        let pool = BatchPool::new(1, 1);
        pool.pin(0);
        let buf = pool.acquire().unwrap();
        let r = pool.append(&buf, b"pinned bytes");
        pool.retire(buf);
        let stolen = pool.acquire();
        (stolen.is_some(), pool.resolve(&r, &mut Vec::new()))
    };
    assert!(
        recycled_despite_pin,
        "canary armed but the retired slot was not recycled early"
    );
    let violation = resolve.expect_err("use-after-reclaim went undetected");
    assert_eq!(violation.slot, 0);
    assert!(
        violation.slot_gen > violation.ref_gen,
        "violation must show the slot moved past the reference's generation"
    );
}
