//! Regression tests for the property the exact gates stand on: two runs
//! of the same figure cell — one simulated thread or several — produce
//! byte-identical virtual-clock metrics (DESIGN.md "Perf reports and the
//! regression gate").

use spash_bench::experiments::{fig7, fig8};
use spash_bench::indexes::{roster, Geometry};
use spash_bench::{PhaseResult, Scale};

fn tiny_scale(threads: usize) -> Scale {
    Scale {
        keys: 2_000,
        ops: 1_000,
        threads: vec![threads],
    }
}

fn virtual_metrics(r: &PhaseResult) -> (u64, u64, spash_pmem::StatsDelta, Vec<(&'static str, u64, u64)>) {
    (
        r.ops,
        r.elapsed_ns,
        r.delta,
        r.spans
            .iter()
            .map(|(n, s)| (*n, s.entries, s.vtime_ns))
            .collect(),
    )
}

/// The figure roster position (cell id) of the member `name`.
fn series(name: &str) -> usize {
    let mut names = roster(Geometry::Figure).into_iter().map(|t| t.name);
    names.position(|n| n == name).expect("a roster member")
}

#[test]
fn fig7_runs_are_bit_deterministic() {
    for threads in [1, 8] {
        let scale = tiny_scale(threads);
        for name in ["Spash", "CCEH", "Halo"] {
            let a = fig7::run_one(&scale, series(name), threads);
            let b = fig7::run_one(&scale, series(name), threads);
            for (pa, pb) in a.iter().zip(b.iter()) {
                assert_eq!(
                    virtual_metrics(pa),
                    virtual_metrics(pb),
                    "{name} at {threads} threads: virtual metrics drifted between identical runs"
                );
            }
        }
    }
}

#[test]
fn fig8_access_counts_are_bit_deterministic() {
    for threads in [1, 8] {
        let scale = tiny_scale(threads);
        let a = fig8::run_one(&scale, series("Spash"));
        let b = fig8::run_one(&scale, series("Spash"));
        for (pa, pb) in [
            (&a.insert, &b.insert),
            (&a.search, &b.search),
            (&a.update, &b.update),
            (&a.delete, &b.delete),
        ] {
            let (ma, mb) = (virtual_metrics(pa), virtual_metrics(pb));
            assert_eq!(ma, mb, "{threads} threads");
        }
    }
}
