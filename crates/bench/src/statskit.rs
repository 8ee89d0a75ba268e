//! Small statistics helpers for the latency rows.

/// Nearest-rank percentile of an ascending-sorted slice, `p` in `[0, 1]`.
/// Returns 0.0 for an empty slice. Debug builds assert the input really is
/// sorted — a silently unsorted slice would produce a plausible-looking
/// but wrong tail.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile() input must be sorted ascending"
    );
    debug_assert!((0.0..=1.0).contains(&p), "percentile p={p} outside [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[i] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slice_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = [42u64];
        assert_eq!(percentile(&s, 0.0), 42.0);
        assert_eq!(percentile(&s, 0.5), 42.0);
        assert_eq!(percentile(&s, 1.0), 42.0);
    }

    #[test]
    fn endpoints_clamp_to_first_and_last() {
        let s = [10u64, 20, 30, 40];
        assert_eq!(percentile(&s, 0.0), 10.0);
        // p = 1.0 indexes past the end without clamping; it must clamp.
        assert_eq!(percentile(&s, 1.0), 40.0);
    }

    #[test]
    fn nearest_rank_interior() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 0.99), 100.0);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    #[cfg(debug_assertions)]
    fn unsorted_input_asserts_in_debug() {
        percentile(&[3, 1, 2], 0.5);
    }
}
