//! Order statistics over measured samples.
//!
//! Percentiles interpolate linearly between the two nearest ranks (the
//! "linear" method of most statistics packages), so a median of an even
//! count is the mean of the middle pair. [`tail_permille`] is the
//! benchmark's rule for how high a tail percentile the sample count
//! supports: the highest one with at least ten samples beyond it.

/// Candidate tail percentiles, in per-mille, highest first.
const TAIL_CANDIDATES_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// A bag of samples of one quantity, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().fold(0.0, |acc, v| acc + v)
    }

    /// Percentile `pct` in `[0, 100]`, or `None` when there are no samples.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, pct)
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

fn percentile_sorted(sorted: &[f64], pct: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = pct.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Samples strictly beyond the `permille`-th rank of `n` samples:
/// `n − ⌈n·permille/1000⌉`, in integers so that 1000 samples support
/// p99 exactly.
pub fn beyond(n: usize, permille: u32) -> usize {
    let at = (n * permille as usize).div_ceil(1000);
    n - at
}

/// The highest tail percentile (in per-mille) that `n` samples support
/// with at least [`MIN_BEYOND`] samples beyond it, or `None` when even
/// the median does not.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_CANDIDATES_PERMILLE
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// The fewest samples whose `permille`-th percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn needed(permille: u32) -> usize {
    let mut n = MIN_BEYOND;
    while beyond(n, permille) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// The `permille`-th percentile taken per block of consecutive samples,
/// then the median over blocks (batch medians). Each block holds the
/// fewest samples for the percentile to have [`MIN_BEYOND`] samples
/// beyond it; a short remainder joins the last block. Returns the value
/// and the block count. A burst of interference then moves the figure of
/// the blocks it hits, not the whole tail.
pub fn blocked(sets: &[&Samples], permille: u32) -> Option<(f64, usize)> {
    let need = needed(permille);
    let all: Vec<f64> = sets.iter().flat_map(|s| s.0.iter().copied()).collect();
    let mut blocks: Vec<&[f64]> = all.chunks(need).collect();
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < need) {
        blocks.pop();
        let last = blocks.len() - 1;
        blocks[last] = &all[last * need..];
    }
    let pct = f64::from(permille) / 10.0;
    let mut per_block = Samples::default();
    for block in &blocks {
        let mut sorted = block.to_vec();
        sorted.sort_by(f64::total_cmp);
        per_block.push(percentile_sorted(&sorted, pct)?);
    }
    Some((per_block.median()?, blocks.len()))
}

/// `p95` → `"p95"`, `999` → `"p99.9"`.
pub fn permille_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(samples([3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(samples([4.0, 1.0, 2.0, 3.0]).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
        assert_eq!(samples([7.0]).percentile(95.0), Some(7.0));
    }

    #[test]
    fn percentile_of_an_even_ramp() {
        let s = samples((0..=100).map(f64::from));
        assert_eq!(s.percentile(95.0), Some(95.0));
        assert_eq!(s.percentile(0.0), Some(0.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        assert_eq!(tail_permille(1_000_000), Some(999));
    }

    #[test]
    fn beyond_counts_exactly_at_the_boundary() {
        assert_eq!(beyond(200, 950), 10);
        assert_eq!(beyond(199, 950), 9);
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(0, 500), 0);
    }

    #[test]
    fn needed_is_the_smallest_supporting_count() {
        assert_eq!(needed(500), 20);
        assert_eq!(needed(950), 200);
        assert_eq!(needed(990), 1000);
        for pm in [500, 750, 900, 950, 990] {
            assert_eq!(tail_permille(needed(pm)).map(|t| t >= pm), Some(true));
            assert!(tail_permille(needed(pm) - 1) < Some(pm));
        }
    }

    #[test]
    fn blocks_hold_just_enough_samples_for_the_percentile() {
        let a = samples((0..150).map(|_| 1.0));
        let b = samples((0..150).map(|_| 2.0));
        let c = samples((0..150).map(|_| 3.0));
        let d = samples((0..150).map(|_| 4.0));
        // p95 needs 200: blocks [1×150, 2×50], [2×100, 3×100],
        // [3×50, 4×150]; their p95s are 2, 3, 4.
        assert_eq!(blocked(&[&a, &b, &c, &d], 950), Some((3.0, 3)));
        // p50 needs 20: 30 blocks, the median block sits in `b`.
        assert_eq!(blocked(&[&a, &b, &c], 500), Some((2.0, 22)));
        // A short remainder joins the last block.
        let e = samples((0..230).map(f64::from));
        assert_eq!(blocked(&[&e], 950).map(|g| g.1), Some(1));
        // Too few samples for a full block: one block of what there is.
        let small = samples([5.0, 6.0, 7.0]);
        assert_eq!(blocked(&[&small], 500), Some((6.0, 1)));
        assert_eq!(blocked(&[], 500), None);
    }

    #[test]
    fn labels() {
        assert_eq!(permille_label(950), "p95");
        assert_eq!(permille_label(999), "p99.9");
        assert_eq!(permille_label(500), "p50");
    }
}
