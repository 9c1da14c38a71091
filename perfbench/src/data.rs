//! The benchmark's inputs, made from the workload seed alone.

use mmdr::datagen::{generate_correlated, sample_queries, CorrelatedConfig};
use mmdr::linalg::Matrix;

/// Rows the index is built over.
pub const N_BASE: usize = 20_000;
/// Dimensionality.
pub const DIM: usize = 32;
/// Generated clusters.
pub const CLUSTERS: usize = 10;
/// Every `HOLD_EVERY`-th generated row is held out for inserts. The
/// generator emits rows cluster by cluster, so a stride (not a tail slice)
/// spreads the held-out rows over every cluster.
pub const HOLD_EVERY: usize = 6;
/// Held-out rows: one per `HOLD_EVERY` generated rows.
pub const N_HELD: usize = N_BASE / (HOLD_EVERY - 1);
/// Distinct query points, sampled from the base rows.
pub const N_QUERIES: usize = 2_000;
/// Neighbours per KNN query.
pub const K: usize = 10;
/// Distinct values of the `a` attribute; `a = v` selects ~1% of rows.
pub const ATTR_VALUES: u64 = 100;

/// Everything a workload runs on.
pub struct Inputs {
    /// The indexed rows; row `i` gets id `i`.
    pub base: Matrix,
    /// Rows held out of the index, inserted by the served workload.
    pub held: Matrix,
    /// Query points.
    pub queries: Vec<Vec<f64>>,
    /// The `a` attribute of every base row, uniform in `0..ATTR_VALUES`.
    pub attr_a: Vec<i64>,
}

/// SplitMix64: a small deterministic generator for the benchmark's own
/// choices (attributes, operation mix, delete order).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Makes the inputs for `seed`: the same seed gives the same inputs.
pub fn generate(seed: u64) -> Inputs {
    let total = N_BASE + N_HELD;
    let config = CorrelatedConfig::paper_style(total, DIM, CLUSTERS, 12, 30.0, seed);
    let all = generate_correlated(&config).data;
    let (held_rows, base_rows): (Vec<usize>, Vec<usize>) =
        (0..total).partition(|i| i % HOLD_EVERY == HOLD_EVERY - 1);
    let base = all.select_rows(&base_rows);
    let held = all.select_rows(&held_rows);
    let queries = sample_queries(&base, N_QUERIES, seed ^ 0x5157_4e5f_7175_6572)
        .expect("base rows are non-empty")
        .iter_rows()
        .map(|r| r.to_vec())
        .collect();
    let mut rng = Rng::new(seed ^ 0x6174_7472);
    let attr_a = (0..N_BASE).map(|_| rng.below(ATTR_VALUES) as i64).collect();
    Inputs {
        base,
        held,
        queries,
        attr_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_out_rows_cover_every_cluster() {
        let total = N_BASE + N_HELD;
        let config = CorrelatedConfig::paper_style(total, DIM, CLUSTERS, 12, 30.0, 3);
        let labels = generate_correlated(&config).labels;
        let mut seen = vec![0usize; CLUSTERS];
        for i in (0..total).filter(|i| i % HOLD_EVERY == HOLD_EVERY - 1) {
            seen[labels[i]] += 1;
        }
        assert!(seen.iter().all(|&c| c > N_HELD / CLUSTERS / 2), "{seen:?}");
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let a = generate(5);
        let b = generate(5);
        assert_eq!(a.base.shape(), (N_BASE, DIM));
        assert_eq!(a.held.shape(), (N_HELD, DIM));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.attr_a, b.attr_a);
        assert_ne!(generate(6).queries, a.queries);
    }
}
