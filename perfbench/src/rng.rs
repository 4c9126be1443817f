//! Seeded randomness for the benchmark's inputs: arrival times, query
//! choice and Zipf draws all derive from `--seed`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generator for one named stream of the run's seed, so streams drawn
/// in different orders do not shift each other.
pub fn stream(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Poisson arrivals conditioned on their count: `rate * seconds` offsets
/// (seconds from the window start), uniform over the window and sorted.
/// Fixing the count keeps the offered load identical across seeds.
pub fn arrivals(rng: &mut SmallRng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    offsets.sort_by(f64::total_cmp);
    offsets
}
