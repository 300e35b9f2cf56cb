//! Key generation: base ranges, distributions and dependency switches.

use pq_traits::Key;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How the next key depends on earlier activity (appendix F's "key
/// dependency switch").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDependency {
    /// Keys are independent draws from the base range.
    None,
    /// The random base key is *added to the operation number*, so keys
    /// drift upward over time (the paper's `ascending` distribution).
    Ascending,
    /// The random base key is *subtracted from a high starting point*
    /// shifted down by the operation number (`descending`).
    Descending,
    /// Hold model (Jones 1986): the next key is the last *deleted* key
    /// plus a random increment from the base range. Mimics discrete
    /// event simulation, where new events are scheduled relative to the
    /// current simulation time.
    Hold,
}

/// Shape of the base-key distribution within its range (appendix F
/// points to Jones 1986, which compares uniform, exponential, biased and
/// triangular event-time distributions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KeyShape {
    /// Uniform over the whole base range (the paper's configuration).
    #[default]
    Uniform,
    /// Log-uniform (Zipf-like heavy head): small keys are exponentially
    /// more likely; `key = N^u` for `u` uniform in [0,1).
    Zipf,
    /// Exponential with mean `N/16`, clamped to the range.
    Exponential,
    /// Triangular (sum of two uniforms, peak at N/2).
    Triangular,
    /// Bimodal (Jones): 90 % of keys in the lowest tenth of the range,
    /// 10 % in the upper half.
    Bimodal,
}

impl KeyShape {
    fn name(&self) -> &'static str {
        match self {
            KeyShape::Uniform => "uniform",
            KeyShape::Zipf => "zipf",
            KeyShape::Exponential => "exp",
            KeyShape::Triangular => "tri",
            KeyShape::Bimodal => "bimodal",
        }
    }
}

/// Key distribution: a base range (over `bits` bits), a shape within the
/// range, plus a dependency switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyDistribution {
    /// Width of the base range in bits (8, 16 or 32 in the paper).
    pub bits: u32,
    /// Shape of the distribution within the base range.
    pub shape: KeyShape,
    /// Dependency switch.
    pub dependency: KeyDependency,
}

impl KeyDistribution {
    /// Uniform keys over `bits`-bit integers. Panics unless
    /// `bits < 64`: a width is a bit count, not a range size.
    pub const fn uniform(bits: u32) -> Self {
        assert!(bits < 64, "key width is a bit count below 64");
        Self {
            bits,
            shape: KeyShape::Uniform,
            dependency: KeyDependency::None,
        }
    }

    /// Independent keys with the given non-uniform shape over `bits`
    /// bits. Panics unless `bits < 64`.
    pub const fn shaped(shape: KeyShape, bits: u32) -> Self {
        assert!(bits < 64, "key width is a bit count below 64");
        Self {
            bits,
            shape,
            dependency: KeyDependency::None,
        }
    }

    /// Ascending keys: 8-bit random base plus the operation number. (The
    /// paper draws the base from a small fixed-width range; the exact
    /// width is garbled in the arXiv text, we use 8 bits.)
    pub const fn ascending() -> Self {
        Self {
            bits: 8,
            shape: KeyShape::Uniform,
            dependency: KeyDependency::Ascending,
        }
    }

    /// Descending keys: mirror image of [`KeyDistribution::ascending`].
    pub const fn descending() -> Self {
        Self {
            bits: 8,
            shape: KeyShape::Uniform,
            dependency: KeyDependency::Descending,
        }
    }

    /// Hold-model keys with an 8-bit increment range.
    pub const fn hold() -> Self {
        Self {
            bits: 8,
            shape: KeyShape::Uniform,
            dependency: KeyDependency::Hold,
        }
    }

    /// Short name used in reports ("uniform32", "zipf32", "ascending").
    pub fn name(&self) -> String {
        match self.dependency {
            KeyDependency::None => format!("{}{}", self.shape.name(), self.bits),
            KeyDependency::Ascending => "ascending".to_owned(),
            KeyDependency::Descending => "descending".to_owned(),
            KeyDependency::Hold => "hold".to_owned(),
        }
    }
}

/// Starting point for descending keys: keys count down from here, leaving
/// plenty of headroom for billions of operations.
const DESCENDING_START: u64 = 1 << 40;

/// Per-thread deterministic key generator.
#[derive(Clone, Debug)]
pub struct KeyGen {
    dist: KeyDistribution,
    rng: SmallRng,
    op_num: u64,
    last_deleted: Key,
}

impl KeyGen {
    /// Create a generator for `dist` seeded by (`seed`, `thread`).
    pub fn new(dist: KeyDistribution, seed: u64, thread: u64) -> Self {
        Self {
            dist,
            rng: SmallRng::seed_from_u64(seed ^ thread.wrapping_mul(0x9E3779B97F4A7C15)),
            op_num: 0,
            last_deleted: 0,
        }
    }

    #[inline]
    fn base(&mut self) -> u64 {
        let n = if self.dist.bits >= 64 {
            u64::MAX
        } else {
            1u64 << self.dist.bits
        };
        match self.dist.shape {
            KeyShape::Uniform => self.rng.gen::<u64>() & n.wrapping_sub(1),
            KeyShape::Zipf => {
                // Log-uniform: N^u; heavy mass at small keys.
                let u: f64 = self.rng.gen();
                let k = (n as f64).powf(u) - 1.0;
                (k as u64).min(n - 1)
            }
            KeyShape::Exponential => {
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let scale = n as f64 / 16.0;
                ((-u.ln()) * scale) as u64
            }
            .min(n - 1),
            KeyShape::Triangular => {
                let a = self.rng.gen::<u64>() % n;
                let b = self.rng.gen::<u64>() % n;
                a / 2 + b / 2
            }
            KeyShape::Bimodal => {
                if self.rng.gen_bool(0.9) {
                    self.rng.gen_range(0..(n / 10).max(1))
                } else {
                    self.rng.gen_range(n / 2..n)
                }
            }
        }
    }

    /// Generate the key for the next insertion.
    #[inline]
    pub fn next_key(&mut self) -> Key {
        let base = self.base();
        let op = self.op_num;
        self.op_num += 1;
        match self.dist.dependency {
            KeyDependency::None => base,
            KeyDependency::Ascending => op + base,
            KeyDependency::Descending => DESCENDING_START.saturating_sub(op) + base,
            KeyDependency::Hold => self.last_deleted.saturating_add(base),
        }
    }

    /// Feed back the key of the last deleted item (used by the hold
    /// model; a no-op for other dependencies).
    #[inline]
    pub fn observe_delete(&mut self, key: Key) {
        self.last_deleted = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bit_range() {
        for bits in [8u32, 16, 32] {
            let mut g = KeyGen::new(KeyDistribution::uniform(bits), 1, 0);
            for _ in 0..1000 {
                let k = g.next_key();
                assert!(k < (1u64 << bits), "{k} out of {bits}-bit range");
            }
        }
    }

    #[test]
    #[should_panic(expected = "key width is a bit count below 64")]
    fn key_width_of_64_bits_or_more_is_refused() {
        // A range size passed as a width: 2^20 "bits" used to yield
        // full-width keys with bit 0 always clear.
        let _ = KeyDistribution::uniform(1 << 20);
    }

    #[test]
    fn uniform_8bit_covers_range() {
        let mut g = KeyGen::new(KeyDistribution::uniform(8), 7, 0);
        let mut seen = [false; 256];
        for _ in 0..10_000 {
            seen[g.next_key() as usize] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered > 250, "only {covered}/256 key values seen");
    }

    #[test]
    fn ascending_drifts_up() {
        let mut g = KeyGen::new(KeyDistribution::ascending(), 3, 0);
        let early: u64 = (0..100).map(|_| g.next_key()).sum();
        for _ in 0..10_000 {
            g.next_key();
        }
        let late: u64 = (0..100).map(|_| g.next_key()).sum();
        assert!(late > early + 100 * 9_000, "ascending keys did not drift");
    }

    #[test]
    fn descending_drifts_down() {
        let mut g = KeyGen::new(KeyDistribution::descending(), 3, 0);
        let early = g.next_key();
        for _ in 0..10_000 {
            g.next_key();
        }
        let late = g.next_key();
        assert!(late < early, "descending keys did not drift down");
    }

    #[test]
    fn hold_follows_last_deleted() {
        let mut g = KeyGen::new(KeyDistribution::hold(), 3, 0);
        g.observe_delete(1_000_000);
        let k = g.next_key();
        assert!((1_000_000..1_000_256).contains(&k));
    }

    #[test]
    fn deterministic_per_seed_and_thread() {
        let ks1: Vec<Key> = {
            let mut g = KeyGen::new(KeyDistribution::uniform(32), 42, 3);
            (0..50).map(|_| g.next_key()).collect()
        };
        let ks2: Vec<Key> = {
            let mut g = KeyGen::new(KeyDistribution::uniform(32), 42, 3);
            (0..50).map(|_| g.next_key()).collect()
        };
        let ks3: Vec<Key> = {
            let mut g = KeyGen::new(KeyDistribution::uniform(32), 42, 4);
            (0..50).map(|_| g.next_key()).collect()
        };
        assert_eq!(ks1, ks2);
        assert_ne!(ks1, ks3, "different threads must get different streams");
    }

    #[test]
    fn names() {
        assert_eq!(KeyDistribution::uniform(32).name(), "uniform32");
        assert_eq!(KeyDistribution::uniform(8).name(), "uniform8");
        assert_eq!(KeyDistribution::ascending().name(), "ascending");
        assert_eq!(KeyDistribution::descending().name(), "descending");
        assert_eq!(KeyDistribution::hold().name(), "hold");
        assert_eq!(
            KeyDistribution::shaped(KeyShape::Zipf, 32).name(),
            "zipf32"
        );
        assert_eq!(
            KeyDistribution::shaped(KeyShape::Bimodal, 16).name(),
            "bimodal16"
        );
    }

    fn mean_of(shape: KeyShape, bits: u32) -> f64 {
        let mut g = KeyGen::new(KeyDistribution::shaped(shape, bits), 11, 0);
        let n = 20_000;
        (0..n).map(|_| g.next_key() as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn shaped_keys_stay_in_range() {
        for shape in [
            KeyShape::Zipf,
            KeyShape::Exponential,
            KeyShape::Triangular,
            KeyShape::Bimodal,
        ] {
            let mut g = KeyGen::new(KeyDistribution::shaped(shape, 16), 3, 0);
            for _ in 0..5_000 {
                let k = g.next_key();
                assert!(k < (1 << 16), "{shape:?} produced out-of-range {k}");
            }
        }
    }

    #[test]
    fn zipf_is_head_heavy() {
        // Log-uniform: median at sqrt(N), far below the uniform median.
        let mut g = KeyGen::new(KeyDistribution::shaped(KeyShape::Zipf, 16), 5, 0);
        let below_sqrt = (0..10_000).filter(|_| g.next_key() < 256).count();
        assert!(
            (4_000..6_000).contains(&below_sqrt),
            "zipf median off: {below_sqrt}/10000 below sqrt(N)"
        );
    }

    #[test]
    fn exponential_mean_near_scale() {
        let mean = mean_of(KeyShape::Exponential, 16);
        let scale = 65_536.0 / 16.0;
        assert!(
            (scale * 0.8..scale * 1.2).contains(&mean),
            "exp mean {mean} vs scale {scale}"
        );
    }

    #[test]
    fn triangular_mean_near_center() {
        let mean = mean_of(KeyShape::Triangular, 16);
        assert!(
            (30_000.0..35_500.0).contains(&mean),
            "triangular mean {mean}"
        );
    }

    #[test]
    fn bimodal_mass_split() {
        let mut g = KeyGen::new(KeyDistribution::shaped(KeyShape::Bimodal, 16), 9, 0);
        let n = 10_000;
        let mut low = 0;
        let mut high = 0;
        for _ in 0..n {
            let k = g.next_key();
            if k < 6_554 {
                low += 1;
            } else if k >= 32_768 {
                high += 1;
            }
        }
        assert!(low > 8_500, "low mode {low}");
        assert!((500..1_500).contains(&high), "high mode {high}");
        assert_eq!(low + high, n, "no keys between the modes");
    }
}
