//! Seeded input generator. Everything a workload feeds the program is drawn
//! here from the `--seed` argument, before the clock starts; the program only
//! ever sees the finished records.

use crate::workload::{KeyDist, Workload};
use bytes::Bytes;

/// SplitMix64: tiny, fast, and good enough to draw benchmark inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated input record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Input {
    pub key: u32,
    /// Always positive, so per-key running sums are strictly increasing and
    /// each reduce output names the exact input behind it.
    pub value: i64,
    /// Virtual ms, relative to the start of the load, at which it is sent.
    pub send_ms: i64,
    /// Creation instant (relative virtual ms, `send_ms - 1 < create_ms <=
    /// send_ms`): records are created at seeded instants inside the ms
    /// before their send, and latency is measured from here.
    pub create_ms: f64,
    /// Event timestamp stamped on the record (absolute virtual ms). Equal to
    /// the send time, or up to `ooo_max_ms` earlier for out-of-order records.
    pub ts: i64,
}

/// A workload's complete input, with the key bytes pre-encoded.
pub struct Inputs {
    pub records: Vec<Input>,
    /// Encoded key per key id, and encoded value per record.
    pub keys: Vec<Bytes>,
    pub values: Vec<Bytes>,
    /// Virtual ms the load is offset by once the cluster is set up.
    pub base_ms: i64,
}

/// Virtual time the load starts at: far enough from zero that records
/// stamped into the past keep non-negative timestamps.
pub const BASE_MS: i64 = 1_000;

pub fn key_bytes(id: u32) -> Bytes {
    Bytes::copy_from_slice(format!("key-{id}").as_bytes())
}

/// Parse a key written by [`key_bytes`].
pub fn key_id(bytes: &[u8]) -> Option<u32> {
    std::str::from_utf8(bytes.strip_prefix(b"key-")?).ok()?.parse().ok()
}

pub fn value_bytes(v: i64) -> Bytes {
    Bytes::copy_from_slice(&v.to_be_bytes())
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let zipf_cdf = match w.keys {
        KeyDist::Uniform(_) => Vec::new(),
        KeyDist::Zipf { n, s } => {
            let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|x| {
                    acc += x / total;
                    acc
                })
                .collect()
        }
    };
    let mut records = Vec::with_capacity(w.rate_per_ms * w.load_ms as usize);
    for ms in 0..w.load_ms {
        let send_ms = ms + 1;
        for _ in 0..w.rate_per_ms {
            let key = match w.keys {
                KeyDist::Uniform(n) => rng.below(n as u64) as u32,
                KeyDist::Zipf { n, .. } => {
                    let u = rng.next_f64();
                    zipf_cdf.partition_point(|&c| c < u).min(n - 1) as u32
                }
            };
            let value = 1 + rng.below(1000) as i64;
            let create_ms = send_ms as f64 - rng.next_f64();
            let late_by = if w.ooo_share > 0.0 && rng.next_f64() < w.ooo_share {
                1 + rng.below(w.ooo_max_ms as u64) as i64
            } else {
                0
            };
            records.push(Input { key, value, send_ms, create_ms, ts: BASE_MS + send_ms - late_by });
        }
    }
    let keys = (0..w.keys.count() as u32).map(key_bytes).collect();
    let values = records.iter().map(|r| value_bytes(r.value)).collect();
    Inputs { records, keys, values, base_ms: BASE_MS }
}

impl Inputs {
    #[cfg(test)]
    /// The records exactly as the producer sends them: key, value and
    /// timestamp bytes, concatenated.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (r, value) in self.records.iter().zip(&self.values) {
            out.extend_from_slice(&self.keys[r.key as usize]);
            out.extend_from_slice(value);
            out.extend_from_slice(&r.ts.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_gives_identical_records_and_another_seed_does_not() {
        for w in WORKLOADS {
            let a = generate(w, 42).wire_bytes();
            let b = generate(w, 42).wire_bytes();
            let c = generate(w, 43).wire_bytes();
            assert_eq!(a, b, "{}: same seed must give byte-identical input", w.name);
            assert_ne!(a, c, "{}: a different seed must change the input", w.name);
        }
    }

    #[test]
    fn out_of_order_share_and_range_match_the_workload() {
        let w = crate::workload::find("alos-window-ooo").expect("workload");
        let inputs = generate(w, 7);
        let late: Vec<i64> =
            inputs.records.iter().map(|r| BASE_MS + r.send_ms - r.ts).filter(|&d| d > 0).collect();
        let share = late.len() as f64 / inputs.records.len() as f64;
        assert!((share - w.ooo_share).abs() < 0.01, "late share {share}");
        assert!(late.iter().all(|&d| (1..=w.ooo_max_ms).contains(&d)));
    }

    #[test]
    fn zipf_keys_are_skewed_and_uniform_keys_are_not() {
        let count_top = |name: &str| {
            let w = crate::workload::find(name).expect("workload");
            let inputs = generate(w, 3);
            let mut counts = vec![0usize; w.keys.count()];
            for r in &inputs.records {
                counts[r.key as usize] += 1;
            }
            *counts.iter().max().expect("keys") as f64 / inputs.records.len() as f64
        };
        assert!(count_top("alos-window-ooo") > 0.1, "Zipf(1.0) head key carries ~13%");
        assert!(count_top("eos-reduce-dense") < 0.01);
    }
}
