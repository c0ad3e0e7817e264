//! The four benchmark workloads. `README.md` in this directory gives the
//! reason for each one and the layer metrics it is meant to move.

use kobs::json::{num, obj, str, Value};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform(usize),
    /// Zipf over `n` keys with exponent `s`; key 0 is the most frequent.
    Zipf {
        n: usize,
        s: f64,
    },
}

impl KeyDist {
    pub fn count(&self) -> usize {
        match *self {
            KeyDist::Uniform(n) | KeyDist::Zipf { n, .. } => n,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// §4.3's stateful reduce: per-key running sum, one output per input.
    Reduce,
    /// Tumbling windowed count with a grace period (§5).
    WindowCount { size_ms: i64, grace_ms: i64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    pub exactly_once: bool,
    /// Scheduler worker threads (1 = the serial task loop).
    pub workers: usize,
    pub input_partitions: u32,
    pub output_partitions: u32,
    pub commit_interval_ms: i64,
    pub cache_max_entries: usize,
    /// Records sent every virtual ms (open loop in virtual time).
    pub rate_per_ms: usize,
    /// Virtual ms of load in one round: a round always carries
    /// `rate_per_ms * load_ms` records.
    pub load_ms: i64,
    pub keys: KeyDist,
    /// Share of records stamped `1..=ooo_max_ms` ms in the past.
    pub ooo_share: f64,
    pub ooo_max_ms: i64,
    /// A workload with the same inputs on the Threaded scheduler. In
    /// `--trace 1` its traced rounds take turns with this workload's and give
    /// the scheduler metrics.
    pub scheduler_twin: Option<&'static str>,
}

impl Workload {
    pub fn records_per_round(&self) -> usize {
        self.rate_per_ms * self.load_ms as usize
    }

    /// The parameters as a JSON object, for the result stamp.
    pub fn params(self) -> Value {
        let topology = match self.topology {
            Topology::Reduce => str("reduce"),
            Topology::WindowCount { size_ms, grace_ms } => obj(vec![
                ("window_size_ms", num(size_ms as f64)),
                ("grace_ms", num(grace_ms as f64)),
            ]),
        };
        let keys = match self.keys {
            KeyDist::Uniform(n) => obj(vec![("uniform", num(n as f64))]),
            KeyDist::Zipf { n, s } => obj(vec![("zipf", num(n as f64)), ("exponent", num(s))]),
        };
        obj(vec![
            ("topology", topology),
            ("exactly_once", Value::Bool(self.exactly_once)),
            ("workers", num(self.workers as f64)),
            ("input_partitions", num(self.input_partitions)),
            ("output_partitions", num(self.output_partitions)),
            ("commit_interval_ms", num(self.commit_interval_ms as f64)),
            ("cache_max_entries", num(self.cache_max_entries as f64)),
            ("rate_per_ms", num(self.rate_per_ms as f64)),
            ("load_ms", num(self.load_ms as f64)),
            ("keys", keys),
            ("ooo_share", num(self.ooo_share)),
            ("ooo_max_ms", num(self.ooo_max_ms as f64)),
        ])
    }
}

const DENSE: Workload = Workload {
    name: "eos-reduce-dense",
    topology: Topology::Reduce,
    exactly_once: true,
    workers: 1,
    input_partitions: 8,
    output_partitions: 10,
    commit_interval_ms: 100,
    cache_max_entries: 0,
    rate_per_ms: 200,
    load_ms: 400,
    keys: KeyDist::Uniform(4096),
    ooo_share: 0.0,
    ooo_max_ms: 0,
    scheduler_twin: None,
};

pub const WORKLOADS: &[Workload] = &[
    Workload { scheduler_twin: Some("eos-reduce-2w"), ..DENSE },
    Workload { name: "eos-reduce-2w", workers: 2, ..DENSE },
    Workload {
        name: "eos-fanout-sparse",
        input_partitions: 4,
        output_partitions: 1000,
        rate_per_ms: 10,
        load_ms: 3_000,
        ..DENSE
    },
    Workload {
        name: "alos-window-ooo",
        topology: Topology::WindowCount { size_ms: 1_000, grace_ms: 200 },
        exactly_once: false,
        workers: 1,
        input_partitions: 8,
        output_partitions: 8,
        commit_interval_ms: 100,
        cache_max_entries: 4096,
        rate_per_ms: 20,
        load_ms: 5_000,
        keys: KeyDist::Zipf { n: 1024, s: 1.0 },
        ooo_share: 0.1,
        ooo_max_ms: 500,
        scheduler_twin: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
