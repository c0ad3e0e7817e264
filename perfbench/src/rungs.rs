//! Isolation rungs: the workload's own generated records replayed into one
//! layer's public API at a time, with no layer above it. Each rung returns
//! wall ns (or µs) per unit of work and allocations per record.

use crate::gen::Inputs;
use crate::pipeline::{topology, INPUT, OUTPUT};
use crate::sys;
use crate::workload::Workload;
use bytes::Bytes;
use kbroker::topic::partition_for_key;
use kbroker::{Cluster, IsolationLevel, Producer, ProducerConfig, TopicConfig};
use klog::{BatchMeta, PartitionLog, Record};
use kstreams::processor::driver::{SubTopologyDriver, TaskEnv};
use kstreams::processor::StoreEntry;
use kstreams::state::Store;
use simprims::ManualClock;
use std::time::Instant;

/// Records per fetch request in the fetch rungs.
const FETCH_MAX: usize = 500;

/// Producer-sized batches: per send ms, per input partition, at most 64
/// records, in send order — what the load generator's producer appends.
fn batches(w: &Workload, inputs: &Inputs) -> Vec<(u32, Vec<Record>)> {
    let mut out = Vec::new();
    let mut open: Vec<Vec<Record>> = vec![Vec::new(); w.input_partitions as usize];
    let mut i = 0;
    while i < inputs.records.len() {
        let ms = inputs.records[i].send_ms;
        while i < inputs.records.len() && inputs.records[i].send_ms == ms {
            let r = &inputs.records[i];
            let key = &inputs.keys[r.key as usize];
            let p = partition_for_key(key, w.input_partitions) as usize;
            open[p].push(Record::new(key.clone(), inputs.values[i].clone(), r.ts));
            if open[p].len() == 64 {
                out.push((p as u32, std::mem::take(&mut open[p])));
            }
            i += 1;
        }
        for (p, batch) in open.iter_mut().enumerate() {
            if !batch.is_empty() {
                out.push((p as u32, std::mem::take(batch)));
            }
        }
    }
    out
}

/// Records per commit interval of the load, in send order.
fn commit_intervals(w: &Workload, inputs: &Inputs) -> Vec<usize> {
    let interval_of = |send_ms: i64| (send_ms - 1) / w.commit_interval_ms;
    inputs
        .records
        .chunk_by(|a, b| interval_of(a.send_ms) == interval_of(b.send_ms))
        .map(<[_]>::len)
        .collect()
}

pub struct LogRung {
    pub append_ns_per_record: f64,
    pub fetch_ns_per_record: f64,
    pub allocs_per_record: f64,
}

/// `PartitionLog::append` then read-committed `PartitionLog::fetch`.
pub fn klog(w: &Workload, inputs: &Inputs) -> LogRung {
    let batches = batches(w, inputs);
    let n = inputs.records.len() as f64;
    let mut logs: Vec<PartitionLog> =
        (0..w.input_partitions).map(|_| PartitionLog::new()).collect();
    let allocs0 = sys::allocs();
    let t = Instant::now();
    for (p, batch) in batches {
        logs[p as usize].append(BatchMeta::plain(), batch).expect("plain append");
    }
    let append_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut fetched = 0;
    for log in &logs {
        let mut from = 0;
        while from < log.log_end() {
            let f = log.fetch(from, FETCH_MAX, IsolationLevel::ReadCommitted).expect("fetch");
            fetched += std::hint::black_box(f.count());
            from = f.next_offset;
        }
    }
    let fetch_ns = t.elapsed().as_nanos() as f64;
    let allocs = (sys::allocs() - allocs0) as f64;
    assert_eq!(fetched, inputs.records.len(), "the log returns every appended record");
    LogRung {
        append_ns_per_record: append_ns / n,
        fetch_ns_per_record: fetch_ns / n,
        allocs_per_record: allocs / n,
    }
}

pub struct ClusterRung {
    pub produce_ns_per_record: f64,
    pub fetch_ns_per_record: f64,
}

fn cluster(marker_cost_ms: f64) -> Cluster {
    let clock = ManualClock::new();
    Cluster::builder()
        .brokers(3)
        .replication(3)
        .clock(clock.shared())
        .txn_marker_cost_ms(marker_cost_ms)
        .build()
}

/// `Cluster::produce` (acks=all, replicated to the ISR) then read-committed
/// `Cluster::fetch` from the leaders.
pub fn kbroker_cluster(w: &Workload, inputs: &Inputs) -> ClusterRung {
    let batches = batches(w, inputs);
    let n = inputs.records.len() as f64;
    let cluster = cluster(0.0);
    cluster.create_topic(INPUT, TopicConfig::new(w.input_partitions)).expect("create topic");
    let tps = cluster.partitions_of(INPUT).expect("topic");
    let t = Instant::now();
    for (p, batch) in batches {
        cluster.produce(&tps[p as usize], BatchMeta::plain(), batch).expect("produce");
    }
    let produce_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut fetched = 0;
    for tp in &tps {
        let end = cluster.latest_offset(tp).expect("leader");
        let mut from = 0;
        while from < end {
            let f =
                cluster.fetch(tp, from, FETCH_MAX, IsolationLevel::ReadCommitted).expect("fetch");
            fetched += std::hint::black_box(f.count());
            from = f.next_offset;
        }
    }
    let fetch_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(fetched, inputs.records.len(), "the cluster returns every produced record");
    ClusterRung { produce_ns_per_record: produce_ns / n, fetch_ns_per_record: fetch_ns / n }
}

/// Wall µs of each `Producer::commit_transaction` when every commit interval
/// of the load is one transaction writing the interval's records to the
/// output topic and to a changelog-shaped topic keyed like the input.
pub fn kbroker_txn(w: &Workload, inputs: &Inputs) -> Vec<f64> {
    const CHANGELOG: &str = "bench-changelog";
    let cluster = cluster(1.0);
    cluster.create_topic(OUTPUT, TopicConfig::new(w.output_partitions)).expect("create topic");
    cluster.create_topic(CHANGELOG, TopicConfig::new(w.input_partitions)).expect("create topic");
    let mut producer = Producer::new(cluster, ProducerConfig::transactional("perfbench-txn"));
    producer.init_transactions().expect("init transactions");
    let mut commits_us = Vec::new();
    let mut at = 0;
    for interval in commit_intervals(w, inputs) {
        producer.begin_transaction().expect("begin");
        for i in at..at + interval {
            let r = &inputs.records[i];
            let (key, value) = (&inputs.keys[r.key as usize], &inputs.values[i]);
            producer.send(OUTPUT, key.clone(), value.clone(), r.ts).expect("send output");
            producer.send(CHANGELOG, key.clone(), value.clone(), r.ts).expect("send changelog");
        }
        at += interval;
        producer.flush().expect("flush");
        let t = Instant::now();
        producer.commit_transaction().expect("commit");
        commits_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    commits_us
}

pub struct DriverRung {
    pub process_ns_per_record: f64,
    pub allocs_per_record: f64,
}

/// `SubTopologyDriver::process` per record and `flush_caches` at every
/// commit interval, with one `SubTopologyDriver` and store set per input
/// partition as the tasks build them, and no broker underneath.
pub fn kstreams_driver(w: &Workload, inputs: &Inputs) -> DriverRung {
    let topology = topology(w);
    let mut tasks: Vec<(SubTopologyDriver, TaskEnv)> = (0..w.input_partitions)
        .map(|p| {
            let driver = SubTopologyDriver::new(&topology, 0).expect("sub-topology 0");
            let mut env = TaskEnv::new(p);
            for name in &topology.subtopologies[0].stores {
                let (spec, _) = &topology.stores[name];
                let store = Store::new(spec.kind);
                let entry = StoreEntry::with_cache(store, spec.clone(), w.cache_max_entries);
                env.stores.insert(name.clone(), entry);
            }
            (driver, env)
        })
        .collect();
    let records: Vec<(usize, Bytes, Bytes, i64)> = inputs
        .records
        .iter()
        .zip(&inputs.values)
        .map(|(r, value)| {
            let key = &inputs.keys[r.key as usize];
            let p = partition_for_key(key, w.input_partitions) as usize;
            (p, key.clone(), value.clone(), r.ts)
        })
        .collect();
    let mut ns = 0u128;
    let mut allocs = 0u64;
    let mut at = 0;
    for interval in commit_intervals(w, inputs) {
        let a = sys::allocs();
        let t = Instant::now();
        for (p, key, value, ts) in &records[at..at + interval] {
            let (driver, env) = &mut tasks[*p];
            driver
                .process(env, INPUT, Some(key.clone()), Some(value.clone()), *ts)
                .expect("process");
        }
        for (driver, env) in &mut tasks {
            driver.flush_caches(env).expect("flush caches");
        }
        ns += t.elapsed().as_nanos();
        allocs += sys::allocs() - a;
        for (_, env) in &mut tasks {
            std::hint::black_box(env.outputs.len() + env.changelog.len());
            env.outputs.clear();
            env.changelog.clear();
        }
        at += interval;
    }
    let n = inputs.records.len() as f64;
    DriverRung { process_ns_per_record: ns as f64 / n, allocs_per_record: allocs as f64 / n }
}
