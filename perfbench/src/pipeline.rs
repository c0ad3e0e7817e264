//! One round of the whole pipeline: set up a 3-broker, replication-3 cluster
//! on a virtual clock, then drive produce → `KafkaStreamsApp::step` →
//! read-committed probe poll until the reference check passes.
//!
//! In virtual time the load is an open loop: every record is sent at its
//! scheduled virtual ms, whatever the program did meanwhile (a commit whose
//! marker fan-out advances the clock makes the generator catch up). In wall
//! time it is a closed loop on one thread: send, step, poll, advance.

use crate::check::{Checker, Tally};
use crate::gen::Inputs;
use crate::sys;
use crate::workload::{Topology as Shape, Workload};
use kbroker::{Cluster, Consumer, ConsumerConfig, Producer, ProducerConfig, TopicConfig};
use kstreams::topology::Topology;
use kstreams::{KafkaStreamsApp, StreamsBuilder, StreamsConfig, StreamsMetrics, TimeWindows};
use simprims::{Clock, ManualClock};
use std::sync::Arc;
use std::time::Instant;

pub const INPUT: &str = "bench-in";
pub const OUTPUT: &str = "bench-out";
pub const STORE: &str = "bench-state";

/// Set-ups per round: set-up takes about a millisecond, so one round times
/// several (keeping the last for the load) for a steady median.
pub const SETUPS_PER_ROUND: usize = 5;

/// Virtual ms the tail may run past the load before the round gives up on
/// the reference check (the missing outputs then count as failures).
const TAIL_LIMIT_MS: i64 = 60_000;

pub fn topology(w: &Workload) -> Arc<Topology> {
    match w.topology {
        Shape::Reduce => bench::stateful_reduce_topology(INPUT, OUTPUT, STORE),
        Shape::WindowCount { size_ms, grace_ms } => {
            let builder = StreamsBuilder::new();
            builder
                .stream::<String, i64>(INPUT)
                .group_by_key()
                .windowed_by(TimeWindows::of(size_ms).grace(grace_ms))
                .count(STORE)
                .to_stream()
                .to(OUTPUT);
            Arc::new(builder.build().expect("valid windowed-count topology"))
        }
    }
}

/// Per-layer costs of one traced round, timed around the calls the round
/// makes into each layer.
#[derive(Debug, Default)]
pub struct LayerTrace {
    pub producer_ns: u64,
    pub producer_allocs: u64,
    pub step_ns: u64,
    pub step_allocs: u64,
    pub poll_ns: u64,
    pub poll_allocs: u64,
    /// Wall µs of each step that committed / did not commit.
    pub commit_step_us: Vec<f64>,
    pub process_step_us: Vec<f64>,
    pub steps: u64,
    /// Summed virtual ms records were sent after they were due.
    pub generator_late_ms: i64,
    /// `(busy, critical)` ns of the scheduler's parallel sections.
    pub sched: (u64, u64),
    pub obs: kobs::Snapshot,
}

pub struct Round {
    /// Wall seconds of each of the round's [`SETUPS_PER_ROUND`] set-ups.
    pub setup_s: Vec<f64>,
    /// Wall seconds in the generator's sends, the steps and the probe polls.
    pub wall_s: f64,
    /// Process CPU µs over the same calls.
    pub cpu_us: i64,
    pub inputs: u64,
    /// Virtual ms from an input's creation to its output becoming visible:
    /// the round's median and 99th percentile, and how many outputs.
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_samples: usize,
    pub tally: Tally,
    /// Public calls that returned an error.
    pub errors: u64,
    pub streams: StreamsMetrics,
    pub trace: Option<LayerTrace>,
}

impl Round {
    pub fn failed(&self) -> u64 {
        self.tally.total() + self.errors
    }

    /// The per-layer trace of a traced round.
    pub fn layers(&self) -> &LayerTrace {
        self.trace.as_ref().expect("a traced round")
    }

    pub fn throughput_rps(&self) -> f64 {
        self.inputs as f64 / self.wall_s
    }
}

struct Rig {
    clock: ManualClock,
    app: KafkaStreamsApp,
    producer: Producer,
    probe: Consumer,
}

/// Cluster build, topic creation, app start and the steps until the app
/// owns every input partition; the load generator and probe clients too.
fn set_up(w: &Workload, topology: &Arc<Topology>) -> Result<Rig, String> {
    let clock = ManualClock::new();
    let cluster = Cluster::builder()
        .brokers(3)
        .replication(3)
        .clock(clock.shared())
        // ~1 ms of modelled RPC per commit marker, as in Figure 5.a: the
        // fan-out cost that makes latency grow with output partitions.
        .txn_marker_cost_ms(1.0)
        .build();
    let err = |e: kbroker::BrokerError| e.to_string();
    cluster.create_topic(INPUT, TopicConfig::new(w.input_partitions)).map_err(err)?;
    cluster.create_topic(OUTPUT, TopicConfig::new(w.output_partitions)).map_err(err)?;
    let mut config = StreamsConfig::new("perfbench")
        .with_commit_interval_ms(w.commit_interval_ms)
        .with_max_poll_records(100_000)
        .with_producer_batch_size(64)
        .with_cache_max_entries(w.cache_max_entries);
    if w.exactly_once {
        config = config.exactly_once();
    }
    if w.workers > 1 {
        config = config.with_num_worker_threads(w.workers);
    }
    let mut app = KafkaStreamsApp::new(cluster.clone(), topology.clone(), config, "instance-0");
    app.start().map_err(|e| e.to_string())?;
    let mut steps = 0;
    while app.task_ids().len() < w.input_partitions as usize {
        if steps == 10 {
            return Err(format!("app owns {} tasks after {steps} steps", app.task_ids().len()));
        }
        app.step().map_err(|e| e.to_string())?;
        steps += 1;
    }
    let producer = Producer::new(
        cluster.clone(),
        ProducerConfig { idempotent: false, batch_size: 64, ..ProducerConfig::default() },
    );
    let mut probe = Consumer::new(
        cluster.clone(),
        "probe",
        ConsumerConfig::default().read_committed().with_max_poll_records(100_000),
    );
    probe.assign(cluster.partitions_of(OUTPUT).map_err(err)?).map_err(err)?;
    Ok(Rig { clock, app, producer, probe })
}

pub fn run_round(
    w: &Workload,
    topology: &Arc<Topology>,
    inputs: &Inputs,
    traced: bool,
) -> Result<Round, String> {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut rig = None;
    for _ in 0..SETUPS_PER_ROUND {
        drop(rig.take());
        kobs::reset();
        let t = Instant::now();
        rig = Some(set_up(w, topology)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Rig { clock, mut app, mut producer, mut probe } = rig.expect("at least one set-up");
    let base = inputs.base_ms;
    if clock.now_ms() > base {
        return Err(format!("set-up ran to virtual {} ms, past the load start", clock.now_ms()));
    }
    clock.set(base);

    let mut checker = Checker::new(w, inputs);
    let records = &inputs.records;
    let mut trace = traced.then(LayerTrace::default);
    let mut latencies_ms = Vec::with_capacity(records.len());
    let mut polled = Vec::new();
    let mut errors = 0u64;
    let mut wall_ns = 0u64;
    let mut cpu_us = 0i64;
    let mut next = 0;
    loop {
        let due = clock.now_ms() - base;
        let allocs0 = sys::allocs();
        let cpu0 = sys::cpu_us();
        let t0 = Instant::now();
        let first = next;
        while next < records.len() && records[next].send_ms <= due {
            let r = &records[next];
            let key = inputs.keys[r.key as usize].clone();
            let value = inputs.values[next].clone();
            errors += u64::from(producer.send(INPUT, key, value, r.ts).is_err());
            next += 1;
        }
        if next > first {
            errors += u64::from(producer.flush().is_err());
        }
        let t1 = Instant::now();
        let allocs1 = sys::allocs();
        let committed = match app.step() {
            Ok(summary) => summary.committed,
            Err(_) => {
                errors += 1;
                false
            }
        };
        let t2 = Instant::now();
        let allocs2 = sys::allocs();
        loop {
            match probe.poll() {
                Ok(batch) if batch.is_empty() => break,
                Ok(batch) => polled.extend(batch),
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        let t3 = Instant::now();
        cpu_us += sys::cpu_us() - cpu0;
        wall_ns += (t3 - t0).as_nanos() as u64;
        if let Some(tr) = trace.as_mut() {
            tr.producer_ns += (t1 - t0).as_nanos() as u64;
            tr.step_ns += (t2 - t1).as_nanos() as u64;
            tr.poll_ns += (t3 - t2).as_nanos() as u64;
            tr.producer_allocs += allocs1 - allocs0;
            tr.step_allocs += allocs2 - allocs1;
            tr.poll_allocs += sys::allocs() - allocs2;
            let step_us = (t2 - t1).as_nanos() as f64 / 1e3;
            if committed {
                tr.commit_step_us.push(step_us);
            } else {
                tr.process_step_us.push(step_us);
            }
            tr.steps += 1;
            tr.generator_late_ms +=
                records[first..next].iter().map(|r| due - r.send_ms).sum::<i64>();
        }

        let visible_ms = (clock.now_ms() - base) as f64;
        for rec in polled.drain(..) {
            if let Some(i) = checker.observe(rec.key.as_deref(), rec.value.as_deref()) {
                latencies_ms.push(visible_ms - records[i].create_ms);
            }
        }
        if next == records.len() && checker.complete() {
            break;
        }
        if clock.now_ms() - base > records.last().map_or(0, |r| r.send_ms) + TAIL_LIMIT_MS {
            break;
        }
        clock.advance(1);
    }

    let streams = app.metrics();
    if let Some(tr) = trace.as_mut() {
        tr.sched = app.scheduler_timings();
        tr.obs = kobs::snapshot();
    }
    errors += u64::from(app.close().is_err());
    Ok(Round {
        setup_s,
        wall_s: wall_ns as f64 / 1e9,
        cpu_us,
        inputs: records.len() as u64,
        latency_p50_ms: crate::quantile(&mut latencies_ms, 0.50),
        latency_p99_ms: crate::quantile(&mut latencies_ms, 0.99),
        latency_samples: latencies_ms.len(),
        tally: checker.tally(streams.late_dropped),
        errors,
        streams,
        trace,
    })
}
