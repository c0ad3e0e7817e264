//! Reference checker: what the read-committed output must be, computed by a
//! serial reference execution over the generated inputs, and a tally of
//! every output that disagrees with it.

use crate::gen::{key_id, Inputs};
use crate::workload::{Topology, Workload};
use std::collections::HashMap;

/// Outputs that disagreed with the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Outputs delivered a second time (or aborted data made visible).
    pub duplicate: u64,
    /// Expected outputs never delivered.
    pub missing: u64,
    /// Outputs naming no input, or a value the reference never produces.
    pub wrong: u64,
}

impl Tally {
    pub fn total(&self) -> u64 {
        self.duplicate + self.missing + self.wrong
    }
}

pub enum Checker {
    Reduce(ReduceCheck),
    Window(WindowCheck),
}

impl Checker {
    pub fn new(w: &Workload, inputs: &Inputs) -> Self {
        match w.topology {
            Topology::Reduce => Checker::Reduce(ReduceCheck::new(inputs, w.keys.count())),
            Topology::WindowCount { size_ms, grace_ms } => {
                Checker::Window(WindowCheck::new(inputs, w.input_partitions, size_ms, grace_ms))
            }
        }
    }

    /// Check one output record; returns the index of the latest input behind
    /// it when the output is correct.
    pub fn observe(&mut self, key: Option<&[u8]>, value: Option<&[u8]>) -> Option<usize> {
        let value = value.and_then(|v| <[u8; 8]>::try_from(v).ok()).map(i64::from_be_bytes);
        match self {
            Checker::Reduce(c) => c.observe(key, value),
            Checker::Window(c) => c.observe(key, value),
        }
    }

    /// Every expected output has been delivered.
    pub fn complete(&self) -> bool {
        match self {
            Checker::Reduce(c) => c.matched == c.seen.len(),
            Checker::Window(c) => c.complete == c.windows.len(),
        }
    }

    /// Final tally; `late_dropped` is what the program reports it dropped.
    pub fn tally(&self, late_dropped: u64) -> Tally {
        match self {
            Checker::Reduce(c) => Tally { missing: (c.seen.len() - c.matched) as u64, ..c.tally },
            Checker::Window(c) => Tally {
                missing: (c.windows.len() - c.complete) as u64,
                // A drop set that differs from the reference shows up here
                // or, when counts happen to match, in a window's final count.
                wrong: c.tally.wrong + late_dropped.abs_diff(c.late_dropped),
                ..c.tally
            },
        }
    }

    #[cfg(test)]
    /// Records the reference drops as late (0 for the reduce).
    pub fn reference_late_dropped(&self) -> u64 {
        match self {
            Checker::Reduce(_) => 0,
            Checker::Window(c) => c.late_dropped,
        }
    }
}

/// Stateful reduce: each input gives exactly one output, the running sum of
/// its key. Values are positive, so a sum names exactly one input.
pub struct ReduceCheck {
    /// Per key: `(running sum, input index)` in input order.
    sums: Vec<Vec<(i64, u32)>>,
    seen: Vec<bool>,
    matched: usize,
    tally: Tally,
}

impl ReduceCheck {
    fn new(inputs: &Inputs, keys: usize) -> Self {
        let mut sums: Vec<Vec<(i64, u32)>> = vec![Vec::new(); keys];
        for (i, r) in inputs.records.iter().enumerate() {
            let per_key = &mut sums[r.key as usize];
            let prev = per_key.last().map_or(0, |&(s, _)| s);
            per_key.push((prev + r.value, i as u32));
        }
        Self { sums, seen: vec![false; inputs.records.len()], matched: 0, tally: Tally::default() }
    }

    fn observe(&mut self, key: Option<&[u8]>, value: Option<i64>) -> Option<usize> {
        let found = key.and_then(key_id).zip(value).and_then(|(k, v)| {
            let per_key = self.sums.get(k as usize)?;
            let at = per_key.binary_search_by_key(&v, |&(s, _)| s).ok()?;
            Some(per_key[at].1 as usize)
        });
        let Some(i) = found else {
            self.tally.wrong += 1;
            return None;
        };
        if std::mem::replace(&mut self.seen[i], true) {
            self.tally.duplicate += 1;
            return None;
        }
        self.matched += 1;
        Some(i)
    }
}

/// Tumbling windowed count: the last revision of every (key, window) must
/// equal the number of its records the reference accepts within grace, and
/// revisions must only grow.
pub struct WindowCheck {
    index: HashMap<(u32, i64), usize>,
    /// Per window: accepted input indices, in processing order.
    windows: Vec<Vec<u32>>,
    /// Per window: the last count delivered.
    last: Vec<i64>,
    complete: usize,
    late_dropped: u64,
    tally: Tally,
}

impl WindowCheck {
    fn new(inputs: &Inputs, partitions: u32, size_ms: i64, grace_ms: i64) -> Self {
        // A task's stream time is the largest timestamp its partition has
        // shown, this record included; a record is dropped when its window
        // closed before it arrived (window end + grace <= stream time).
        let mut stream_time = vec![i64::MIN; partitions as usize];
        let mut index = HashMap::new();
        let mut windows: Vec<Vec<u32>> = Vec::new();
        let mut late_dropped = 0;
        for (i, r) in inputs.records.iter().enumerate() {
            let p = kbroker::topic::partition_for_key(&inputs.keys[r.key as usize], partitions);
            let st = &mut stream_time[p as usize];
            *st = (*st).max(r.ts);
            let start = r.ts - r.ts.rem_euclid(size_ms);
            if start + size_ms + grace_ms <= *st {
                late_dropped += 1;
                continue;
            }
            let slot = *index.entry((r.key, start)).or_insert_with(|| {
                windows.push(Vec::new());
                windows.len() - 1
            });
            windows[slot].push(i as u32);
        }
        let last = vec![0; windows.len()];
        Self { index, windows, last, complete: 0, late_dropped, tally: Tally::default() }
    }

    fn observe(&mut self, key: Option<&[u8]>, count: Option<i64>) -> Option<usize> {
        let found = key.filter(|k| k.len() > 8).zip(count).and_then(|(k, c)| {
            let (name, start) = k.split_at(k.len() - 8);
            let start = i64::from_be_bytes(start.try_into().ok()?);
            Some((*self.index.get(&(key_id(name)?, start))?, c))
        });
        let Some((slot, count)) = found else {
            self.tally.wrong += 1;
            return None;
        };
        let last = self.last[slot];
        let total = self.windows[slot].len() as i64;
        if count == last {
            self.tally.duplicate += 1;
            return None;
        }
        if count < last || count > total {
            self.tally.wrong += 1;
            return None;
        }
        self.last[slot] = count;
        if count == total {
            self.complete += 1;
        }
        Some(self.windows[slot][count as usize - 1] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, key_bytes, value_bytes, BASE_MS};
    use crate::workload::find;

    fn windowed_key(key: u32, start: i64) -> Vec<u8> {
        let mut k = key_bytes(key).to_vec();
        k.extend_from_slice(&start.to_be_bytes());
        k
    }

    #[test]
    fn reduce_check_counts_one_duplicate_one_missing_and_one_wrong() {
        let w = find("eos-reduce-dense").expect("workload");
        let inputs = generate(w, 11);
        let mut check = Checker::new(w, &inputs);
        let mut sums = vec![0i64; w.keys.count()];
        let outputs: Vec<(u32, i64)> = inputs
            .records
            .iter()
            .map(|r| {
                sums[r.key as usize] += r.value;
                (r.key, sums[r.key as usize])
            })
            .collect();
        // Drop output 5, deliver output 9 twice, and corrupt output 20.
        for (i, &(k, v)) in outputs.iter().enumerate() {
            let v = if i == 20 { v + 1_000_000_000 } else { v };
            let reps = match i {
                5 => 0,
                9 => 2,
                _ => 1,
            };
            for _ in 0..reps {
                check.observe(Some(&key_bytes(k)), Some(&value_bytes(v)));
            }
        }
        assert!(!check.complete());
        // Output 20 was corrupted, so input 20 is missing too.
        assert_eq!(check.tally(0), Tally { duplicate: 1, missing: 2, wrong: 1 });
    }

    #[test]
    fn reduce_check_passes_a_correct_stream() {
        let w = find("eos-fanout-sparse").expect("workload");
        let inputs = generate(w, 2);
        let mut check = Checker::new(w, &inputs);
        let mut sums = vec![0i64; w.keys.count()];
        for r in &inputs.records {
            sums[r.key as usize] += r.value;
            let v = value_bytes(sums[r.key as usize]);
            assert!(check.observe(Some(&key_bytes(r.key)), Some(&v)).is_some());
        }
        assert!(check.complete());
        assert_eq!(check.tally(0), Tally::default());
    }

    #[test]
    fn window_check_counts_one_duplicate_one_missing_and_one_wrong() {
        let w = find("alos-window-ooo").expect("workload");
        let inputs = generate(w, 5);
        let mut check = Checker::new(w, &inputs);
        let Checker::Window(c) = &check else { unreachable!("window workload") };
        let mut finals: Vec<((u32, i64), i64)> =
            c.index.iter().map(|(&kw, &slot)| (kw, c.windows[slot].len() as i64)).collect();
        finals.sort_unstable();
        let late = c.late_dropped;
        assert!(late > 0, "the workload drops some records as late");
        for (i, &((k, start), total)) in finals.iter().enumerate() {
            let key = windowed_key(k, start);
            match i {
                // Never delivered: missing.
                0 => {}
                // Final revision delivered twice: duplicate.
                1 => {
                    check.observe(Some(&key), Some(&value_bytes(total)));
                    check.observe(Some(&key), Some(&value_bytes(total)));
                }
                // A count above the reference: wrong, and the window stays
                // incomplete, so it is also missing.
                2 => {
                    check.observe(Some(&key), Some(&value_bytes(total + 1)));
                }
                _ => {
                    check.observe(Some(&key), Some(&value_bytes(total)));
                }
            }
        }
        assert_eq!(check.tally(late), Tally { duplicate: 1, missing: 2, wrong: 1 });
        // Reporting a different number of late drops is wrong as well.
        assert_eq!(check.tally(late + 3).wrong, 4);
    }

    #[test]
    fn window_reference_drops_only_records_behind_grace() {
        let w = find("alos-window-ooo").expect("workload");
        let inputs = generate(w, 9);
        let check = Checker::new(w, &inputs);
        let dropped = check.reference_late_dropped();
        let late = inputs.records.iter().filter(|r| r.ts < BASE_MS + r.send_ms).count() as u64;
        // Only out-of-order records can be late, and with 500 ms of lateness
        // against 200 ms of grace some of them are.
        assert!(dropped > 0 && dropped < late, "dropped {dropped} of {late} out-of-order");
    }
}
