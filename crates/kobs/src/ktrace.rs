//! ktrace — deterministic hierarchical spans over the virtual clock.
//!
//! A [`Span`] is a named interval on a *track* (one row in the exported
//! timeline: `kstreams`, `worker` × index, `kbroker.txn`, `klog`), with an
//! optional parent forming a causal tree per commit cycle. Span ids come
//! from a per-run counter (reset by [`crate::reset`]), and every timestamp
//! is virtual microseconds (the simulation clock's `now_ms` × 1000, plus
//! deterministic sub-millisecond sequence offsets where the scheduler
//! needs to order parallel slot executions) — so a replayed seed produces
//! byte-identical span trees and byte-identical chrome JSON, serial or
//! parallel.
//!
//! An [`event!`](crate::event) is an *annotation*: a zero-duration span
//! recorded under the thread's current span (or on its own outside any
//! span). It lands in its parent's tree and in the export buffer, but it
//! never forms a tree of its own and never counts toward the critical
//! path. [`annotations`] reads the newest ones back (the simtest trace
//! tail).
//!
//! Three consumers sit on top of the store:
//!
//! - the **critical-path analyzer**: at every commit-cycle root finish it
//!   folds per-phase *self time* (duration minus direct-children duration)
//!   into an aggregate summary and the `kobs.critical_path.*` histogram
//!   family; self times tile the tree, so the per-phase breakdown sums
//!   back to the cycle total.
//! - the **flight recorder**: a bounded ring of the last
//!   [`FLIGHT_RECORDER_TREES`] completed span trees, dumped next to the
//!   repro line when a simtest oracle fails.
//! - the **chrome exporter** ([`crate::trace_export::chrome_json`]) over
//!   [`finished_spans`].
//!
//! Under the `off` feature every entry point is a no-op, field closures
//! never run, and the macros cost nothing.

use crate::json::{self, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Mutex;

/// Finished spans retained for export; older spans are evicted FIFO and
/// counted in `kobs.trace.spans_dropped` (see [`dropped_spans`]).
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Completed span trees kept by the flight recorder.
pub const FLIGHT_RECORDER_TREES: usize = 32;

/// Spans retained per recorded tree (largest-id spans win; the cap keeps a
/// pathological cycle from pinning the recorder).
pub const TREE_SPAN_CAP: usize = 512;

/// One typed field value on a span or annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl FieldValue {
    /// The value as JSON (chrome `args`, report trace tails).
    pub fn to_json(&self) -> Value {
        match self {
            FieldValue::I64(n) => json::num(*n as f64),
            FieldValue::U64(n) => json::num(*n as f64),
            FieldValue::Str(s) => json::str(s.clone()),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed (or in-flight) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Per-run monotone id (1-based; ids order spans by start).
    pub id: u64,
    /// Direct parent span id, if any.
    pub parent: Option<u64>,
    /// Root id of the tree this span belongs to (== `id` for roots).
    pub root: u64,
    /// Span name (`cycle`, `task`, `fetch`, `commit`, `markers`, ...).
    pub name: &'static str,
    /// Timeline row: `kstreams`, `worker`, `kbroker.txn`, `klog`.
    pub track: &'static str,
    /// Worker index for `worker`-track spans.
    pub worker: Option<u32>,
    /// Virtual start, microseconds.
    pub start_us: i64,
    /// Virtual end, microseconds (>= `start_us`).
    pub end_us: i64,
    /// Structured fields attached at span start.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Whether this is a zero-duration annotation ([`crate::event!`]).
    pub annotation: bool,
}

impl Span {
    /// Inclusive virtual duration in microseconds.
    pub fn duration_us(&self) -> i64 {
        self.end_us - self.start_us
    }

    /// The span as a JSON object (report trace tails).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![("id", json::num(self.id as f64))];
        if let Some(p) = self.parent {
            pairs.push(("parent", json::num(p as f64)));
        }
        pairs.extend([
            ("ts_us", json::num(self.start_us as f64)),
            ("dur_us", json::num(self.duration_us() as f64)),
            ("track", json::str(self.track)),
            ("name", json::str(self.name)),
        ]);
        let fields = self.fields.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect();
        pairs.push(("fields", Value::Obj(fields)));
        json::obj(pairs)
    }
}

/// One text line: `[ts_ms] track name k=v ...` (report trace tails).
impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {:<14} {:<18}", self.start_us / 1000, self.track, self.name)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Copyable reference to a started span. [`SpanHandle::NONE`] is the
/// disabled/absent handle; every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    id: u64,
}

impl SpanHandle {
    /// The disabled/absent handle; every operation on it is a no-op.
    pub const NONE: SpanHandle = SpanHandle { id: u64::MAX };

    /// Whether this is the disabled handle.
    pub fn is_none(self) -> bool {
        self.id == u64::MAX
    }

    /// The raw span id (`None` for the disabled handle).
    pub fn id(self) -> Option<u64> {
        if self.is_none() {
            None
        } else {
            Some(self.id)
        }
    }
}

/// Parent selector for [`start_span`].
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// A new root (one tree per commit cycle).
    Root,
    /// Child of the calling thread's innermost entered span (root if none).
    Current,
    /// Child of an explicit handle — used across threads, where the
    /// scheduler hands each worker slot the cycle root.
    Of(SpanHandle),
}

/// One completed span tree, root first, then the remaining spans in id
/// order. Held by the flight recorder and rendered next to repro lines.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root span of the tree.
    pub root: Span,
    /// Every span of the tree including the root, ascending id.
    pub spans: Vec<Span>,
    /// Spans discarded because the tree outgrew [`TREE_SPAN_CAP`].
    pub truncated: usize,
}

/// Aggregate critical-path accounting over every commit cycle of the run.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathSummary {
    /// Commit cycles analyzed (cycle trees containing a `commit` span).
    pub cycles: u64,
    /// Summed cycle-root duration, µs.
    pub total_us: i64,
    /// Per-phase self time summed over all commit cycles, name-ordered.
    /// Self times tile each tree, so these sum back to `total_us`.
    pub phases: Vec<(&'static str, i64)>,
    /// Longest causal chain (span names, root first) of the single
    /// longest commit cycle observed.
    pub longest_chain: Vec<&'static str>,
    /// Duration of that longest cycle, µs.
    pub longest_cycle_us: i64,
}

#[cfg_attr(feature = "off", allow(dead_code))]
struct Active {
    span: Span,
    /// Raised by finishing children so a parent can never end before the
    /// intervals nested inside it.
    min_end_us: i64,
}

#[derive(Default)]
#[cfg_attr(feature = "off", allow(dead_code))]
struct Store {
    next_id: u64,
    active: BTreeMap<u64, Active>,
    /// Finished non-root spans, waiting for their root to close.
    pending: BTreeMap<u64, Vec<Span>>,
    /// Finished spans in finish order; drained sorted for export.
    completed: VecDeque<Span>,
    dropped: u64,
    trees: VecDeque<SpanTree>,
    cp_cycles: u64,
    cp_total_us: i64,
    cp_phases: BTreeMap<&'static str, i64>,
    cp_longest_us: i64,
    cp_longest_chain: Vec<&'static str>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: Mutex<Store> = Mutex::new(Store {
        next_id: 0,
        active: BTreeMap::new(),
        pending: BTreeMap::new(),
        completed: VecDeque::new(),
        dropped: 0,
        trees: VecDeque::new(),
        cp_cycles: 0,
        cp_total_us: 0,
        cp_phases: BTreeMap::new(),
        cp_longest_us: 0,
        cp_longest_chain: Vec::new(),
    });
    &STORE
}

fn lock() -> std::sync::MutexGuard<'static, Store> {
    store().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static CURRENT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Start a span. `start_us` is virtual microseconds; children starting
/// "before" their parent (sub-ms sequence offsets) are clamped forward so
/// intervals always nest. The `fields` closure only runs when tracing is
/// compiled in.
#[allow(unused_variables)]
pub fn start_span<F>(
    start_us: i64,
    track: &'static str,
    worker: Option<u32>,
    parent: Parent,
    name: &'static str,
    fields: F,
) -> SpanHandle
where
    F: FnOnce() -> Vec<(&'static str, FieldValue)>,
{
    #[cfg(not(feature = "off"))]
    {
        let parent_id = match parent {
            Parent::Root => None,
            Parent::Current => current().id(),
            Parent::Of(h) => h.id(),
        };
        let mut st = lock();
        st.next_id += 1;
        let id = st.next_id;
        // Children inherit the parent's worker lane unless they carry
        // their own (a fetch span run inside worker 2's slot renders on
        // worker 2's timeline row).
        let (parent_id, root, start_us, worker) = match parent_id.and_then(|p| st.active.get(&p)) {
            Some(pa) => {
                (parent_id, pa.span.root, start_us.max(pa.span.start_us), worker.or(pa.span.worker))
            }
            // A dangling explicit parent (already finished) degrades to a
            // fresh root rather than a broken edge.
            None => (None, id, start_us, worker),
        };
        st.active.insert(
            id,
            Active {
                span: Span {
                    id,
                    parent: parent_id,
                    root,
                    name,
                    track,
                    worker,
                    start_us,
                    end_us: start_us,
                    fields: fields(),
                    annotation: false,
                },
                min_end_us: start_us,
            },
        );
        #[allow(clippy::needless_return)]
        return SpanHandle { id };
    }
    #[cfg(feature = "off")]
    {
        SpanHandle::NONE
    }
}

/// Finish a span at `end_us` (virtual µs). The end is clamped so it never
/// precedes the span's start or any finished child's end. Finishing a root
/// assembles its tree: flight recorder, critical-path accounting, and the
/// `kobs.critical_path.*` histograms all update here.
pub fn finish_span(handle: SpanHandle, end_us: i64) {
    finish(handle, end_us, false);
}

/// Record an annotation at `ts_us` (virtual µs): a span under the calling
/// thread's current span, started and finished at the same instant. Outside
/// any span it stays in the export buffer on its own, forming no
/// flight-recorder tree.
pub fn annotate<F>(ts_us: i64, track: &'static str, name: &'static str, fields: F)
where
    F: FnOnce() -> Vec<(&'static str, FieldValue)>,
{
    finish(start_span(ts_us, track, None, Parent::Current, name, fields), ts_us, true);
}

#[allow(unused_variables)]
fn finish(handle: SpanHandle, end_us: i64, annotation: bool) {
    #[cfg(not(feature = "off"))]
    {
        if handle.is_none() {
            return;
        }
        let mut st = lock();
        let Some(active) = st.active.remove(&handle.id) else {
            return;
        };
        let mut span = active.span;
        span.end_us = end_us.max(active.min_end_us).max(span.start_us);
        span.annotation = annotation;
        if let Some(parent) = span.parent {
            if let Some(pa) = st.active.get_mut(&parent) {
                pa.min_end_us = pa.min_end_us.max(span.end_us);
            }
        }
        if span.id != span.root {
            st.pending.entry(span.root).or_default().push(span.clone());
        } else if !annotation {
            let mut spans = st.pending.remove(&span.root).unwrap_or_default();
            spans.push(span.clone());
            spans.sort_by_key(|s| s.id);
            finish_root(&mut st, span.clone(), spans);
        }
        push_completed(&mut st, span);
    }
}

/// Append to the export buffer, evicting (and counting) the oldest span
/// when full. The count stays in the store: `kobs::snapshot` folds it in,
/// so an eviction never touches the registry lock.
#[cfg(not(feature = "off"))]
fn push_completed(st: &mut Store, span: Span) {
    if st.completed.len() == SPAN_CAPACITY {
        st.completed.pop_front();
        st.dropped += 1;
    }
    st.completed.push_back(span);
}

#[cfg(not(feature = "off"))]
fn finish_root(st: &mut Store, root: Span, mut spans: Vec<Span>) {
    let truncated = spans.len().saturating_sub(TREE_SPAN_CAP);
    if truncated > 0 {
        // Keep the newest spans (and always the root, which has the
        // smallest id of its tree by construction).
        let keep_from = spans.len() - TREE_SPAN_CAP;
        let mut kept: Vec<Span> = spans.split_off(keep_from);
        if !kept.iter().any(|s| s.id == root.id) {
            kept.insert(0, root.clone());
        }
        spans = kept;
    }
    if st.trees.len() == FLIGHT_RECORDER_TREES {
        st.trees.pop_front();
    }
    let tree = SpanTree { root, spans, truncated };
    if tree.spans.iter().any(|s| s.name == "commit" && !s.annotation) {
        account_critical_path(st, &tree);
    }
    st.trees.push_back(tree);
}

/// Per-phase self time: a span's duration minus its direct children's
/// durations. Summed over a tree the child durations telescope, so the
/// phase breakdown sums to the root duration *exactly* — which is why a
/// span whose siblings overlap it by a few µs is allowed to contribute a
/// slightly negative self time instead of being clamped. Annotations take
/// no time and are not phases, so they are skipped.
#[cfg(not(feature = "off"))]
fn account_critical_path(st: &mut Store, tree: &SpanTree) {
    let mut child_total: BTreeMap<u64, i64> = BTreeMap::new();
    for s in tree.spans.iter().filter(|s| !s.annotation) {
        if let Some(p) = s.parent {
            *child_total.entry(p).or_insert(0) += s.duration_us();
        }
    }
    st.cp_cycles += 1;
    st.cp_total_us += tree.root.duration_us();
    for s in tree.spans.iter().filter(|s| !s.annotation) {
        let self_us = s.duration_us() - child_total.get(&s.id).copied().unwrap_or(0);
        *st.cp_phases.entry(s.name).or_insert(0) += self_us;
        crate::observe(&format!("kobs.critical_path.{}_ms", s.name), self_us.max(0) / 1000);
    }
    crate::observe("kobs.critical_path.total_ms", tree.root.duration_us() / 1000);
    if tree.root.duration_us() >= st.cp_longest_us {
        st.cp_longest_us = tree.root.duration_us();
        st.cp_longest_chain = longest_chain(tree);
    }
}

/// The longest causal chain: from the root, repeatedly descend into the
/// longest direct child (smallest id breaks ties deterministically).
#[cfg(not(feature = "off"))]
fn longest_chain(tree: &SpanTree) -> Vec<&'static str> {
    let mut chain = vec![tree.root.name];
    let mut at = tree.root.id;
    loop {
        let next = tree
            .spans
            .iter()
            .filter(|s| s.parent == Some(at) && !s.annotation)
            .max_by_key(|s| (s.duration_us(), std::cmp::Reverse(s.id)));
        match next {
            Some(s) => {
                chain.push(s.name);
                at = s.id;
            }
            None => return chain,
        }
    }
}

/// Enter guard: pops the thread-local current-span stack on drop.
pub struct EnterGuard {
    pushed: bool,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if self.pushed {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Make `handle` the calling thread's current span until the guard drops;
/// `child_span!` and the klog append probes parent under it.
pub fn enter(handle: SpanHandle) -> EnterGuard {
    if handle.is_none() {
        return EnterGuard { pushed: false };
    }
    CURRENT.with(|c| c.borrow_mut().push(handle.id));
    EnterGuard { pushed: true }
}

/// The calling thread's innermost entered span.
pub fn current() -> SpanHandle {
    CURRENT.with(|c| c.borrow().last().map_or(SpanHandle::NONE, |id| SpanHandle { id: *id }))
}

/// Cheap check used by high-frequency probes (klog appends) to skip span
/// creation outside any traced lifecycle.
pub fn in_span() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Every finished span of the run so far, ascending id (bounded by
/// [`SPAN_CAPACITY`]; see [`dropped_spans`]).
pub fn finished_spans() -> Vec<Span> {
    let st = lock();
    let mut spans: Vec<Span> = st.completed.iter().cloned().collect();
    spans.sort_by_key(|s| s.id);
    spans
}

/// Finished spans evicted from the export buffer this run (exported as
/// the `kobs.trace.spans_dropped` counter by `kobs::snapshot`).
pub fn dropped_spans() -> u64 {
    lock().dropped
}

/// The newest `n` annotations still in the export buffer, in emission
/// order.
pub fn annotations(n: usize) -> Vec<Span> {
    let st = lock();
    let mut newest: Vec<Span> =
        st.completed.iter().rev().filter(|s| s.annotation).take(n).cloned().collect();
    newest.reverse();
    newest
}

/// The last `n` completed span trees, oldest first.
pub fn recent_trees(n: usize) -> Vec<SpanTree> {
    let st = lock();
    let skip = st.trees.len().saturating_sub(n);
    st.trees.iter().skip(skip).cloned().collect()
}

/// Aggregate critical-path summary, `None` until a commit cycle finished.
pub fn critical_path_summary() -> Option<CriticalPathSummary> {
    let st = lock();
    if st.cp_cycles == 0 {
        return None;
    }
    Some(CriticalPathSummary {
        cycles: st.cp_cycles,
        total_us: st.cp_total_us,
        phases: st.cp_phases.iter().map(|(k, v)| (*k, *v)).collect(),
        longest_chain: st.cp_longest_chain.clone(),
        longest_cycle_us: st.cp_longest_us,
    })
}

/// Render a span tree as indented text (flight-recorder dumps).
pub fn render_tree(tree: &SpanTree) -> String {
    let mut out = String::new();
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &tree.spans {
        let d = s.parent.and_then(|p| depth.get(&p).copied()).map_or(0, |pd| pd + 1);
        depth.insert(s.id, d);
        let indent = "  ".repeat(d);
        let _ = if s.annotation {
            write!(out, "{indent}@ {} [{}us]", s.name, s.start_us)
        } else {
            write!(
                out,
                "{indent}{} [{}..{}us, {}us]",
                s.name,
                s.start_us,
                s.end_us,
                s.duration_us()
            )
        };
        if let Some(w) = s.worker {
            let _ = write!(out, " worker={w}");
        }
        if s.track != tree.root.track {
            let _ = write!(out, " track={}", s.track);
        }
        for (k, v) in &s.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    if tree.truncated > 0 {
        let _ = writeln!(out, "... {} earlier spans truncated", tree.truncated);
    }
    out
}

/// Reset the store (run isolation; called from [`crate::reset`]). Ids
/// restart at 1, so a replayed seed reproduces identical trees.
pub fn clear() {
    let mut st = lock();
    *st = Store::default();
}

/// Start a root span from virtual *milliseconds*.
///
/// ```
/// let h = kobs::span!(12, "kstreams", "cycle", step = 3u64);
/// kobs::ktrace::finish_span(h, 14_000);
/// assert_eq!(kobs::ktrace::finished_spans().len(), kobs::ENABLED as usize);
/// # kobs::ktrace::clear();
/// ```
#[macro_export]
macro_rules! span {
    ($ts_ms:expr, $track:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::ktrace::start_span(
            ($ts_ms as i64) * 1000,
            $track,
            None,
            $crate::ktrace::Parent::Root,
            $name,
            || vec![$((stringify!($key), $crate::ktrace::FieldValue::from($val))),*],
        )
    };
}

/// Start a span under the thread's current entered span (root if none),
/// from virtual milliseconds.
#[macro_export]
macro_rules! child_span {
    ($ts_ms:expr, $track:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::ktrace::start_span(
            ($ts_ms as i64) * 1000,
            $track,
            None,
            $crate::ktrace::Parent::Current,
            $name,
            || vec![$((stringify!($key), $crate::ktrace::FieldValue::from($val))),*],
        )
    };
}

/// Record an annotation ([`annotate`]) from virtual milliseconds:
/// `component` becomes the span's track, `kind` its name.
///
/// ```
/// kobs::event!(17, "kbroker.txn", "txn_commit", pid = 4u64, partitions = 2usize);
/// assert_eq!(kobs::ktrace::annotations(1).len(), kobs::ENABLED as usize);
/// # kobs::ktrace::clear();
/// ```
#[macro_export]
macro_rules! event {
    ($ts_ms:expr, $component:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::ktrace::annotate(($ts_ms as i64) * 1000, $component, $kind, || {
            vec![$((stringify!($key), $crate::ktrace::FieldValue::from($val))),*]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn isolated() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        clear();
        guard
    }

    #[test]
    fn root_child_nesting_and_ids() {
        let _g = isolated();
        let root = crate::span!(10, "kstreams", "cycle", step = 1u64);
        let _e = enter(root);
        let child = crate::child_span!(10, "kstreams", "fetch");
        finish_span(child, 11_000);
        finish_span(root, 12_000);
        if !crate::ENABLED {
            assert!(root.is_none() && child.is_none());
            assert!(finished_spans().is_empty());
            return;
        }
        let spans = finished_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 1);
        assert_eq!(spans[0].name, "cycle");
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!(spans[1].root, 1);
        assert_eq!(spans[1].duration_us(), 1000);
    }

    #[test]
    fn parent_end_clamped_to_children() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(5, "kstreams", "cycle");
        let slot = start_span(5_003, "worker", Some(2), Parent::Of(root), "task", Vec::new);
        finish_span(slot, 5_004);
        // Root "finishes" at its start tick, but the slot extended to
        // 5_004us — the root must cover it.
        finish_span(root, 5_000);
        let spans = finished_spans();
        assert_eq!(spans[0].end_us, 5_004);
        assert_eq!(spans[1].worker, Some(2));
    }

    #[test]
    fn child_start_clamped_into_parent() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(5, "kstreams", "cycle");
        let slot = start_span(5_003, "worker", Some(0), Parent::Of(root), "task", Vec::new);
        let _e = enter(slot);
        // Virtual clock still reads 5ms inside the slot: the child would
        // start before its parent without the clamp.
        let fetch = crate::child_span!(5, "worker", "fetch");
        finish_span(fetch, 5_000);
        finish_span(slot, 5_004);
        finish_span(root, 6_000);
        let spans = finished_spans();
        let f = spans.iter().find(|s| s.name == "fetch").unwrap();
        let t = spans.iter().find(|s| s.name == "task").unwrap();
        assert!(f.start_us >= t.start_us && f.end_us <= t.end_us, "{f:?} not inside {t:?}");
    }

    #[test]
    fn critical_path_self_times_sum_to_total() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(0, "kstreams", "cycle");
        let _e = enter(root);
        let commit = crate::child_span!(0, "kstreams", "commit");
        let _e2 = enter(commit);
        let markers = crate::child_span!(1, "kbroker.txn", "markers");
        finish_span(markers, 7_000);
        finish_span(commit, 8_000);
        drop(_e2);
        finish_span(root, 10_000);
        let s = critical_path_summary().expect("one commit cycle");
        assert_eq!(s.cycles, 1);
        assert_eq!(s.total_us, 10_000);
        let phase_sum: i64 = s.phases.iter().map(|(_, us)| *us).sum();
        assert_eq!(phase_sum, s.total_us);
        assert_eq!(s.longest_chain, vec!["cycle", "commit", "markers"]);
        let markers_self = s.phases.iter().find(|(n, _)| *n == "markers").unwrap().1;
        assert_eq!(markers_self, 6_000);
    }

    #[test]
    fn flight_recorder_keeps_last_trees() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        for i in 0..(FLIGHT_RECORDER_TREES + 3) {
            let r = crate::span!(i as i64, "kstreams", "cycle");
            finish_span(r, (i as i64 + 1) * 1000);
        }
        let trees = recent_trees(usize::MAX);
        assert_eq!(trees.len(), FLIGHT_RECORDER_TREES);
        let text = render_tree(trees.last().unwrap());
        assert!(text.contains("cycle ["), "{text}");
    }

    #[test]
    fn replay_is_byte_identical() {
        let _g = isolated();
        let run = || {
            clear();
            let root = crate::span!(3, "kstreams", "cycle", step = 9u64);
            let _e = enter(root);
            let c = crate::child_span!(3, "kstreams", "commit");
            finish_span(c, 4_000);
            finish_span(root, 5_000);
            format!("{:?}", finished_spans())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn annotation_joins_its_parent_tree_but_not_the_critical_path() {
        let _g = isolated();
        let root = crate::span!(0, "kstreams", "cycle");
        let _e = enter(root);
        let commit = crate::child_span!(0, "kstreams", "commit");
        let _e2 = enter(commit);
        crate::event!(3, "kbroker.txn", "txn_commit", pid = 7u64);
        finish_span(commit, 2_000);
        drop(_e2);
        finish_span(root, 4_000);
        if !crate::ENABLED {
            assert!(annotations(8).is_empty() && finished_spans().is_empty());
            return;
        }
        let spans = finished_spans();
        let a = spans.iter().find(|s| s.annotation).expect("annotation recorded");
        assert_eq!((a.name, a.track, a.parent, a.root), ("txn_commit", "kbroker.txn", Some(2), 1));
        assert_eq!((a.start_us, a.end_us), (3_000, 3_000));
        // Like a zero-length child, it holds its parent open past 2 ms.
        assert_eq!(spans.iter().find(|s| s.name == "commit").unwrap().end_us, 3_000);
        let tree = recent_trees(1).pop().unwrap();
        assert_eq!(tree.spans.len(), 3);
        assert!(render_tree(&tree).contains("@ txn_commit [3000us] track=kbroker.txn pid=7"));
        let cp = critical_path_summary().unwrap();
        assert!(cp.phases.iter().all(|(n, _)| *n != "txn_commit"), "{:?}", cp.phases);
        assert_eq!(cp.longest_chain, vec!["cycle", "commit"]);
        assert_eq!(annotations(8), vec![a.clone()]);
    }

    #[test]
    fn root_annotations_form_no_tree_and_tail_in_emission_order() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let r = crate::span!(0, "kstreams", "cycle");
        finish_span(r, 1_000);
        for i in 0..40u64 {
            crate::event!(i as i64, "klog", "segment_roll", n = i);
        }
        assert_eq!(recent_trees(usize::MAX).len(), 1, "annotations must not push out trees");
        assert_eq!(finished_spans().len(), 41, "root annotations stay in the store");
        let tail = annotations(32);
        assert_eq!(tail.len(), 32);
        assert!(tail.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(tail.last().unwrap().fields, vec![("n", FieldValue::U64(39))]);
        assert_eq!(
            tail[0].to_string(),
            format!("[{:>8}] {:<14} {:<18} n=8", 8, "klog", "segment_roll")
        );
        let j = tail[0].to_json();
        assert_eq!(j.get("name").and_then(Value::as_str), Some("segment_roll"));
        assert_eq!(j.get("fields").unwrap().get("n").and_then(Value::as_f64), Some(8.0));
    }

    #[test]
    fn store_overflow_is_counted_exactly_in_the_snapshot() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let k = 7;
        for i in 0..(SPAN_CAPACITY + k) {
            let h = crate::span!(i as i64, "kstreams", "tick");
            finish_span(h, i as i64 * 1000);
        }
        assert_eq!(dropped_spans(), k as u64);
        assert_eq!(crate::snapshot().counter("kobs.trace.spans_dropped"), Some(k as u64));
        clear();
        assert_eq!(crate::snapshot().counter("kobs.trace.spans_dropped"), None);
    }

    #[test]
    fn off_build_is_noop() {
        let _g = isolated();
        if crate::ENABLED {
            return;
        }
        let mut ran = false;
        let h = start_span(0, "kstreams", None, Parent::Root, "cycle", || {
            ran = true;
            vec![]
        });
        assert!(h.is_none());
        assert!(!ran, "field closure must not run under kobs-off");
        finish_span(h, 10);
        assert!(finished_spans().is_empty());
        assert!(critical_path_summary().is_none());
        assert!(recent_trees(8).is_empty());
        crate::event!(0, "kstreams", "late", n = 1u64);
        assert!(annotations(8).is_empty());
        assert!(!in_span());
    }
}
