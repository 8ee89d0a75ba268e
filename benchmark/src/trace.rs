//! Spans recorded *from outside the program*: around every call the
//! benchmark makes into a layer's public functions. Each span carries both
//! clocks (host ns since the tracer's epoch, and the calling context's
//! virtual ns), the id of the span that caused it, and the id of the
//! request/batch it belongs to. Spans stay in memory and are written out
//! when the workload ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spash_analysis::json::Json;
use spash_index_api::{BatchOp, BatchResult, IndexError, PersistentIndex};
use spash_pmem::MemCtx;

/// Spans written per trace file; per-name totals always cover all spans.
const FILE_SPAN_CAP: usize = 20_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (a phase root).
    pub parent: u32,
    pub name: &'static str,
    /// Request or batch identifier shared by every span of one request.
    pub req: u64,
    pub h0: u64,
    pub h1: u64,
    pub v0: u64,
    pub v1: u64,
    /// Operations the call covered.
    pub n: u32,
    /// Another task ran while this span was open (the scheduler moved the
    /// baton), so its host extent includes that task's work.
    pub preempted: bool,
}

/// An open span: close it with [`Tracer::end`].
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    req: u64,
    h0: u64,
    v0: u64,
    /// Span events seen so far: by every thread, and by this one.
    events: (u64, u64),
}

thread_local! {
    /// Open span ids on this OS thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// Virtual `(start, end)` of this thread's latest index call, so a
    /// service `deliver` callback can split its batch's latency.
    static LAST_INDEX_CALL: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
    /// Span begin/end events this thread has emitted.
    static OWN_EVENTS: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Parent for top-level spans of scheduler tasks (which run on their
    /// own OS threads and so start with an empty stack).
    phase_root: AtomicU32,
    /// Span begin/end events emitted by all threads.
    events: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name aggregate. Self time = the span minus the part its child
/// spans cover. Virtual time belongs to the calling context's own clock,
/// so every span counts; host time is wall time, so the `clean_*` sums
/// leave out spans during which the scheduler ran another task.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub ops: u64,
    pub virt_ns: u64,
    pub virt_self_ns: u64,
    pub clean_count: u64,
    pub clean_ops: u64,
    pub clean_host_ns: u64,
    pub clean_host_self_ns: u64,
}

impl Totals {
    /// Host ns per op over the spans no other task interrupted.
    pub fn host_ns_per_op(&self) -> f64 {
        if self.clean_ops == 0 {
            0.0
        } else {
            self.clean_host_ns as f64 / self.clean_ops as f64
        }
    }
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            phase_root: AtomicU32::new(0),
            events: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Count one span event; returns the totals before it.
    fn event(&self) -> (u64, u64) {
        let own = OWN_EVENTS.with(|c| c.replace(c.get() + 1));
        (self.events.fetch_add(1, Ordering::Relaxed), own)
    }

    fn begin(&self, name: &'static str, req: u64, v0: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let p = s
                .last()
                .copied()
                .unwrap_or_else(|| self.phase_root.load(Ordering::Relaxed));
            s.push(id);
            p
        });
        Open {
            id,
            parent,
            name,
            req,
            events: self.event(),
            h0: self.host_now(),
            v0,
        }
    }

    fn end(&self, open: Open, v1: u64, n: u32) {
        let h1 = self.host_now();
        let (all, own) = self.event();
        // Events in between that this thread did not emit: another task
        // held the baton for part of the span.
        let preempted = all - open.events.0 != own - open.events.1;
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans must nest");
        });
        self.spans.lock().expect("tracer poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            req: open.req,
            h0: open.h0,
            h1,
            v0: open.v0,
            v1,
            n,
            preempted,
        });
    }

    /// Drop an open span without recording it.
    fn cancel(&self, open: Open) {
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans must nest");
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut child_host: BTreeMap<u32, u64> = BTreeMap::new();
        let mut child_virt: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_host.entry(s.parent).or_default() += s.h1 - s.h0;
            *child_virt.entry(s.parent).or_default() += s.v1.saturating_sub(s.v0);
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in spans.iter() {
            let t = out.entry(s.name).or_default();
            let (h, v) = (s.h1 - s.h0, s.v1.saturating_sub(s.v0));
            t.count += 1;
            t.ops += s.n as u64;
            t.virt_ns += v;
            t.virt_self_ns += v.saturating_sub(child_virt.get(&s.id).copied().unwrap_or(0));
            if !s.preempted {
                t.clean_count += 1;
                t.clean_ops += s.n as u64;
                t.clean_host_ns += h;
                t.clean_host_self_ns +=
                    h.saturating_sub(child_host.get(&s.id).copied().unwrap_or(0));
            }
        }
        out
    }

    /// The trace file: per-name totals over every span, then the first
    /// [`FILE_SPAN_CAP`] spans in completion order with parent ids.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let totals = self.totals();
        let spans = self.spans.lock().expect("tracer poisoned");
        let int = |v: u64| Json::Int(v);
        let totals_json = totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), int(t.count)),
                        ("ops".into(), int(t.ops)),
                        ("virt_ns".into(), int(t.virt_ns)),
                        ("virt_self_ns".into(), int(t.virt_self_ns)),
                        ("uninterrupted_count".into(), int(t.clean_count)),
                        ("uninterrupted_ops".into(), int(t.clean_ops)),
                        ("uninterrupted_host_ns".into(), int(t.clean_host_ns)),
                        (
                            "uninterrupted_host_self_ns".into(),
                            int(t.clean_host_self_ns),
                        ),
                    ]),
                )
            })
            .collect();
        let rows = spans
            .iter()
            .take(FILE_SPAN_CAP)
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), int(s.id as u64)),
                    ("parent".into(), int(s.parent as u64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("req".into(), int(s.req)),
                    ("host_start_ns".into(), int(s.h0)),
                    ("host_end_ns".into(), int(s.h1)),
                    ("virt_start_ns".into(), int(s.v0)),
                    ("virt_end_ns".into(), int(s.v1)),
                    ("ops".into(), int(s.n as u64)),
                    ("interrupted".into(), Json::Bool(s.preempted)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), int(seed)),
            ("span_count".into(), int(spans.len() as u64)),
            (
                "spans_written".into(),
                int(spans.len().min(FILE_SPAN_CAP) as u64),
            ),
            ("totals".into(), Json::Obj(totals_json)),
            ("spans".into(), Json::Arr(rows)),
        ])
    }
}

/// A span the benchmark may or may not be recording: every method is a
/// no-op in an untraced run, so call sites read the same either way.
pub struct Scope<'a> {
    open: Option<(&'a Tracer, Open)>,
    /// A phase root: scheduler tasks started while it is open (on their
    /// own OS threads, so with an empty span stack) parent to it.
    phase: bool,
}

/// Open a span around a call into a layer.
pub fn begin<'a>(tracer: Option<&'a Tracer>, name: &'static str, req: u64, v0: u64) -> Scope<'a> {
    Scope {
        open: tracer.map(|t| (t, t.begin(name, req, v0))),
        phase: false,
    }
}

/// Open a phase root on the calling thread.
pub fn begin_phase<'a>(tracer: Option<&'a Tracer>, name: &'static str, v0: u64) -> Scope<'a> {
    let mut scope = begin(tracer, name, 0, v0);
    scope.phase = true;
    if let Some((t, open)) = &scope.open {
        t.phase_root.store(open.id, Ordering::Relaxed);
    }
    scope
}

impl Scope<'_> {
    /// Close the span at virtual time `v1`, having covered `n` ops.
    pub fn end(self, v1: u64, n: u32) {
        if let Some((t, open)) = self.open {
            if self.phase {
                t.phase_root.store(0, Ordering::Relaxed);
            }
            t.end(open, v1, n);
        }
    }

    /// Close a span that has no virtual extent of its own (the callee
    /// gave the benchmark no context to read the virtual clock from).
    pub fn end_host_only(self, n: u32) {
        let v0 = self.open.as_ref().map_or(0, |(_, o)| o.v0);
        self.end(v0, n);
    }

    /// Drop the span without recording it (the call did no work).
    pub fn cancel(self) {
        if let Some((t, open)) = self.open {
            t.cancel(open);
        }
    }
}

/// Virtual `(start, end)` of the calling thread's latest traced index call.
pub fn last_index_call() -> (u64, u64) {
    LAST_INDEX_CALL.with(|c| *c.borrow())
}

/// The `core` boundary: an index adapter that records one span per call
/// into `I`'s public `PersistentIndex` surface. Handed to the drivers and
/// to `Service::new` in traced runs only; untraced runs use `I` directly,
/// so end-to-end numbers carry no tracing cost.
pub struct Traced<I: PersistentIndex> {
    inner: Arc<I>,
    tracer: Arc<Tracer>,
    /// Off during set-up of a long-lived owner (the service), so only the
    /// timed window is recorded.
    recording: AtomicBool,
}

impl<I: PersistentIndex> Traced<I> {
    pub fn new(inner: Arc<I>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            recording: AtomicBool::new(true),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn call<R>(
        &self,
        name: &'static str,
        n: u32,
        ctx: &mut MemCtx,
        f: impl FnOnce(&I, &mut MemCtx) -> R,
    ) -> R {
        if !self.recording.load(Ordering::Relaxed) {
            return f(&self.inner, ctx);
        }
        let v0 = ctx.now();
        let open = self.tracer.begin(name, 0, v0);
        let r = f(&self.inner, ctx);
        let v1 = ctx.now();
        self.tracer.end(open, v1, n);
        LAST_INDEX_CALL.with(|c| *c.borrow_mut() = (v0, v1));
        r
    }
}

impl<I: PersistentIndex> PersistentIndex for Traced<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.call("core.insert", 1, ctx, |i, ctx| i.insert(ctx, key, value))
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.call("core.update", 1, ctx, |i, ctx| i.update(ctx, key, value))
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        self.call("core.get", 1, ctx, |i, ctx| i.get(ctx, key, out))
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        self.call("core.remove", 1, ctx, |i, ctx| i.remove(ctx, key))
    }

    fn entries(&self) -> u64 {
        self.inner.entries()
    }

    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }

    fn run_batch(&self, ctx: &mut MemCtx, ops: &[BatchOp<'_>], out: &mut Vec<BatchResult>) {
        self.call("core.run_batch", ops.len() as u32, ctx, |i, ctx| {
            i.run_batch(ctx, ops, out)
        })
    }
}
