//! Pieces shared by the workloads: the run outcome, counter snapshots and
//! the repeated set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rm_runtime::alloc_counter::CountingAlloc;

use crate::stats;
use crate::trace::{now, Span, Tracer};

/// The process allocator: [`CountingAlloc`] while counting is on, plain
/// [`System`] otherwise. Every counted allocation is an atomic add on one
/// cache line that all threads share, traffic the library does not make on
/// its own; so only traced runs count, and the end-to-end metrics are
/// measured without the counter.
struct GatedAlloc {
    counting: AtomicBool,
    counter: CountingAlloc,
}

#[global_allocator]
static ALLOC: GatedAlloc = GatedAlloc {
    counting: AtomicBool::new(false),
    counter: CountingAlloc::new(),
};

/// Turns allocation counting on for the rest of the process.
pub fn count_allocations() {
    ALLOC.counting.store(true, Ordering::Relaxed);
}

impl GatedAlloc {
    fn counting(&self) -> bool {
        self.counting.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards verbatim to `System` or to `CountingAlloc`,
// which forwards to `System`; both paths place blocks with the same `System`
// allocator, so either may free or grow a block the other placed.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.counting() {
            // SAFETY: the caller's `alloc` contract, passed through.
            unsafe { self.counter.alloc(layout) }
        } else {
            // SAFETY: the caller's `alloc` contract, passed through.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` on either path (see above) and
        // the caller guarantees it was allocated with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if self.counting() {
            // SAFETY: the caller's `alloc_zeroed` contract, passed through.
            unsafe { self.counter.alloc_zeroed(layout) }
        } else {
            // SAFETY: the caller's `alloc_zeroed` contract, passed through.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.counting() {
            // SAFETY: the caller's `realloc` contract, passed through; the
            // block is a `System` block on either path.
            unsafe { self.counter.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: the caller's `realloc` contract, passed through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

/// Fan-out width of the offline grid: the machine's two cores.
pub const THREADS: usize = 2;

/// The seed of the generated venues. The venue is part of a workload's
/// definition; `--seed` varies the inputs that stream through it.
pub const VENUE_SEED: u64 = 2023;

/// Options of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunOptions {
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What a workload run reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the report line.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra report fields: key and a raw JSON value.
    pub info: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one operation; `ok == false` counts it failed and keeps the
    /// description `what` (up to a handful of them).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed, described by
    /// `what`.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Records a failed check that is not tied to one operation.
    pub fn fail(&mut self, what: String) {
        self.op(false, || what);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Reports the sample count, median, p90, p99 and the highest tail
    /// percentile the samples allow under `key` (`null` where the tail rule
    /// refuses a percentile).
    pub fn info_distribution(&mut self, key: &str, samples: &[f64]) {
        if samples.is_empty() {
            self.info(key, "null");
            return;
        }
        let at = |p: f64| {
            stats::percentile(samples, p).map_or("null".to_string(), |q| q.value.to_string())
        };
        let tail = stats::highest_tail(samples).map_or("null".to_string(), |t| {
            format!(
                "{{\"p\":{},\"value\":{},\"beyond\":{}}}",
                t.p, t.value, t.beyond
            )
        });
        self.info(
            key,
            format!(
                "{{\"samples\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"tail\":{}}}",
                samples.len(),
                stats::median(samples),
                at(90.0),
                at(99.0),
                tail
            ),
        );
    }

    /// Sets `name` to percentile `p` of `samples`, enforcing the tail rule:
    /// too few samples beyond it is a failed check, not a guess.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        match stats::percentile(samples, p) {
            Some(q) => self.set(name, q.value),
            None => self.fail(format!(
                "{name}: {} samples leave fewer than {} beyond p{p}",
                samples.len(),
                stats::MIN_BEYOND
            )),
        }
    }
}

/// A snapshot of the process-wide counters the layer metrics are built from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub dispatches: u64,
    pub tickets: u64,
    pub reclaimed: u64,
    /// Buffer-pool checkouts and hits of the calling thread (f64 buffers).
    pub takes: u64,
    pub hits: u64,
}

impl Counters {
    pub fn read() -> Self {
        let pool = rm_runtime::pool_stats();
        let buffers = rm_tensor::buffer_pool_stats::<f64>();
        Self {
            allocs: ALLOC.counter.allocations(),
            alloc_bytes: ALLOC.counter.allocated_bytes(),
            dispatches: pool.dispatches,
            tickets: pool.tickets,
            reclaimed: pool.tickets_reclaimed,
            takes: buffers.takes,
            hits: buffers.hits,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            dispatches: self.dispatches - earlier.dispatches,
            tickets: self.tickets - earlier.tickets,
            reclaimed: self.reclaimed - earlier.reclaimed,
            takes: self.takes - earlier.takes,
            hits: self.hits - earlier.hits,
        }
    }

    pub fn add(&mut self, delta: Counters) {
        self.allocs += delta.allocs;
        self.alloc_bytes += delta.alloc_bytes;
        self.dispatches += delta.dispatches;
        self.tickets += delta.tickets;
        self.reclaimed += delta.reclaimed;
        self.takes += delta.takes;
        self.hits += delta.hits;
    }

    /// Writes the per-operation counter metrics for `ops` operations.
    pub fn report(&self, out: &mut Outcome, ops: u64) {
        let ops = ops.max(1) as f64;
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        out.set("tensor.allocs_per_op", self.allocs as f64 / ops);
        out.set(
            "tensor.alloc_mb_per_op",
            self.alloc_bytes as f64 / ops / (1024.0 * 1024.0),
        );
        out.set("tensor.buffer_hit_share", share(self.hits, self.takes));
        out.set("runtime.dispatches_per_op", self.dispatches as f64 / ops);
        out.set(
            "runtime.tickets_reclaimed_share",
            share(self.reclaimed, self.tickets),
        );
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `setup` `times` times (the set-up index is the operation id of its
/// spans), reports the median wall time as `setup_s` and returns the last
/// result. The set-up spans are moved into `out.spans`, so the spans a
/// workload takes afterwards cover its measured phase alone.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    tracer: &Tracer,
    times: usize,
    setup: impl Fn(u64) -> T,
) -> T {
    assert!(times > 0, "a run sets up at least once");
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        // Free the previous set-up first, so peak memory holds one of them.
        drop(last.take());
        let start = now();
        last = Some(tracer.span("bench::setup", i as u64, || setup(i as u64)));
        walls.push(secs(start));
    }
    out.set("setup_s", stats::median(&walls));
    out.info("setup_walls_s", format!("{walls:?}"));
    out.spans = tracer.take();
    last.expect("at least one set-up")
}

/// Sets `metric` to the median over set-ups of the summed duration of the
/// set-up spans named `name`.
pub fn set_per_setup(out: &mut Outcome, metric: &'static str, name: &str) {
    let mut per: BTreeMap<u64, f64> = BTreeMap::new();
    for s in out.spans.iter().filter(|s| s.name == name) {
        *per.entry(s.op).or_default() += s.duration_ns() as f64 * 1e-9;
    }
    let values: Vec<f64> = per.into_values().collect();
    if !values.is_empty() {
        out.set(metric, stats::median(&values));
    }
}

/// Apportions the measured phase's self time to layers and keeps its spans
/// next to the set-up's.
pub fn finish_trace(out: &mut Outcome, spans: Vec<Span>) {
    crate::report::self_shares(out, &spans);
    out.spans.extend(spans);
}

/// Whether two optional points are bitwise equal.
pub fn same_point(
    a: Option<radiomap_core::prelude::Point>,
    b: Option<radiomap_core::prelude::Point>,
) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
        (None, None) => true,
        _ => false,
    }
}
