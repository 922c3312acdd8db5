//! Unified observability registry: named counters, gauges,
//! log2-bucketed histograms, and a per-session event trace.
//!
//! Before this module, every layer kept its own one-off stats —
//! `rt::metrics()`, `TxStats`, `ServeStats`, `SessionTrace` — with no
//! way to correlate them or ask "where did the time go *per phase*".
//! The registry is the one sink they all feed:
//!
//! * **Counters** (`counter_add`) — monotone event counts: frames
//!   sent/received, retransmits, send errors, admissions, evictions.
//! * **Gauges** (`gauge_set`) — point-in-time levels: open sessions.
//!   Two gauges are read from the kernel at snapshot time instead, for
//!   the UDP sockets this thread serves (`watch_socket`):
//!   `net.udp.rcvbuf_bytes` (receive buffer granted) and
//!   `net.udp.rx_kernel_drops` (datagrams the kernel dropped for want
//!   of it).
//! * **Histograms** (`observe`) — distributions with bounded-error
//!   percentiles ([`hist::Histogram`]): poll latency, ready-queue
//!   depth, timer lag, batch drain size, ACK RTT, per-phase session
//!   durations.
//! * **Trace** (`trace_*`) — per-session span events into a bounded
//!   [`trace::TraceRing`], drained to JSONL by the CLI/benches.
//!
//! The registry is **per-thread**, matching the runtime's
//! one-executor-per-thread design: all writes go to the calling
//! thread's own registry behind an uncontended mutex (no cross-thread
//! contention on the hot path). Each thread's registry is also
//! published to a process-wide list, so the daemon's stats reporter can
//! gather every worker shard's view with [`snapshot_all`] — before
//! this, stats recorded on worker threads silently vanished from the
//! main thread's [`snapshot`]. (Bench harnesses that need strict
//! isolation from unrelated threads instead collect each worker's own
//! [`snapshot`] at join and combine them with [`Snapshot::merge`].)
//! Counters and the trace are always cheap; the high-frequency *timing*
//! instrumentation in the executor (`Instant::now` per poll) is
//! additionally gated behind [`set_timing`] so tests and production
//! paths that don't read it don't pay for it.
//!
//! Everything is read out via [`snapshot`]; [`Snapshot::delta`] gives
//! per-interval views (satellite fix for `rt::metrics()` being
//! cumulative).

pub mod hist;
pub mod trace;

pub use hist::Histogram;
pub use trace::{TraceEvent, TraceKind, TraceRing, DEFAULT_TRACE_CAPACITY};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    timing: bool,
    ring: Option<TraceRing>,
    epoch: Instant,
    /// `(inode, granted receive buffer)` of each watched UDP socket.
    sockets: Vec<(u64, u64)>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            timing: false,
            ring: None,
            epoch: Instant::now(),
            sockets: Vec::new(),
        }
    }

    /// Copies the registry, plus the watched sockets for
    /// [`with_socket_gauges`] to read once the lock is released.
    fn copy(&self) -> (Snapshot, Vec<(u64, u64)>) {
        let snap = Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            hists: self.hists.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        (snap, self.sockets.clone())
    }
}

/// Adds the watched sockets' kernel figures to `snap`: one read of
/// `/proc/self/net/udp` when there are any, done outside the registry
/// lock so the owning thread's hot path never waits on the file.
fn with_socket_gauges((mut snap, sockets): (Snapshot, Vec<(u64, u64)>)) -> Snapshot {
    if !sockets.is_empty() {
        let inodes: Vec<u64> = sockets.iter().map(|&(inode, _)| inode).collect();
        let rcvbuf = sockets.iter().map(|&(_, bytes)| bytes).sum();
        snap.gauges.insert("net.udp.rcvbuf_bytes".to_string(), rcvbuf);
        snap.gauges
            .insert("net.udp.rx_kernel_drops".to_string(), crate::udp::kernel_drops(&inodes));
    }
    snap
}

/// One thread's registry, shareable so [`snapshot_all`] can read it
/// from the gathering thread. The mutex is uncontended in steady state
/// (only the owning thread writes; readers are rare stats flushes).
struct ThreadRegistry {
    inner: Mutex<Registry>,
}

/// Every live thread's registry (weak: a finished thread's registry —
/// and its data — goes away with the thread; collect its [`snapshot`]
/// before joining it if the numbers must survive).
static ALL_REGISTRIES: Mutex<Vec<Weak<ThreadRegistry>>> = Mutex::new(Vec::new());

thread_local! {
    static REGISTRY: Arc<ThreadRegistry> = {
        let tr = Arc::new(ThreadRegistry { inner: Mutex::new(Registry::new()) });
        ALL_REGISTRIES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::downgrade(&tr));
        tr
    };
}

fn lock(tr: &ThreadRegistry) -> std::sync::MutexGuard<'_, Registry> {
    tr.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn with_reg<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut lock(r)))
}

/// Adds `n` to the named counter (creating it at zero).
pub fn counter_add(name: &'static str, n: u64) {
    with_reg(|reg| *reg.counters.entry(name).or_insert(0) += n);
}

/// Sets the named gauge to `v`.
pub fn gauge_set(name: &'static str, v: u64) {
    with_reg(|reg| {
        reg.gauges.insert(name, v);
    });
}

/// Records `v` into the named histogram (creating it empty).
pub fn observe(name: &'static str, v: u64) {
    with_reg(|reg| reg.hists.entry(name).or_default().record(v));
}

/// A UDP socket whose kernel figures the calling thread's snapshots
/// report, until this guard drops.
#[derive(Debug)]
pub(crate) struct SocketWatch {
    reg: Weak<ThreadRegistry>,
    inode: u64,
}

/// Adds the socket with `inode` (granted `rcvbuf` bytes of receive
/// buffer) to this thread's registry: every later [`snapshot`] sums its
/// buffer into `net.udp.rcvbuf_bytes` and reads its kernel drop count
/// into `net.udp.rx_kernel_drops`. [`reset`] keeps the watch.
pub(crate) fn watch_socket(inode: u64, rcvbuf: u64) -> SocketWatch {
    REGISTRY.with(|tr| {
        lock(tr).sockets.push((inode, rcvbuf));
        SocketWatch { reg: Arc::downgrade(tr), inode }
    })
}

impl Drop for SocketWatch {
    fn drop(&mut self) {
        if let Some(tr) = self.reg.upgrade() {
            let mut reg = lock(&tr);
            if let Some(at) = reg.sockets.iter().position(|&(inode, _)| inode == self.inode) {
                reg.sockets.swap_remove(at);
            }
        }
    }
}

/// Enables or disables the high-frequency timing instrumentation
/// (executor poll latency / timer lag — anything needing an
/// `Instant::now` per event). Off by default, per-thread.
pub fn set_timing(on: bool) {
    with_reg(|reg| reg.timing = on);
}

/// Whether timing instrumentation is on for this thread.
pub fn timing_enabled() -> bool {
    with_reg(|reg| reg.timing)
}

/// Clears all counters, gauges, histograms and the trace ring, and
/// restarts the trace clock — **this thread only**. The timing flag
/// and trace enablement are preserved.
pub fn reset() {
    with_reg(|reg| {
        reg.counters.clear();
        reg.gauges.clear();
        reg.hists.clear();
        reg.epoch = Instant::now();
        if let Some(ring) = &mut reg.ring {
            *ring = TraceRing::new(DEFAULT_TRACE_CAPACITY);
        }
    });
}

/// Turns on event tracing with a ring of `capacity` events (replacing
/// any existing ring).
pub fn enable_trace(capacity: usize) {
    with_reg(|reg| reg.ring = Some(TraceRing::new(capacity)));
}

/// Whether event tracing is on for this thread.
pub fn trace_enabled() -> bool {
    with_reg(|reg| reg.ring.is_some())
}

/// Drains all buffered trace events (empty when tracing is off).
pub fn take_events() -> Vec<TraceEvent> {
    with_reg(|reg| reg.ring.as_mut().map(|ring| ring.drain()).unwrap_or_default())
}

/// Events lost to ring overflow since tracing was enabled.
pub fn trace_dropped() -> u64 {
    with_reg(|reg| reg.ring.as_ref().map(|ring| ring.dropped()).unwrap_or(0))
}

fn emit(session: u64, node: u8, kind: TraceKind) {
    with_reg(|reg| {
        if reg.ring.is_none() {
            return;
        }
        let ts_us = reg.epoch.elapsed().as_micros() as u64;
        if let Some(ring) = &mut reg.ring {
            ring.push(TraceEvent { ts_us, session, node, kind });
        }
    });
}

/// Emits a `session_start` event (no-op when tracing is off).
pub fn trace_session_start(session: u64, node: u8, role: &'static str) {
    emit(session, node, TraceKind::SessionStart { role });
}

/// Emits a `phase` transition event.
pub fn trace_phase(session: u64, node: u8, phase: &'static str) {
    emit(session, node, TraceKind::Phase { phase });
}

/// Emits a (timing-class) `retransmit` event.
pub fn trace_retransmit(session: u64, node: u8, seq: u64, attempt: u32) {
    emit(session, node, TraceKind::Retransmit { seq, attempt });
}

/// Emits an `abort` event with the structured reason kind.
pub fn trace_abort(session: u64, node: u8, kind: String) {
    emit(session, node, TraceKind::Abort { kind });
}

/// Emits a `session_end` event.
pub fn trace_end(session: u64, node: u8, completed: bool, l: u32) {
    emit(session, node, TraceKind::SessionEnd { completed, l });
}

/// Maps a role + dynamic phase name to the static histogram name its
/// duration is recorded under (`phase.<role>.<phase>`), so the hot
/// path never allocates metric names.
pub fn phase_metric(role: &str, phase: &str) -> &'static str {
    match (role, phase) {
        ("coord", "start barrier") => "phase.coord.start_barrier",
        ("coord", "x settle") => "phase.coord.x_settle",
        ("coord", "report collection") => "phase.coord.report_collection",
        ("coord", "z fountain") => "phase.coord.z_fountain",
        ("coord", "fin barrier") => "phase.coord.fin_barrier",
        ("term", "await start") => "phase.term.await_start",
        ("term", "x settle") => "phase.term.x_settle",
        ("term", "await plan") => "phase.term.await_plan",
        ("term", "z fountain") => "phase.term.z_fountain",
        ("term", "await fin") => "phase.term.await_fin",
        _ => "phase.other",
    }
}

/// A point-in-time copy of the registry's counters, gauges and
/// histograms.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

/// Copies the current thread's registry contents.
pub fn snapshot() -> Snapshot {
    with_socket_gauges(with_reg(|reg| reg.copy()))
}

/// Gathers a merged [`Snapshot`] across **every live thread's**
/// registry ([`Snapshot::merge`] semantics: counters and gauges add,
/// histograms merge), pruning registries of threads that have exited.
///
/// This is the daemon stats path: the serve workers each run their own
/// runtime on their own thread, and the reporter on the main thread
/// would otherwise see only its own (empty) registry. Note it is
/// process-wide — a test harness running unrelated threads in parallel
/// should prefer per-thread [`snapshot`]s merged explicitly.
pub fn snapshot_all() -> Snapshot {
    let mut regs = ALL_REGISTRIES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out = Snapshot::default();
    regs.retain(|weak| {
        let Some(tr) = weak.upgrade() else { return false };
        let copy = lock(&tr).copy();
        out.merge(&with_socket_gauges(copy));
        true
    });
    out
}

impl Snapshot {
    /// What happened since `earlier`: counters and histogram buckets
    /// subtract; gauges keep their current (latest) value.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot { gauges: self.gauges.clone(), ..Snapshot::default() };
        for (k, v) in &self.counters {
            let prev = earlier.counters.get(k).copied().unwrap_or(0);
            let d = v.saturating_sub(prev);
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.hists {
            let d = match earlier.hists.get(k) {
                Some(prev) => h.delta(prev),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.hists.insert(k.clone(), d);
            }
        }
        out
    }

    /// Merges another snapshot into this one (counters add, gauges add
    /// — levels on disjoint threads stack — histograms merge).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders the snapshot as a compact JSON object:
    /// `{"counters": {..}, "gauges": {..}, "hists": {name: summary}}`.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let gauges: Vec<String> =
            self.gauges.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let hists: Vec<String> =
            self.hists.iter().map(|(k, h)| format!("\"{k}\": {}", h.summary_json())).collect();
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"hists\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip_and_delta() {
        reset();
        counter_add("t.frames", 3);
        counter_add("t.frames", 2);
        gauge_set("t.open", 7);
        observe("t.lat_us", 100);
        observe("t.lat_us", 200);
        let first = snapshot();
        assert_eq!(first.counters["t.frames"], 5);
        assert_eq!(first.gauges["t.open"], 7);
        assert_eq!(first.hists["t.lat_us"].count(), 2);

        counter_add("t.frames", 10);
        observe("t.lat_us", 400);
        gauge_set("t.open", 4);
        let second = snapshot();
        let d = second.delta(&first);
        assert_eq!(d.counters["t.frames"], 10);
        assert_eq!(d.gauges["t.open"], 4, "gauge keeps latest value");
        assert_eq!(d.hists["t.lat_us"].count(), 1);
        reset();
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn trace_off_is_silent_and_on_records() {
        reset();
        // Default: off — emitters are no-ops.
        trace_phase(1, 0, "x settle");
        assert!(take_events().is_empty());
        enable_trace(8);
        trace_session_start(1, 0, "coordinator");
        trace_phase(1, 0, "x settle");
        trace_end(1, 0, true, 2);
        let evs = take_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind.name(), "session_start");
        assert_eq!(evs[2].kind.name(), "session_end");
    }

    #[test]
    fn phase_metric_is_total() {
        for (role, phase) in [
            ("coord", "start barrier"),
            ("coord", "z fountain"),
            ("term", "await plan"),
            ("term", "x settle"),
        ] {
            assert!(phase_metric(role, phase).starts_with("phase."));
            assert_ne!(phase_metric(role, phase), "phase.other");
        }
        assert_eq!(phase_metric("coord", "nonsense"), "phase.other");
    }

    /// The worker-thread-stats bugfix pin: values recorded on a spawned
    /// thread must be visible in the gathered snapshot while the worker
    /// lives — before per-thread registration they vanished entirely.
    #[test]
    fn snapshot_all_sees_worker_thread_stats() {
        counter_add("test.mt.main_counter", 2);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            counter_add("test.mt.worker_counter", 41);
            counter_add("test.mt.worker_counter", 1);
            observe("test.mt.worker_hist", 7);
            ready_tx.send(()).expect("main alive");
            // Stay alive until the main thread has gathered: a dead
            // thread's registry is pruned, by design.
            done_rx.recv().ok();
        });
        ready_rx.recv().expect("worker recorded");
        let all = snapshot_all();
        assert_eq!(all.counters["test.mt.worker_counter"], 42);
        assert_eq!(all.hists["test.mt.worker_hist"].count(), 1);
        assert!(all.counters["test.mt.main_counter"] >= 2);
        // The plain per-thread snapshot still does NOT see the worker.
        assert!(!snapshot().counters.contains_key("test.mt.worker_counter"));
        done_tx.send(()).expect("worker alive");
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    fn watched_socket_reports_kernel_figures_until_dropped() {
        let sock = crate::udp::AsyncUdpSocket::bind("127.0.0.1:0").expect("bind");
        let Some(inode) = sock.inode() else { return }; // no /proc here
        let watch = watch_socket(inode, 1234);
        let snap = snapshot();
        assert!(snap.gauges["net.udp.rcvbuf_bytes"] >= 1234);
        assert!(snap.gauges.contains_key("net.udp.rx_kernel_drops"));
        drop(watch);
        let rest = snapshot().gauges.get("net.udp.rcvbuf_bytes").copied().unwrap_or(0);
        assert_eq!(rest, snap.gauges["net.udp.rcvbuf_bytes"] - 1234);
    }

    #[test]
    fn snapshot_json_shape() {
        reset();
        counter_add("a.b", 1);
        observe("c.d", 50);
        let js = snapshot().to_json();
        for needle in ["\"counters\"", "\"gauges\"", "\"hists\"", "\"a.b\": 1", "\"p999\""] {
            assert!(js.contains(needle), "missing {needle} in {js}");
        }
    }
}
