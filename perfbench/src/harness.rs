//! One measured run: daemons on a `serve` thread, the closed-loop load
//! generator and coordinator node on the calling (`coord`) thread, one
//! loopback UDP socket per node.
//!
//! Timeline of a run, all on the coordinator's clock:
//!
//! ```text
//! setup | warm-up | measured window [t0, t1) | grace
//! ```
//!
//! Set-up is the work of bringing the nodes up: binding the sockets,
//! building and starting the daemons, and building the coordinator
//! node. [`setup_probe`] times it on one thread. A run splits the same
//! work over its two threads, and each hand-off between them can land on
//! an idle CPU with cold caches: that moved a run's set-up time 2-3x
//! from one process to the next, while the one-thread figure repeats.
//!
//! Sessions launched in the warm-up never count. Both threads read their
//! counters at the same planned instants `t0` and `t1`. At `t1` the
//! clients stop launching; the grace lets daemons flush the outcomes of
//! sessions that finished just before `t1` (a terminal reports after its
//! post-`Fin` linger). Sessions still running are then dropped with the
//! runtime, never waited out.

use std::cell::{Cell, RefCell};
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use thinair_net::rt;
use thinair_net::telemetry;
use thinair_net::udp::AsyncUdpSocket;
use thinair_net::{
    NetError, Node, ServeHandle, ServeLimits, Server, SessionConfig, SessionOutcome,
    SharedTransport, Snapshot, UdpTransport,
};

use crate::sysinfo;
use crate::tally::Summary;
use crate::tap::{BenchTransport, SharedTap, Tap};
use crate::workload::{Seeds, Workload};

/// Coordinator outcomes in the window whose `SessionTrace` is kept for
/// the plan and GF replay probes.
pub const TRACE_SAMPLES: usize = 64;
/// Time after the window for daemons to flush their last outcomes: the
/// terminal's post-`Fin` linger (12 × 40 ms retransmit) plus margin.
pub const GRACE: Duration = Duration::from_millis(1000);

/// How long the load runs around its measured window.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Load before the window opens.
    pub warmup: Duration,
    /// The measured window.
    pub window: Duration,
    /// Attach the timing taps and turn on the runtime's timing
    /// instrumentation.
    pub traced: bool,
}

/// One coordinator call.
#[derive(Debug)]
pub struct SessionRecord {
    /// Session id.
    pub id: u64,
    /// When the client called `Node::coordinate`.
    pub launched: Instant,
    /// When the call returned, if it did before the run ended.
    pub finished: Option<Instant>,
    /// The call's result.
    pub outcome: Option<Result<Summary, String>>,
}

/// What one thread did inside the measured window.
#[derive(Debug, Default)]
pub struct ThreadWindow {
    /// When the thread read its counters at the window's start and end.
    pub marks: Option<(Instant, Instant)>,
    /// Wall time between the two marks, ns.
    pub wall_ns: u64,
    /// CPU time of the thread between the marks, ns.
    pub cpu_ns: u64,
    /// Executor work in the window.
    pub rt: rt::Metrics,
    /// Bits the thread's nodes put on the wire.
    pub wire_bits: u64,
    /// Sends the sockets refused or dropped.
    pub send_errors: u64,
    /// Datagrams that failed frame validation.
    pub invalid_frames: u64,
    /// The thread's telemetry registry over the window (traced runs;
    /// empty otherwise).
    pub telemetry: Snapshot,
    /// The transport tap (traced runs).
    pub tap: Option<Tap>,
    /// Process user + system CPU time between the marks, ms.
    pub process_cpu_ms: f64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Window start, as the coordinator thread read it.
    pub t0: Instant,
    /// Window end, as the coordinator thread read it.
    pub t1: Instant,
    /// Every coordinator call, warm-up included.
    pub records: Vec<SessionRecord>,
    /// Every outcome the daemons reported.
    pub daemon_outcomes: Vec<Summary>,
    /// The first agreed coordinator outcomes of the window, traces
    /// included, for the replay probes.
    pub samples: Vec<SessionOutcome>,
    /// The `coord` thread's window.
    pub coord: ThreadWindow,
    /// The `serve` thread's window.
    pub serve: ThreadWindow,
    /// Most sessions open at once on any one daemon.
    pub peak_open: u64,
}

/// Counter marks of one thread at the window start.
struct Mark {
    at: Instant,
    cpu_ns: u64,
    process_cpu_ms: f64,
    rt: rt::Metrics,
    wire_bits: u64,
    send_errors: u64,
    invalid_frames: u64,
}

type Shared = SharedTransport<BenchTransport>;

fn wire(nodes: &[Shared]) -> (u64, u64, u64) {
    nodes.iter().fold((0, 0, 0), |(bits, errs, inv), t| {
        (bits + t.with(|t| t.wire_bits()), errs + t.send_errors(), inv + t.invalid_frames())
    })
}

impl Mark {
    /// Marks the window start on this thread; a traced run also resets
    /// the thread's telemetry and starts its tap.
    fn start(nodes: &[Shared], tap: &Option<SharedTap>) -> Mark {
        if let Some(tap) = tap {
            telemetry::set_timing(true);
            telemetry::reset();
            tap.borrow_mut().set_active(true);
        }
        let (wire_bits, send_errors, invalid_frames) = wire(nodes);
        Mark {
            at: Instant::now(),
            cpu_ns: sysinfo::thread_cpu_ns(),
            process_cpu_ms: sysinfo::process_cpu_ms(),
            rt: rt::metrics(),
            wire_bits,
            send_errors,
            invalid_frames,
        }
    }

    /// Closes the window on this thread.
    fn finish(self, nodes: &[Shared], tap: &Option<SharedTap>) -> ThreadWindow {
        let end = Instant::now();
        let cpu_ns = sysinfo::thread_cpu_ns().saturating_sub(self.cpu_ns);
        let process_cpu_ms = sysinfo::process_cpu_ms() - self.process_cpu_ms;
        let rt = rt::metrics().delta(&self.rt);
        let (wire_bits, send_errors, invalid_frames) = wire(nodes);
        let (telemetry, tap) = match tap {
            Some(tap) => {
                let snap = telemetry::snapshot();
                telemetry::set_timing(false);
                let mut tap = tap.borrow_mut();
                tap.set_active(false);
                let fresh = Tap::new(tap.thread(), tap.epoch());
                (snap, Some(std::mem::replace(&mut *tap, fresh)))
            }
            None => (Snapshot::default(), None),
        };
        ThreadWindow {
            marks: Some((self.at, end)),
            wall_ns: (end - self.at).as_nanos() as u64,
            cpu_ns,
            rt,
            wire_bits: wire_bits - self.wire_bits,
            send_errors: send_errors - self.send_errors,
            invalid_frames: invalid_frames - self.invalid_frames,
            telemetry,
            tap,
            process_cpu_ms,
        }
    }
}

/// The serve thread's share of a run.
#[derive(Default)]
struct ServeReport {
    window: ThreadWindow,
    outcomes: Vec<Summary>,
    peak_open: u64,
}

struct ServeSide {
    sockets: Vec<AsyncUdpSocket>,
    addrs: Vec<SocketAddr>,
    cfg: SessionConfig,
    limits: ServeLimits,
    seed: u64,
    traced: bool,
    epoch: Instant,
}

/// The daemons of one run, started on the current executor.
struct Daemons {
    nodes: Vec<Shared>,
    handles: Vec<ServeHandle>,
    outcomes: Rc<RefCell<Vec<Summary>>>,
}

/// Builds a daemon on each socket (nodes `1..`) and spawns it, with a
/// task that collects its outcomes.
fn start_daemons(side: ServeSide, tap: &Option<SharedTap>) -> Daemons {
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let mut nodes = Vec::new();
    let mut handles = Vec::new();
    for (i, socket) in side.sockets.into_iter().enumerate() {
        let udp = UdpTransport::new(socket, side.addrs.clone(), (i + 1) as u8);
        let t = SharedTransport::new(BenchTransport::new(udp, tap.clone()));
        let mut server = Server::new(t.clone(), side.cfg.clone(), side.seed, side.limits);
        let mut rx = server.outcomes();
        handles.push(server.handle());
        nodes.push(t);
        rt::spawn(server.run());
        let outcomes = outcomes.clone();
        rt::spawn(async move {
            while let Some(out) = rx.recv().await {
                outcomes.borrow_mut().push(Summary::of(&out));
            }
        });
    }
    Daemons { nodes, handles, outcomes }
}

/// Builds the coordinator node (node 0) and starts its receive pump.
fn start_coordinator(
    socket: AsyncUdpSocket,
    addrs: Vec<SocketAddr>,
    tap: &Option<SharedTap>,
) -> (Node<BenchTransport>, Shared) {
    let t =
        SharedTransport::new(BenchTransport::new(UdpTransport::new(socket, addrs, 0), tap.clone()));
    let node = Node::new_shared(t.clone());
    node.start_pump();
    (node, t)
}

/// Binds one loopback socket per node; the first is the coordinator's.
fn bind(nodes: u8) -> io::Result<(AsyncUdpSocket, Vec<AsyncUdpSocket>, Vec<SocketAddr>)> {
    let mut sockets: Vec<AsyncUdpSocket> =
        (0..nodes).map(|_| AsyncUdpSocket::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    let addrs = sockets.iter().map(|s| s.local_addr()).collect::<io::Result<_>>()?;
    let coord = sockets.remove(0);
    Ok((coord, sockets, addrs))
}

/// Times one set-up of `wl`'s nodes, in seconds: binding a socket per
/// node, then, on one new executor, building and starting every daemon
/// and the coordinator node. The nodes are torn down unused.
pub fn setup_probe(wl: &Workload, seeds: &Seeds) -> io::Result<f64> {
    let cfg = wl.session_config(seeds);
    let start = Instant::now();
    let (coord_socket, sockets, addrs) = bind(wl.nodes)?;
    let side = ServeSide {
        sockets,
        addrs: addrs.clone(),
        cfg,
        limits: wl.serve_limits(),
        seed: seeds.serve,
        traced: false,
        epoch: start,
    };
    Ok(rt::block_on(async move {
        let _daemons = start_daemons(side, &None);
        let _coord = start_coordinator(coord_socket, addrs, &None);
        start.elapsed().as_secs_f64()
    }))
}

/// The `serve` thread: every daemon on one executor.
fn serve_thread(
    side: ServeSide,
    ready: mpsc::Sender<()>,
    go: mpsc::Receiver<(Instant, Instant)>,
    stop: &AtomicBool,
) -> ServeReport {
    rt::block_on(async move {
        let tap = side.traced.then(|| Rc::new(RefCell::new(Tap::new("serve", side.epoch))));
        let Daemons { nodes, handles, outcomes } = start_daemons(side, &tap);
        if ready.send(()).is_err() {
            return ServeReport::default();
        }
        let go = loop {
            match go.try_recv() {
                Ok(go) => break Some(go),
                Err(TryRecvError::Empty) => rt::sleep(Duration::from_micros(200)).await,
                Err(TryRecvError::Disconnected) => break None,
            }
        };
        let Some((t0, t1)) = go else { return ServeReport::default() };
        rt::sleep_until(t0).await;
        let mark = Mark::start(&nodes, &tap);
        rt::sleep_until(t1).await;
        let window = mark.finish(&nodes, &tap);
        while !stop.load(Ordering::SeqCst) {
            rt::sleep(Duration::from_millis(2)).await;
        }
        let peak_open = handles.iter().map(|h| h.stats().peak_open).max().unwrap_or(0);
        let outcomes = std::mem::take(&mut *outcomes.borrow_mut());
        ServeReport { window, outcomes, peak_open }
    })
}

/// The load generator's shared state on the coordinator thread.
struct Load {
    launching: Cell<bool>,
    next_id: Cell<u64>,
    records: RefCell<Vec<SessionRecord>>,
    window_start: Instant,
    samples: RefCell<Vec<SessionOutcome>>,
}

impl Load {
    fn launch(&self, launched: Instant) -> (u64, usize) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let mut records = self.records.borrow_mut();
        records.push(SessionRecord { id, launched, finished: None, outcome: None });
        (id, records.len() - 1)
    }

    fn finish(&self, idx: usize, finished: Instant, result: Result<SessionOutcome, NetError>) {
        let mut records = self.records.borrow_mut();
        let rec = &mut records[idx];
        let in_window = rec.launched >= self.window_start;
        let outcome = result.map(|mut out| {
            let summary = Summary::of(&out);
            let mut samples = self.samples.borrow_mut();
            if in_window && out.completed() && samples.len() < TRACE_SAMPLES {
                // The probes read the trace and the plan shape only.
                out.secret = Vec::new();
                samples.push(out);
            }
            summary
        });
        rec.finished = Some(finished);
        rec.outcome = Some(outcome.map_err(|e| e.to_string()));
    }
}

/// One closed-loop client: coordinate a session, wait for its outcome,
/// start the next one with a fresh id.
async fn client(
    node: Node<BenchTransport>,
    cfg: SessionConfig,
    seeds: Seeds,
    load: Rc<Load>,
    tap: Option<SharedTap>,
) {
    while load.launching.get() {
        let launched = Instant::now();
        let (id, idx) = load.launch(launched);
        let result = node.coordinate(id, cfg.clone(), seeds.session(id)).await;
        let finished = Instant::now();
        if let Some(tap) = &tap {
            let dur = (finished - launched).as_nanos() as u64;
            tap.borrow_mut().coordinate_span(id, launched, dur);
        }
        load.finish(idx, finished, result);
    }
}

/// Runs `wl` once.
pub fn run(wl: &Workload, seeds: &Seeds, schedule: Schedule) -> io::Result<RunResult> {
    let cfg = wl.session_config(seeds);
    // The origin of the span clock.
    let epoch = Instant::now();
    let (coord_socket, sockets, addrs) = bind(wl.nodes)?;
    let side = ServeSide {
        sockets,
        addrs: addrs.clone(),
        cfg: cfg.clone(),
        limits: wl.serve_limits(),
        seed: seeds.serve,
        traced: schedule.traced,
        epoch,
    };
    let stop = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let serve = std::thread::Builder::new()
            .name("serve".into())
            .spawn_scoped(s, || serve_thread(side, ready_tx, go_rx, &stop))?;
        // Stops the serve thread however this thread leaves the scope, a
        // panic included; the scope would otherwise wait on it forever.
        let stopper = StopOnDrop(&stop);
        let coord = if ready_rx.recv().is_ok() {
            Ok(coordinate(wl, &cfg, seeds, schedule, coord_socket, addrs, epoch, go_tx))
        } else {
            Err(io::Error::other("serve thread ended before its daemons started"))
        };
        drop(stopper);
        let served = serve.join().map_err(|_| io::Error::other("serve thread panicked"))?;
        let coord = coord?;
        Ok(RunResult {
            t0: coord.t0,
            t1: coord.t1,
            records: coord.records,
            daemon_outcomes: served.outcomes,
            samples: coord.samples,
            coord: coord.window,
            serve: served.window,
            peak_open: served.peak_open,
        })
    })
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct CoordReport {
    t0: Instant,
    t1: Instant,
    records: Vec<SessionRecord>,
    samples: Vec<SessionOutcome>,
    window: ThreadWindow,
}

/// The `coord` thread: the coordinator node and the clients.
#[allow(clippy::too_many_arguments)]
fn coordinate(
    wl: &Workload,
    cfg: &SessionConfig,
    seeds: &Seeds,
    schedule: Schedule,
    socket: AsyncUdpSocket,
    addrs: Vec<SocketAddr>,
    epoch: Instant,
    go: mpsc::Sender<(Instant, Instant)>,
) -> CoordReport {
    rt::block_on(async move {
        let tap = schedule.traced.then(|| Rc::new(RefCell::new(Tap::new("coord", epoch))));
        let (node, t) = start_coordinator(socket, addrs, &tap);
        let t0 = Instant::now() + schedule.warmup;
        let t1 = t0 + schedule.window;
        let _ = go.send((t0, t1));
        let load = Rc::new(Load {
            launching: Cell::new(true),
            next_id: Cell::new(1),
            records: RefCell::new(Vec::new()),
            window_start: t0,
            samples: RefCell::new(Vec::new()),
        });
        for c in 0..wl.clients {
            rt::spawn(client(node.clone(), cfg.clone(), *seeds, load.clone(), tap.clone()));
            // Stagger the first wave so its Starts do not all hit the
            // sockets in one burst.
            if c % 64 == 63 {
                rt::sleep(Duration::from_millis(1)).await;
            }
        }
        rt::sleep_until(t0).await;
        let nodes = [t];
        let mark = Mark::start(&nodes, &tap);
        rt::sleep_until(t1).await;
        let window = mark.finish(&nodes, &tap);
        load.launching.set(false);
        rt::sleep(GRACE).await;
        let records = std::mem::take(&mut *load.records.borrow_mut());
        let samples = std::mem::take(&mut *load.samples.borrow_mut());
        // The window as read, not as planned.
        let (t0, t1) = window.marks.unwrap_or((t0, t1));
        CoordReport { t0, t1, records, samples, window }
    })
}
