//! The benchmark's own `Transport`: a pass-through over `UdpTransport`
//! that, in the traced run, times every call into the transport layer
//! from outside and keeps spans of them in memory.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use thinair_net::{Frame, Histogram, Transport, UdpTransport};

/// Child spans are kept for one session in this many (by session id), so
/// the span file of a busy run stays a few MB. Every `coordinate`
/// span is kept.
pub const SPAN_SAMPLE: u64 = 8;
/// Most spans one thread keeps; later ones are counted in
/// `Tap::spans_dropped`.
pub const MAX_SPANS: usize = 200_000;
/// One sent frame in this many is kept for the codec replay.
const FRAME_SAMPLE: u64 = 16;
/// Most frames one thread keeps for the codec replay.
const MAX_FRAMES: usize = 2048;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `coordinate`, `send_to`, `broadcast` or `poll_recv`.
    pub name: &'static str,
    /// Thread that made the call (`coord` or `serve`).
    pub thread: &'static str,
    /// Session the call served: the coordinated session, or the
    /// `Frame::session` of the frame sent or received.
    pub session: u64,
    /// Node that made the call.
    pub node: u8,
    /// Start, in ns after the run's shared epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl Span {
    /// One JSONL line. Child spans name `coordinate` as their parent,
    /// joined by the session id.
    pub fn to_jsonl(&self) -> String {
        let parent = if self.name == "coordinate" { "null" } else { "\"coordinate\"" };
        format!(
            "{{\"session\":{},\"span\":\"{}\",\"parent\":{},\"thread\":\"{}\",\"node\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            self.session, self.name, parent, self.thread, self.node, self.start_ns, self.dur_ns
        )
    }
}

/// What one thread's transports measured while the tap was active.
#[derive(Debug)]
pub struct Tap {
    thread: &'static str,
    epoch: Instant,
    active: bool,
    /// Per-datagram send time, ns (a broadcast's time is split evenly
    /// over the datagrams it sent).
    pub send_ns: Histogram,
    /// Time of each receive that returned a frame, ns.
    pub recv_ns: Histogram,
    /// Total time inside `send_to`/`broadcast`, ns.
    pub send_busy_ns: u64,
    /// Total time inside `poll_recv`, ready or not, ns.
    pub recv_busy_ns: u64,
    /// Datagrams handed to the socket.
    pub tx_datagrams: u64,
    /// `Frame::encode` calls (one per `send_to`, one per `broadcast`).
    pub encodes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Spans kept for sampled sessions.
    pub spans: Vec<Span>,
    /// Spans of sampled sessions not kept because `MAX_SPANS` was
    /// reached.
    pub spans_dropped: u64,
    /// Sent frames kept for the codec replay.
    pub frames: Vec<Frame>,
    sends_seen: u64,
}

impl Tap {
    /// An inactive tap; `epoch` is the run's shared span clock origin.
    pub fn new(thread: &'static str, epoch: Instant) -> Self {
        Tap {
            thread,
            epoch,
            active: false,
            send_ns: Histogram::new(),
            recv_ns: Histogram::new(),
            send_busy_ns: 0,
            recv_busy_ns: 0,
            tx_datagrams: 0,
            encodes: 0,
            rx_frames: 0,
            spans: Vec::new(),
            spans_dropped: 0,
            frames: Vec::new(),
            sends_seen: 0,
        }
    }

    /// Starts or stops recording.
    pub fn set_active(&mut self, on: bool) {
        self.active = on;
    }

    /// The thread this tap records for.
    pub fn thread(&self) -> &'static str {
        self.thread
    }

    /// The span clock origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records the span of one `Node::coordinate` call.
    pub fn coordinate_span(&mut self, session: u64, start: Instant, dur_ns: u64) {
        self.push_span("coordinate", session, 0, start, dur_ns);
    }

    /// Records a transport call's span if its session is sampled.
    fn child_span(
        &mut self,
        name: &'static str,
        session: u64,
        node: u8,
        start: Instant,
        dur_ns: u64,
    ) {
        if session.is_multiple_of(SPAN_SAMPLE) {
            self.push_span(name, session, node, start, dur_ns);
        }
    }

    fn push_span(
        &mut self,
        name: &'static str,
        session: u64,
        node: u8,
        start: Instant,
        dur_ns: u64,
    ) {
        if !self.active {
            return;
        }
        if self.spans.len() < MAX_SPANS {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, thread: self.thread, session, node, start_ns, dur_ns });
        } else {
            self.spans_dropped += 1;
        }
    }

    fn on_send(
        &mut self,
        name: &'static str,
        node: u8,
        frame: &Frame,
        datagrams: u64,
        t0: Instant,
    ) {
        let dur = t0.elapsed().as_nanos() as u64;
        if !self.active {
            return;
        }
        self.send_busy_ns += dur;
        self.encodes += 1;
        self.tx_datagrams += datagrams;
        for _ in 0..datagrams {
            self.send_ns.record(dur / datagrams.max(1));
        }
        self.sends_seen += 1;
        if self.sends_seen.is_multiple_of(FRAME_SAMPLE) && self.frames.len() < MAX_FRAMES {
            self.frames.push(frame.clone());
        }
        self.child_span(name, frame.session, node, t0, dur);
    }

    fn on_recv(&mut self, node: u8, frame: Option<&Frame>, t0: Instant) {
        let dur = t0.elapsed().as_nanos() as u64;
        if !self.active {
            return;
        }
        self.recv_busy_ns += dur;
        if let Some(frame) = frame {
            self.rx_frames += 1;
            self.recv_ns.record(dur);
            self.child_span("poll_recv", frame.session, node, t0, dur);
        }
    }
}

/// Shared per-thread tap.
pub type SharedTap = Rc<RefCell<Tap>>;

/// `UdpTransport`, timed from outside when a tap is attached. Without a
/// tap every call goes straight through.
pub struct BenchTransport {
    inner: UdpTransport,
    tap: Option<SharedTap>,
}

impl BenchTransport {
    /// Wraps a transport; `tap` is `None` in untraced runs.
    pub fn new(inner: UdpTransport, tap: Option<SharedTap>) -> Self {
        BenchTransport { inner, tap }
    }

    /// Bits this node has put on the wire (encoded frames, headers,
    /// control frames, retransmits and `Busy` replies included).
    pub fn wire_bits(&self) -> u64 {
        self.inner.stats().total()
    }
}

impl Transport for BenchTransport {
    fn local_node(&self) -> u8 {
        self.inner.local_node()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        let Some(tap) = &self.tap else { return self.inner.send_to(to, frame) };
        let t0 = Instant::now();
        let r = self.inner.send_to(to, frame);
        tap.borrow_mut().on_send("send_to", self.inner.local_node(), frame, 1, t0);
        r
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        let Some(tap) = &self.tap else { return self.inner.broadcast(frame) };
        let t0 = Instant::now();
        let r = self.inner.broadcast(frame);
        let peers = self.inner.node_count().saturating_sub(1) as u64;
        tap.borrow_mut().on_send("broadcast", self.inner.local_node(), frame, peers, t0);
        r
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        let Some(tap) = &self.tap else { return self.inner.poll_recv(cx) };
        let t0 = Instant::now();
        let r = self.inner.poll_recv(cx);
        let frame = match &r {
            Poll::Ready(Ok(frame)) => Some(frame),
            _ => None,
        };
        tap.borrow_mut().on_recv(self.inner.local_node(), frame, t0);
        r
    }

    fn invalid_frames(&self) -> u64 {
        self.inner.invalid_frames()
    }

    fn send_errors(&self) -> u64 {
        self.inner.send_errors()
    }
}
