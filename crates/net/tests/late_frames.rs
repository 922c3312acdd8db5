//! Frames that arrive after the phase they belong to.
//!
//! * Every ACK of the coordinator's `Fin` is lost: the coordinator
//!   leaves the fin barrier through its attempt budget or its deadline,
//!   still completes, and still closes the `phase.coord.fin_barrier`
//!   span.
//! * An x-packet reaches a terminal only after that terminal sent its
//!   reception report: the terminal no longer stores it, and every
//!   node's secret still agrees.
//!
//! Both run over [`SimNet`] with a thin [`Transport`] wrapper that
//! holds back or swallows exactly the frames under test.

use std::collections::BTreeSet;
use std::io;
use std::task::{Context, Poll};
use std::time::Duration;

use thinair_core::round::XSchedule;
use thinair_core::wire::Message;
use thinair_net::session::{inject_erasure, DataKind, SessionConfig};
use thinair_net::transport::{SimNet, SimTransport, Transport};
use thinair_net::{drive_nodes, telemetry, Frame, NetPayload, Node};
use thinair_netsim::IidMedium;

/// What the wrapper does to the frames of its node.
#[derive(Clone, Copy)]
enum Mischief {
    None,
    /// Swallow every incoming ACK of a `Fin` this node sent.
    LoseFinAcks,
    /// Hold back the first x-packet of `session` this node would keep
    /// until this node has sent its reception report for `session`.
    LateX {
        session: u64,
    },
}

struct Meddler {
    inner: SimTransport<IidMedium>,
    cfg: SessionConfig,
    mischief: Mischief,
    fin_seqs: BTreeSet<u32>,
    reported: bool,
    held: Option<Frame>,
    held_id: Option<u16>,
    released_late: u32,
}

impl Meddler {
    fn new(inner: SimTransport<IidMedium>, cfg: &SessionConfig, mischief: Mischief) -> Self {
        Meddler {
            inner,
            cfg: cfg.clone(),
            mischief,
            fin_seqs: BTreeSet::new(),
            reported: false,
            held: None,
            held_id: None,
            released_late: 0,
        }
    }

    fn note_sent(&mut self, frame: &Frame) {
        match &frame.payload {
            NetPayload::Fin => {
                self.fin_seqs.insert(frame.seq);
            }
            NetPayload::Proto(Message::ReceptionReport { .. }) => {
                if let Mischief::LateX { session } = self.mischief {
                    self.reported |= session == frame.session;
                }
            }
            _ => {}
        }
    }

    /// Whether `frame` is the x-packet to hold back: the first one of the
    /// session that the erasure injection would let this node keep.
    fn is_late_x(&self, frame: &Frame) -> bool {
        let Mischief::LateX { session } = self.mischief else { return false };
        let NetPayload::Proto(Message::XPacket { id, .. }) = &frame.payload else { return false };
        let me = self.inner.local_node();
        self.held_id.is_none()
            && frame.session == session
            && !inject_erasure(&self.cfg, session, me, DataKind::X, *id as u64)
    }
}

impl Transport for Meddler {
    fn local_node(&self) -> u8 {
        self.inner.local_node()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send_to(&mut self, to: u8, frame: &Frame) -> io::Result<()> {
        self.note_sent(frame);
        self.inner.send_to(to, frame)
    }

    fn broadcast(&mut self, frame: &Frame) -> io::Result<()> {
        self.note_sent(frame);
        self.inner.broadcast(frame)
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<Frame>> {
        if self.reported {
            if let Some(frame) = self.held.take() {
                self.released_late += 1;
                return Poll::Ready(Ok(frame));
            }
        }
        loop {
            let frame = match self.inner.poll_recv(cx) {
                Poll::Ready(Ok(frame)) => frame,
                other => return other,
            };
            match (&frame.payload, self.mischief) {
                (NetPayload::Ack { seq }, Mischief::LoseFinAcks) if self.fin_seqs.contains(seq) => {
                    continue
                }
                (NetPayload::Proto(Message::XPacket { id, .. }), _) if self.is_late_x(&frame) => {
                    self.held_id = Some(*id);
                    self.held = Some(frame);
                }
                _ => return Poll::Ready(Ok(frame)),
            }
        }
    }

    fn invalid_frames(&self) -> u64 {
        self.inner.invalid_frames()
    }
}

fn cfg() -> SessionConfig {
    SessionConfig {
        n_nodes: 3,
        coordinator: 0,
        schedule: XSchedule::CoordinatorOnly(40),
        payload_len: 16,
        drop_prob: 0.3,
        retransmit: Duration::from_millis(10),
        rto_cap: Duration::from_millis(40),
        x_settle: Duration::from_millis(40),
        deadline: Duration::from_secs(20),
        ..SessionConfig::default()
    }
}

fn nodes(cfg: &SessionConfig, mischief: impl Fn(u8) -> Mischief) -> Vec<Node<Meddler>> {
    let n = cfg.n_nodes as usize;
    let net = SimNet::new(IidMedium::symmetric(n, 0.0, 3), n);
    (0..n as u8).map(|i| Node::new(Meddler::new(net.transport(i), cfg, mischief(i)))).collect()
}

fn fin_barrier_spans() -> u64 {
    telemetry::snapshot().hists.get("phase.coord.fin_barrier").map_or(0, |h| h.count())
}

/// Regression: the attempt-budget exit and the deadline exit of the fin
/// barrier used to return without observing its span, so a session
/// whose Fin-ACKs were all lost vanished from the histogram.
#[test]
fn lost_fin_acks_still_close_the_fin_barrier_span() {
    // Attempt budget runs out first; then the deadline does.
    let exits = [
        SessionConfig { max_attempts: 6, ..cfg() },
        SessionConfig { max_attempts: 1_000, deadline: Duration::from_millis(1_500), ..cfg() },
    ];
    for cfg in exits {
        let nodes = nodes(&cfg, |i| if i == 0 { Mischief::LoseFinAcks } else { Mischief::None });
        let before = fin_barrier_spans();
        let outcomes = drive_nodes(&cfg, &nodes, &[1], 5).expect("batch runs");
        let coord = &outcomes[0][0];
        assert!(coord.completed(), "a converged group completes: {:?}", coord.abort);
        assert_eq!(fin_barrier_spans(), before + 1, "max_attempts {}", cfg.max_attempts);
        let key = coord.key();
        for out in &outcomes[0][1..] {
            assert!(out.completed(), "terminal {} saw Fin: {:?}", out.node, out.abort);
            assert_eq!(out.key(), key, "terminal {} agrees", out.node);
        }
    }
}

#[test]
fn x_packet_delayed_past_the_report_leaves_secrets_agreeing() {
    let cfg = cfg();
    let sessions = [1, 2, 3];
    for late in 1..cfg.n_nodes {
        let mischief = |i| if i == late { Mischief::LateX { session: 2 } } else { Mischief::None };
        let nodes = nodes(&cfg, mischief);
        let outcomes = drive_nodes(&cfg, &nodes, &sessions, 9).expect("batch runs");
        let (released, held_id) =
            nodes[late as usize].transport().with(|t| (t.released_late, t.held_id));
        assert_eq!(released, 1, "terminal {late} got its held x-packet after its report");
        let held_id = held_id.expect("an x-packet was held") as usize;
        for per_session in &outcomes {
            let key = per_session[0].key();
            assert!(per_session[0].l > 0 && key.is_some(), "a nonempty secret to agree on");
            for out in per_session {
                assert!(out.completed(), "node {} completes: {:?}", out.node, out.abort);
                assert_eq!(out.key(), key, "session {} node {}", out.session, out.node);
            }
        }
        // The late packet counts as missed: the report that went out
        // without it is what the plan was built from.
        let trace = outcomes[1][0].trace.as_ref().expect("coordinator trace");
        let late_report = &trace.reports[late as usize];
        assert_eq!(late_report[held_id / 8] & (1 << (held_id % 8)), 0, "held x-packet reported");
    }
}
