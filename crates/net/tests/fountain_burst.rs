//! The z fountain's opening burst at `bulk` shape: 4 nodes, a
//! 128-packet coordinator-only pool and 25 % iid loss on x-packets and
//! z-combos alike (small payloads keep the run cheap).
//!
//! The burst is sized from each terminal's own reception report, so
//! nearly every terminal should collect all the combos it needs from the
//! burst and never wait for a top-up. The run uses the virtual clock,
//! so "no top-up was sent" is a property of the schedule, not of how
//! loaded the test machine is.

use std::time::{Duration, Instant};

use thinair_core::round::XSchedule;
use thinair_net::coordinator::opening_burst;
use thinair_net::driver::task_seed;
use thinair_net::rt;
use thinair_net::session::{derive_plan, inject_erasure, DataKind};
use thinair_net::{Node, SessionConfig, SessionOutcome, SimNet};
use thinair_netsim::IidMedium;

const SESSIONS: u64 = 200;

fn bulk_shape() -> SessionConfig {
    SessionConfig {
        n_nodes: 4,
        schedule: XSchedule::CoordinatorOnly(128),
        payload_len: 16,
        drop_prob: 0.25,
        drop_seed: 11,
        x_settle: Duration::from_millis(120),
        retransmit: Duration::from_millis(40),
        ..SessionConfig::default()
    }
}

/// Runs every session concurrently over a lossless `SimNet` (the loss
/// is the configuration's injected erasure) under the virtual clock.
fn run_sessions(cfg: &SessionConfig, sessions: &[u64]) -> Vec<Vec<SessionOutcome>> {
    let n = cfg.n_nodes as usize;
    let net = SimNet::new(IidMedium::symmetric(n, 0.0, 1), n);
    let nodes: Vec<_> = (0..n).map(|i| Node::new(net.transport(i as u8))).collect();
    rt::block_on_virtual(
        async {
            for node in &nodes {
                node.start_pump();
            }
            let mut handles = Vec::new();
            for &session in sessions {
                for (i, node) in nodes.iter().enumerate() {
                    let (node, cfg) = (node.clone(), cfg.clone());
                    let seed = task_seed(5, session, i as u8);
                    handles.push(rt::spawn(async move {
                        if i == 0 {
                            node.coordinate(session, cfg, seed).await
                        } else {
                            node.participate(session, cfg, seed).await
                        }
                    }));
                }
            }
            let mut outcomes = Vec::new();
            for h in handles {
                outcomes.push(h.await.expect("sessions end without infrastructure errors"));
            }
            outcomes.chunks(n).map(|c| c.to_vec()).collect()
        },
        Instant::now(),
        &mut || false,
    )
}

#[test]
fn terminals_finish_on_the_opening_burst() {
    let cfg = bulk_shape();
    let sessions: Vec<u64> = (1..=SESSIONS).collect();
    let outcomes = run_sessions(&cfg, &sessions);
    let (mut needy, mut covered, mut no_top_up, mut with_secret) = (0, 0, 0, 0);
    for (&session, nodes) in sessions.iter().zip(&outcomes) {
        let key = nodes[0].key();
        for out in nodes {
            assert!(out.completed(), "session {session} node {}: {:?}", out.node, out.abort);
            assert_eq!(out.key(), key, "session {session} node {} disagrees", out.node);
        }
        if nodes[0].l == 0 {
            continue;
        }
        with_secret += 1;
        let trace = nodes[0].trace.as_ref().expect("the coordinator keeps its trace");
        let plan = derive_plan(&cfg, &trace.reports, trace.plan_seed).expect("plan rebuilds");
        let burst = opening_burst(&cfg, &plan, &trace.reports);
        assert!(trace.z_sent >= burst, "session {session}: the burst is always sent whole");
        no_top_up += u32::from(trace.z_sent == burst);
        // A terminal finishes on the burst when the burst delivers at
        // least the rows it is missing (random combos are innovative
        // with overwhelming probability).
        for t in 1..cfg.n_nodes {
            let need = plan.m() - plan.decodable[t as usize].len();
            if need == 0 {
                continue;
            }
            needy += 1;
            let delivered = (0..burst as u64)
                .filter(|&k| !inject_erasure(&cfg, session, t, DataKind::Z, k))
                .count();
            covered += u32::from(delivered >= need);
        }
    }
    assert!(with_secret * 10 >= 9 * SESSIONS as u32, "only {with_secret} sessions made a secret");
    assert!(
        covered * 100 >= 95 * needy,
        "only {covered} of {needy} terminals finish on the opening burst"
    );
    // The coordinator's own count agrees: most sessions never top up.
    assert!(
        no_top_up * 100 >= 90 * with_secret,
        "{no_top_up} of {with_secret} sessions needed no top-up"
    );
}
