//! The workloads and everything derived from the workload seed.

use std::time::Duration;

use thinair_net::driver::task_seed;
use thinair_net::{ServeLimits, SessionConfig};
use thinair_scenario::{ServeBackend, ServeWaveSpec};

/// One closed-loop traffic shape.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Protocol nodes: the coordinator plus `nodes - 1` serve daemons.
    pub nodes: u8,
    /// x-packets the coordinator broadcasts per session.
    pub x_packets: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Closed-loop clients: sessions in flight at once.
    pub clients: usize,
    /// A session slower than this (launch to coordinator outcome) fails.
    pub limit: Duration,
    /// Daemon admission cap; `None` keeps `ServeLimits::default()`.
    pub max_sessions: Option<usize>,
    /// Load runs this long before the measured window opens.
    pub warmup: Duration,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "light",
        nodes: 4,
        x_packets: 10,
        payload_len: 8,
        clients: 12,
        limit: Duration::from_secs(1),
        max_sessions: None,
        warmup: Duration::from_secs(1),
    },
    Workload {
        name: "bulk",
        nodes: 4,
        x_packets: 128,
        payload_len: 4096,
        clients: 16,
        limit: Duration::from_secs(5),
        max_sessions: None,
        warmup: Duration::from_secs(2),
    },
    Workload {
        name: "overload",
        nodes: 3,
        x_packets: 12,
        payload_len: 8,
        clients: 128,
        limit: Duration::from_secs(4),
        max_sessions: Some(128),
        warmup: Duration::from_secs(3),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seeds one workload seed fans out into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// The workload seed from the command line.
    pub root: u64,
    /// `SessionConfig::drop_seed`: the data-plane erasure pattern.
    pub drop: u64,
    /// Coordinator session seeds: `task_seed(coord, session, 0)`.
    pub coord: u64,
    /// Daemon seed handed to every `Server`.
    pub serve: u64,
}

impl Seeds {
    /// Derives every seed from the workload seed.
    pub fn new(root: u64) -> Self {
        Seeds {
            root,
            drop: task_seed(root, 0, 1),
            coord: task_seed(root, 0, 2),
            serve: task_seed(root, 0, 3),
        }
    }

    /// Seed of the coordinator's run of `session`.
    pub fn session(&self, session: u64) -> u64 {
        task_seed(self.coord, session, 0)
    }
}

impl Workload {
    /// The session configuration of every node: bench-serve's wave
    /// configuration (coordinator-only x schedule, `drop_prob` 0.25,
    /// `x_settle` 120 ms, `retransmit` 40 ms, 120 s deadline).
    pub fn session_config(&self, seeds: &Seeds) -> SessionConfig {
        self.wave_spec(seeds).session_config()
    }

    /// Daemon limits: the defaults, with this workload's admission cap.
    pub fn serve_limits(&self) -> ServeLimits {
        let defaults = ServeLimits::default();
        ServeLimits { max_sessions: self.max_sessions.unwrap_or(defaults.max_sessions), ..defaults }
    }

    fn wave_spec(&self, seeds: &Seeds) -> ServeWaveSpec {
        ServeWaveSpec {
            name: self.name.to_string(),
            backend: ServeBackend::UdpLoopback,
            terminals: self.nodes,
            concurrency: self.clients as u32,
            x_packets: self.x_packets,
            payload_len: self.payload_len,
            drop_prob: 0.25,
            deadline_ms: 120_000,
            max_sessions: self.max_sessions.map(|m| m as u32),
            workers: 1,
            seed: seeds.drop,
        }
    }

    /// Checks the workload against the wave and session validators.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.wave_spec(&Seeds::new(0)).validate()
    }
}
