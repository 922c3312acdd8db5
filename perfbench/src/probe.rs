//! Replay probes for work the transport tap cannot see: the frame codec
//! on frames the traced run sent, and plan derivation plus the GF(2^8)
//! plane kernels at the plans the traced run agreed on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};
use thinair_net::frame::crc32;
use thinair_net::session::derive_plan;
use thinair_net::{Frame, SessionConfig, SessionOutcome};

/// Each timed loop repeats its work until it has run at least this long.
const MIN_TIMED: Duration = Duration::from_millis(20);

/// Runs `pass` until `MIN_TIMED` has elapsed; returns the mean ns of
/// one pass.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        let elapsed = start.elapsed();
        if elapsed >= MIN_TIMED {
            return elapsed.as_nanos() as f64 / passes as f64;
        }
    }
}

/// Codec cost on a sample of real frames.
#[derive(Clone, Debug, Default)]
pub struct FrameProbe {
    /// Frames replayed.
    pub frames: usize,
    /// Mean `Frame::encode` time, ns.
    pub encode_ns: f64,
    /// Mean `Frame::decode` time (CRC check included), ns.
    pub decode_ns: f64,
    /// `crc32` time per KiB of encoded frame, ns.
    pub crc_ns_per_kb: f64,
    /// Frames that did not survive an encode/decode round trip.
    pub roundtrip_errors: usize,
}

/// Times the public codec on `frames`.
pub fn frame_probe(frames: &[Frame]) -> FrameProbe {
    if frames.is_empty() {
        return FrameProbe::default();
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| f.encode().to_vec()).collect();
    let roundtrip_errors =
        frames.iter().zip(&encoded).filter(|(f, b)| Frame::decode(b).as_ref() != Ok(*f)).count();
    let n = frames.len() as f64;
    let kib = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let encode_ns = time_passes(|| {
        for f in frames {
            black_box(black_box(f).encode());
        }
    }) / n;
    let decode_ns = time_passes(|| {
        for b in &encoded {
            let _ = black_box(Frame::decode(black_box(b)));
        }
    }) / n;
    let crc_ns_per_kb = time_passes(|| {
        for b in &encoded {
            black_box(crc32(black_box(b)));
        }
    }) / kib;
    FrameProbe { frames: frames.len(), encode_ns, decode_ns, crc_ns_per_kb, roundtrip_errors }
}

/// Plan derivation and GF kernel cost at real plan shapes.
#[derive(Clone, Debug, Default)]
pub struct PlanProbe {
    /// Sessions replayed.
    pub sessions: usize,
    /// Mean `derive_plan` time, µs.
    pub derive_plan_us: f64,
    /// `Matrix::mul_plane` time per session, µs: the coordinator's
    /// `C·y` and `D·y`, and every terminal's `D·y`.
    pub mul_plane_us: f64,
    /// `Matrix::solve_plane` time per session, µs: every terminal's
    /// solve for the y-rows it could not decode directly.
    pub solve_plane_us: f64,
    /// `kernel::axpy` row operations per session: the coordinator's
    /// y-rows and fountain combos, every terminal's direct y-rows and
    /// solve right-hand sides.
    pub axpys: f64,
    /// Time of those row operations per session, µs.
    pub axpy_us: f64,
    /// Replayed plans whose `(m, l)` differ from the session's outcome.
    pub mismatches: usize,
}

/// SplitMix64, for the probe's random matrices and payloads.
struct Mix(u64);

impl Mix {
    fn byte(&mut self) -> u8 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| Gf256(self.byte()))
    }

    fn plane(&mut self, rows: usize, width: usize) -> PayloadPlane {
        let rows: Vec<Vec<u8>> =
            (0..rows).map(|_| (0..width).map(|_| self.byte()).collect()).collect();
        PayloadPlane::from_byte_rows(&rows)
    }
}

/// The kernel inputs of one session.
struct Shapes {
    c: Matrix,
    d: Matrix,
    y: PayloadPlane,
    solves: Vec<(Matrix, PayloadPlane)>,
    terminals: usize,
}

/// Replays `derive_plan` on the coordinator traces of `outcomes` and
/// times the plane kernels at the plans' shapes.
pub fn plan_probe(cfg: &SessionConfig, outcomes: &[SessionOutcome], seed: u64) -> PlanProbe {
    let traced: Vec<_> = outcomes.iter().filter_map(|o| o.trace.as_ref().map(|t| (o, t))).collect();
    if traced.is_empty() {
        return PlanProbe::default();
    }
    let mut mix = Mix(seed);
    let mut mismatches = 0;
    let mut shapes = Vec::new();
    let mut axpys = 0usize;
    for (out, trace) in &traced {
        let Ok(plan) = derive_plan(cfg, &trace.reports, trace.plan_seed) else {
            mismatches += 1;
            continue;
        };
        if plan.m() != out.m || plan.l != out.l {
            mismatches += 1;
        }
        if plan.l == 0 {
            // No secret: neither role runs a plane kernel.
            continue;
        }
        let m = plan.m();
        let terminals = cfg.n_nodes as usize - 1;
        let support = |rows: &mut dyn Iterator<Item = usize>| -> usize {
            rows.map(|r| plan.rows[r].support.len()).sum()
        };
        // Coordinator: every y-row from its support, then each fountain
        // combo over the M - L z-rows.
        axpys += support(&mut (0..m)) + trace.z_sent as usize * (m - plan.l);
        for i in 1..=terminals {
            let direct = &plan.decodable[i];
            // Directly decodable rows, then one right-hand side per
            // missing row, folding in every row already known.
            axpys += support(&mut direct.iter().copied()) + (m - direct.len()) * direct.len();
        }
        let solves = (1..=terminals)
            .map(|i| m - plan.decodable[i].len())
            .filter(|&missing| missing > 0)
            .map(|missing| (mix.matrix(missing, missing), mix.plane(missing, cfg.payload_len)))
            .collect();
        shapes.push(Shapes {
            c: plan.c_mat.clone(),
            d: plan.d_mat.clone(),
            y: mix.plane(m, cfg.payload_len),
            solves,
            terminals,
        });
    }
    let sessions = traced.len() as f64;
    let derive_plan_us = time_passes(|| {
        for (_, trace) in &traced {
            let _ = black_box(derive_plan(cfg, black_box(&trace.reports), trace.plan_seed));
        }
    }) / sessions
        / 1e3;
    let mul_plane_us = time_passes(|| {
        for s in &shapes {
            black_box(s.c.mul_plane(black_box(&s.y)));
            for _ in 0..=s.terminals {
                black_box(s.d.mul_plane(black_box(&s.y)));
            }
        }
    }) / sessions
        / 1e3;
    let solve_plane_us = time_passes(|| {
        for s in &shapes {
            for (a, b) in &s.solves {
                black_box(black_box(a).solve_plane(black_box(b)));
            }
        }
    }) / sessions
        / 1e3;
    let (mut dst, src) = (vec![0u8; cfg.payload_len], mix.plane(1, cfg.payload_len));
    let axpy_ns = time_passes(|| {
        for c in 1..=255u8 {
            kernel::axpy(black_box(&mut dst), black_box(src.row(0)), c);
        }
    }) / 255.0;
    let axpys = axpys as f64 / sessions;
    PlanProbe {
        sessions: traced.len(),
        derive_plan_us,
        mul_plane_us,
        solve_plane_us,
        axpys,
        axpy_us: axpys * axpy_ns / 1e3,
        mismatches,
    }
}
