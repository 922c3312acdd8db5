//! Turns runs into named metrics, and metrics into the result line.

use thinair_net::{Histogram, Snapshot};

use crate::harness::{RunResult, ThreadWindow};
use crate::probe::{FrameProbe, PlanProbe};
use crate::tally::Tally;
use crate::workload::Workload;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    // JSON has no NaN or infinity; an undefined ratio reads 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name: name.into(), unit, value }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn window_secs(run: &RunResult) -> f64 {
    (run.t1 - run.t0).as_secs_f64()
}

/// Agreed sessions per second of the window.
pub fn sessions_per_s(run: &RunResult, tally: &Tally) -> f64 {
    ratio(tally.agreed as f64, window_secs(run))
}

/// The end-to-end metrics of an untraced run. `fail_frac` is reported as
/// its complement `agreed_frac`, which is never 0. CPU time per session
/// is a per-layer metric: it follows the host's CPU speed, which moves by
/// more than any bound between runs.
pub fn end_to_end(run: &RunResult, tally: &Tally, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let secs = window_secs(run);
    let wire_bits = (run.coord.wire_bits + run.serve.wire_bits) as f64;
    vec![
        metric("setup_s", "s", setup_s),
        metric("sessions_per_s", "sessions/s", sessions_per_s(run, tally)),
        metric("latency_p50_ms", "ms", tally.latency_ms(0.50)),
        metric("latency_p99_ms", "ms", tally.latency_ms(0.99)),
        metric("agreed_frac", "ratio", ratio(tally.agreed as f64, tally.attempted as f64)),
        metric("secret_bytes_per_s", "B/s", ratio(tally.secret_bytes as f64, secs)),
        metric("secret_efficiency", "bit/bit", ratio(tally.secret_bytes as f64 * 8.0, wire_bits)),
        metric("peak_rss_mb", "MiB", peak_rss_mib),
    ]
}

/// Both threads' telemetry over the window, merged.
fn merged(run: &RunResult) -> Snapshot {
    let mut snap = run.coord.telemetry.clone();
    snap.merge(&run.serve.telemetry);
    snap
}

fn hist<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a Histogram> {
    snap.hists.get(name)
}

fn pct(snap: &Snapshot, name: &str, p: f64) -> f64 {
    hist(snap, name).map_or(0.0, |h| h.percentile(p) as f64)
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn busy_frac(w: &ThreadWindow) -> f64 {
    ratio(w.cpu_ns as f64, w.wall_ns as f64)
}

/// Coordinator phases, as `phase.coord.*` names them.
const COORD_PHASES: [&str; 5] =
    ["start_barrier", "x_settle", "report_collection", "z_fountain", "fin_barrier"];
/// Terminal phases, as `phase.term.*` names them.
const TERM_PHASES: [&str; 5] = ["await_start", "x_settle", "await_plan", "z_fountain", "await_fin"];

/// The per-layer metrics of a traced run, plus `trace.overhead_frac`
/// against the untraced run's throughput.
pub fn per_layer(
    traced: &RunResult,
    tally: &Tally,
    untraced_sessions_per_s: f64,
    frame: &FrameProbe,
    plan: &PlanProbe,
) -> Vec<Metric> {
    let snap = merged(traced);
    let agreed = tally.agreed as f64;
    let per = |v: f64| ratio(v, agreed);
    let (c, s) = (&traced.coord, &traced.serve);
    let taps = [c.tap.as_ref(), s.tap.as_ref()];
    let tap_sum = |f: &dyn Fn(&crate::tap::Tap) -> u64| {
        taps.iter().flatten().map(|t| f(t)).sum::<u64>() as f64
    };
    let mut send_ns = Histogram::new();
    let mut recv_ns = Histogram::new();
    for t in taps.iter().flatten() {
        send_ns.merge(&t.send_ns);
        recv_ns.merge(&t.recv_ns);
    }
    let mut out = Vec::new();

    // rt
    out.push(metric("rt.coord.busy_frac", "ratio", busy_frac(c)));
    out.push(metric("rt.serve.busy_frac", "ratio", busy_frac(s)));
    let rt_sum = |f: fn(&thinair_net::rt::Metrics) -> u64| (f(&c.rt) + f(&s.rt)) as f64;
    out.push(metric("rt.task_polls_per_session", "count", per(rt_sum(|m| m.task_polls))));
    out.push(metric("rt.passes_per_session", "count", per(rt_sum(|m| m.passes))));
    out.push(metric("rt.timer_fires_per_session", "count", per(rt_sum(|m| m.timer_fires))));
    out.push(metric("rt.wakes_per_session", "count", per(rt_sum(|m| m.wakes))));
    out.push(metric("rt.epoll_wakeups_per_session", "count", per(rt_sum(|m| m.epoll_wakeups))));
    out.push(metric("rt.timer_lag_us_p99", "us", pct(&snap, "rt.timer_lag_us", 0.99)));

    // transport
    let tx_frames = tap_sum(&|t| t.tx_datagrams);
    let rx_frames = tap_sum(&|t| t.rx_frames);
    let send_busy_ms = tap_sum(&|t| t.send_busy_ns) / 1e6;
    let recv_busy_ms = tap_sum(&|t| t.recv_busy_ns) / 1e6;
    out.push(metric("transport.tx_frames_per_session", "count", per(tx_frames)));
    out.push(metric("transport.rx_frames_per_session", "count", per(rx_frames)));
    out.push(metric(
        "transport.tx_bytes_per_session",
        "B",
        per((c.wire_bits + s.wire_bits) as f64 / 8.0),
    ));
    out.push(metric("transport.send_us_p50", "us", send_ns.percentile(0.50) as f64 / 1e3));
    out.push(metric("transport.send_us_p99", "us", send_ns.percentile(0.99) as f64 / 1e3));
    out.push(metric("transport.recv_us_p50", "us", recv_ns.percentile(0.50) as f64 / 1e3));
    out.push(metric("transport.send_busy_ms_per_session", "ms", per(send_busy_ms)));
    out.push(metric("transport.recv_busy_ms_per_session", "ms", per(recv_busy_ms)));
    out.push(metric("transport.rx_batch_p50", "count", pct(&snap, "net.rx.batch", 0.50)));
    out.push(metric("transport.send_errors", "count", (c.send_errors + s.send_errors) as f64));
    out.push(metric(
        "transport.invalid_frames",
        "count",
        (c.invalid_frames + s.invalid_frames) as f64,
    ));

    // frame
    out.push(metric("frame.encode_ns_per_frame", "ns", frame.encode_ns));
    out.push(metric("frame.decode_ns_per_frame", "ns", frame.decode_ns));
    out.push(metric("frame.crc_ns_per_kb", "ns", frame.crc_ns_per_kb));

    // reliable
    let attempts = hist(&snap, "net.reliable.attempts");
    out.push(metric(
        "reliable.retransmits_per_session",
        "count",
        per(counter(&snap, "net.retransmit.frames")),
    ));
    out.push(metric(
        "reliable.first_try_frac",
        "ratio",
        attempts.map_or(0.0, |h| ratio(h.count() as f64, h.sum() as f64)),
    ));
    out.push(metric("reliable.attempts_p99", "count", pct(&snap, "net.reliable.attempts", 0.99)));
    out.push(metric("reliable.ack_rtt_us_p50", "us", pct(&snap, "net.ack.rtt_us", 0.50)));
    out.push(metric("reliable.ack_rtt_us_p99", "us", pct(&snap, "net.ack.rtt_us", 0.99)));
    out.push(metric(
        "reliable.busy_deferred_per_session",
        "count",
        per(counter(&snap, "net.busy.deferred")),
    ));
    out.push(metric("reliable.cwnd_cuts", "count", counter(&snap, "net.cwnd.cut")));

    // coordinator / terminal phases (µs histograms, reported in ms)
    for (role, phases, tel) in
        [("coord", &COORD_PHASES, &c.telemetry), ("term", &TERM_PHASES, &s.telemetry)]
    {
        for phase in phases {
            let name = format!("phase.{role}.{phase}");
            out.push(metric(format!("{name}.ms_p50"), "ms", pct(tel, &name, 0.50) / 1e3));
            out.push(metric(format!("{name}.ms_p99"), "ms", pct(tel, &name, 0.99) / 1e3));
        }
    }
    let returned = match c.marks {
        Some((from, to)) => traced
            .records
            .iter()
            .filter(|r| r.finished.is_some_and(|f| f >= from && f < to))
            .count() as f64,
        None => 0.0,
    };
    let closed = hist(&c.telemetry, "phase.coord.fin_barrier").map_or(0, |h| h.count()) as f64;
    out.push(metric("phase.coord.unclosed", "count", returned - closed));

    // serve
    let admitted = counter(&s.telemetry, "serve.admitted");
    let rejected = counter(&s.telemetry, "serve.rejected");
    out.push(metric("serve.admitted_per_session", "count", per(admitted)));
    out.push(metric("serve.busy_frac", "ratio", ratio(rejected, admitted + rejected)));
    out.push(metric(
        "serve.queue_admitted_per_session",
        "count",
        per(counter(&s.telemetry, "serve.queue.admitted")),
    ));
    out.push(metric(
        "serve.orphans_per_session",
        "count",
        per(counter(&s.telemetry, "serve.orphans")),
    ));
    out.push(metric("serve.evicted", "count", counter(&s.telemetry, "serve.evicted")));
    out.push(metric("serve.peak_open", "count", traced.peak_open as f64));
    out.push(metric("serve.hold_ms_p50", "ms", pct(&s.telemetry, "serve.session_us", 0.50) / 1e3));
    out.push(metric("serve.hold_ms_p99", "ms", pct(&s.telemetry, "serve.session_us", 0.99) / 1e3));

    // session / gf
    out.push(metric("session.derive_plan_us", "us", plan.derive_plan_us));
    out.push(metric("session.l_mean", "packets", per(tally.l_sum as f64)));
    out.push(metric("session.m_mean", "packets", per(tally.m_sum as f64)));
    out.push(metric("gf.mul_plane_us_per_session", "us", plan.mul_plane_us));
    out.push(metric("gf.solve_plane_us_per_session", "us", plan.solve_plane_us));
    out.push(metric("gf.axpy_per_session", "count", plan.axpys));
    out.push(metric("gf.axpy_us_per_session", "us", plan.axpy_us));

    // Where one agreed session's CPU time goes. The parts add up to the
    // traced run's process CPU per agreed session.
    let cpu_ms = ratio(traced.coord.process_cpu_ms, agreed);
    let gf_ms = (plan.mul_plane_us + plan.solve_plane_us + plan.axpy_us) / 1e3;
    let encodes = tap_sum(&|t| t.encodes);
    let frame_ms = per(encodes * frame.encode_ns + rx_frames * frame.decode_ns) / 1e6;
    let syscall_ms = (per(send_busy_ms + recv_busy_ms) - frame_ms).max(0.0);
    out.push(metric("cpu.ms_per_session", "ms", cpu_ms));
    out.push(metric("cpu.gf_ms_per_session", "ms", gf_ms));
    out.push(metric("cpu.frame_ms_per_session", "ms", frame_ms));
    out.push(metric("cpu.syscall_ms_per_session", "ms", syscall_ms));
    out.push(metric(
        "cpu.rest_ms_per_session",
        "ms",
        (cpu_ms - gf_ms - frame_ms - syscall_ms).max(0.0),
    ));

    // tracing cost
    let traced_sps = sessions_per_s(traced, tally);
    out.push(metric(
        "trace.overhead_frac",
        "ratio",
        1.0 - ratio(traced_sps, untraced_sessions_per_s),
    ));
    out
}

/// One dominant-layer check of a workload's traced run.
#[derive(Clone, Debug)]
pub struct Confirmation {
    /// What is checked.
    pub claim: &'static str,
    /// What was measured.
    pub measured: String,
    /// Whether the claim held.
    pub holds: bool,
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

/// The checks that a workload stresses the layer it was chosen for.
pub fn confirmations(wl: &Workload, layer: &[Metric]) -> Vec<Confirmation> {
    let v = |name| value(layer, name);
    let (coord, serve) = (v("rt.coord.busy_frac"), v("rt.serve.busy_frac"));
    match wl.name {
        "light" => vec![Confirmation {
            claim:
                "both threads mostly idle: rt.coord.busy_frac <= 0.2 and rt.serve.busy_frac <= 0.2",
            measured: format!("rt.coord.busy_frac={coord:.3} rt.serve.busy_frac={serve:.3}"),
            holds: coord <= 0.2 && serve <= 0.2,
        }],
        "bulk" => {
            let payload = v("cpu.gf_ms_per_session") + v("cpu.frame_ms_per_session");
            let (sys, rest) = (v("cpu.syscall_ms_per_session"), v("cpu.rest_ms_per_session"));
            vec![Confirmation {
                claim: "payload-proportional layers (gf + frame) are the largest CPU share",
                measured: format!(
                    "ms per session: gf+frame={payload:.2} syscall={sys:.2} rest={rest:.2}"
                ),
                holds: payload > sys && payload > rest,
            }]
        }
        "overload" => vec![Confirmation {
            claim: "admission refuses: serve.busy_frac > 0",
            measured: format!("serve.busy_frac={:.4}", v("serve.busy_frac")),
            holds: v("serve.busy_frac") > 0.0,
        }],
        _ => Vec::new(),
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`{}` prints the shortest exact form).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
