//! A closed-loop session benchmark for `thinair`.
//!
//! Clients on one thread each coordinate a group session against serve
//! daemons on a second thread, over loopback UDP, wait for its outcome
//! and start the next. An untraced run reports what a user of the
//! daemons sees (`--trace 0`); a traced run times the calls into each
//! layer from outside and reports where the work goes (`--trace 1`).
//! See `README.md` for the workloads and metrics.

pub mod harness;
pub mod metrics;
pub mod probe;
pub mod sysinfo;
pub mod tally;
pub mod tap;
pub mod workload;

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

use harness::{RunResult, Schedule};
use metrics::{json_num, json_str, Confirmation, Metric};
use sysinfo::Provenance;
use tally::Tally;
use workload::{Seeds, Workload};

/// `setup_s` is the median of this many blocks of [`SETUP_BLOCK`]
/// set-ups ([`harness::setup_probe`]), timed before the run with
/// [`SETUP_PAUSE`] between blocks.
pub const SETUP_BLOCKS: usize = 20;
/// Set-ups in one block.
pub const SETUP_BLOCK: usize = 50;
/// The pause between blocks. The host's speed shifts from one second to
/// the next: on the reference box a burst of set-ups read about 22 µs or
/// about 30 µs depending on when it ran (spread 0.28 over ten runs),
/// while blocks spread over two seconds read within 0.08.
pub const SETUP_PAUSE: Duration = Duration::from_millis(100);

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where a traced run writes its spans and telemetry (`None`: not
    /// written).
    pub out_dir: Option<String>,
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// Lines to print before the result line.
    pub lines: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// No safety violation, every replay check passed, and at least one
    /// session agreed.
    pub correct: bool,
    /// Sessions with a verdict.
    pub attempted: u64,
    /// Sessions that failed.
    pub failed: u64,
}

impl Report {
    /// The last line of the command's output.
    pub fn result_line(&self) -> String {
        metrics::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

fn schedule(wl: &Workload, opts: &Options, traced: bool) -> Schedule {
    Schedule { warmup: wl.warmup, window: opts.window, traced }
}

fn tally_of(wl: &Workload, run: &RunResult) -> Tally {
    tally::tally(
        &run.records,
        &run.daemon_outcomes,
        (run.t0, run.t1),
        wl.limit,
        wl.nodes,
        wl.payload_len,
    )
}

fn provenance_line(wl: &Workload, opts: &Options, runs: usize) -> String {
    let p = Provenance::collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"window_s\": {}, \"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"git_rev\": {}, \"rustc\": {}, \"threads\": 2, \"runs\": {runs}, \"setup_probes\": {}, \"transport\": \"udp loopback\"}}}}",
        json_str(wl.name),
        opts.seed,
        opts.trace,
        json_num(opts.window.as_secs_f64()),
        p.nproc,
        json_str(&p.cpu_model),
        json_str(&p.kernel),
        json_str(&p.git_rev),
        json_str(&p.rustc),
        if opts.trace { 0 } else { SETUP_BLOCKS * SETUP_BLOCK },
    )
}

/// The sessions behind a run's numbers, failures broken down.
fn detail_line(wl: &Workload, label: &str, t: &Tally) -> String {
    let reasons: Vec<String> =
        t.abort_reasons.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let fail_frac = if t.attempted == 0 { 0.0 } else { t.failed() as f64 / t.attempted as f64 };
    format!(
        "{{\"detail\": {{\"workload\": {}, \"run\": {}, \"attempted\": {}, \"agreed\": {}, \"fail_frac\": {}, \"aborted\": {}, \"over_limit\": {}, \"unfinished_past_limit\": {}, \"errors\": {}, \"violations\": {}, \"violations_all_sessions\": {}, \"censored\": {}, \"latency_samples\": {}, \"latency_ms\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}, \"missing_daemon_outcomes\": {}, \"abort_reasons\": {{{}}}}}}}",
        json_str(wl.name),
        json_str(label),
        t.attempted,
        t.agreed,
        json_num(fail_frac),
        t.aborted,
        t.over_limit,
        t.unfinished,
        t.errors,
        t.violations,
        t.violations_total,
        t.censored,
        t.latencies_ms.len(),
        json_num(t.latency_ms(0.50)),
        json_num(t.latency_ms(0.90)),
        json_num(t.latency_ms(0.99)),
        json_num(t.latency_ms(0.999)),
        json_num(t.latency_ms(1.0)),
        t.missing_daemon_outcomes,
        reasons.join(", "),
    )
}

fn violation_lines(t: &Tally) -> impl Iterator<Item = String> + '_ {
    t.violation_notes.iter().map(|n| format!("# VIOLATION: {n}"))
}

/// Runs one workload and reports it.
pub fn measure(wl: &Workload, opts: &Options) -> io::Result<Report> {
    wl.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let seeds = Seeds::new(opts.seed);
    if opts.trace {
        return measure_traced(wl, opts, &seeds);
    }
    let mut setups = Vec::with_capacity(SETUP_BLOCKS * SETUP_BLOCK);
    for block in 0..SETUP_BLOCKS {
        if block > 0 {
            std::thread::sleep(SETUP_PAUSE);
        }
        for _ in 0..SETUP_BLOCK {
            setups.push(harness::setup_probe(wl, &seeds)?);
        }
    }
    let run = harness::run(wl, &seeds, schedule(wl, opts, false))?;
    let t = tally_of(wl, &run);
    let e2e = metrics::end_to_end(&run, &t, metrics::median(&setups), sysinfo::peak_rss_mib());
    let mut lines = vec![provenance_line(wl, opts, 1), detail_line(wl, "untraced", &t)];
    lines.extend(violation_lines(&t));
    for m in &e2e {
        lines.push(format!("# {} {} = {} {}", wl.name, m.name, json_num(m.value), m.unit));
    }
    Ok(Report {
        lines,
        metrics: e2e,
        correct: t.violations_total == 0 && t.agreed > 0,
        attempted: t.attempted,
        failed: t.failed(),
    })
}

fn measure_traced(wl: &Workload, opts: &Options, seeds: &Seeds) -> io::Result<Report> {
    let base = harness::run(wl, seeds, schedule(wl, opts, false))?;
    let base_tally = tally_of(wl, &base);
    let traced = harness::run(wl, seeds, schedule(wl, opts, true))?;
    let t = tally_of(wl, &traced);

    let taps = || [&traced.coord, &traced.serve].into_iter().flat_map(|w| w.tap.iter());
    let frames: Vec<_> = taps().flat_map(|t| t.frames.iter().cloned()).collect();
    let frame = probe::frame_probe(&frames);
    let plan = probe::plan_probe(&wl.session_config(seeds), &traced.samples, seeds.root);
    let layer =
        metrics::per_layer(&traced, &t, metrics::sessions_per_s(&base, &base_tally), &frame, &plan);
    let checks = metrics::confirmations(wl, &layer);

    let mut lines = vec![
        provenance_line(wl, opts, 2),
        detail_line(wl, "untraced", &base_tally),
        detail_line(wl, "traced", &t),
    ];
    lines.extend(violation_lines(&base_tally));
    lines.extend(violation_lines(&t));
    let spans: usize = taps().map(|t| t.spans.len()).sum();
    let spans_dropped: u64 = taps().map(|t| t.spans_dropped).sum();
    lines.push(format!(
        "{{\"replay\": {{\"frames\": {}, \"roundtrip_errors\": {}, \"plans\": {}, \"plan_mismatches\": {}, \"spans\": {spans}, \"spans_dropped\": {spans_dropped}, \"span_sample\": {}}}}}",
        frame.frames, frame.roundtrip_errors, plan.sessions, plan.mismatches, tap::SPAN_SAMPLE
    ));
    lines.extend(checks.iter().map(|c| confirmation_line(wl, c)));
    for m in &layer {
        lines.push(format!("# {} {} = {} {}", wl.name, m.name, json_num(m.value), m.unit));
    }
    if let Some(dir) = &opts.out_dir {
        let written = write_trace(Path::new(dir), wl, opts, &traced, &checks)?;
        lines.push(format!("# trace written to {written}"));
    }
    Ok(Report {
        lines,
        metrics: layer,
        correct: base_tally.violations_total == 0
            && t.violations_total == 0
            && t.agreed > 0
            && frame.roundtrip_errors == 0
            && plan.mismatches == 0,
        attempted: base_tally.attempted + t.attempted,
        failed: base_tally.failed() + t.failed(),
    })
}

fn confirmation_line(wl: &Workload, c: &Confirmation) -> String {
    format!(
        "{{\"confirm\": {{\"workload\": {}, \"claim\": {}, \"measured\": {}, \"holds\": {}}}}}",
        json_str(wl.name),
        json_str(c.claim),
        json_str(&c.measured),
        c.holds
    )
}

/// Writes the traced run's spans (JSONL) and each thread's telemetry
/// snapshot and executor counters (JSON) under `dir`. Returns the span
/// file's path.
fn write_trace(
    dir: &Path,
    wl: &Workload,
    opts: &Options,
    run: &RunResult,
    checks: &[Confirmation],
) -> io::Result<String> {
    fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", wl.name, opts.seed);
    let mut spans: Vec<_> = [&run.coord, &run.serve]
        .iter()
        .flat_map(|w| w.tap.iter().flat_map(|t| t.spans.iter()))
        .collect();
    spans.sort_by_key(|s| (s.session, s.start_ns));
    let span_path = dir.join(format!("spans-{stem}.jsonl"));
    let mut f = io::BufWriter::new(fs::File::create(&span_path)?);
    for s in spans {
        writeln!(f, "{}", s.to_jsonl())?;
    }
    f.flush()?;

    let thread = |name: &str, w: &harness::ThreadWindow| {
        let m = &w.rt;
        format!(
            "{}: {{\"busy_ns\": {}, \"wall_ns\": {}, \"rt\": {{\"passes\": {}, \"task_polls\": {}, \"timer_fires\": {}, \"wakes\": {}, \"max_tasks\": {}, \"epoll_wakeups\": {}}}, \"telemetry\": {}}}",
            json_str(name),
            w.cpu_ns,
            w.wall_ns,
            m.passes,
            m.task_polls,
            m.timer_fires,
            m.wakes,
            m.max_tasks,
            m.epoll_wakeups,
            w.telemetry.to_json()
        )
    };
    let confirms: Vec<String> = checks.iter().map(|c| confirmation_line(wl, c)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"threads\": {{{}, {}}}, \"confirmations\": [{}]}}\n",
        json_str(wl.name),
        opts.seed,
        thread("coord", &run.coord),
        thread("serve", &run.serve),
        confirms.join(", ")
    );
    fs::write(dir.join(format!("telemetry-{stem}.json")), body)?;
    Ok(span_path.display().to_string())
}
