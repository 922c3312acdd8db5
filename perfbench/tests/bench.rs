//! The benchmark's own checks: every metric `BENCHMARK.json` names is
//! emitted with its unit, the audit catches a divergent secret, and one
//! seed always yields the same inputs.

use std::time::{Duration, Instant};

use thinair_gf::Gf256;
use thinair_net::session::{inject_erasure, DataKind};
use thinair_net::SessionOutcome;
use thinair_perfbench::harness::SessionRecord;
use thinair_perfbench::tally::{audit, percentile, tally, Summary};
use thinair_perfbench::workload::{Seeds, WORKLOADS};
use thinair_perfbench::{measure, Options};
use thinair_scenario::SessionVerdict;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn emitted(opts: &Options, wl: &thinair_perfbench::workload::Workload) -> Vec<(String, String)> {
    let report = measure(wl, opts).expect("run completes");
    assert!(report.correct, "{} run not correct: {:?}", wl.name, report.lines);
    assert!(report.attempted >= 1);
    let line = report.result_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 8, "eight end-to-end metrics");
    for wl in &WORKLOADS {
        let mut opts =
            Options { seed: 5, window: Duration::from_secs(2), trace: false, out_dir: None };
        assert_eq!(emitted(&opts, wl), end_to_end, "{} end-to-end metrics", wl.name);
        opts.trace = true;
        assert_eq!(emitted(&opts, wl), per_layer, "{} per-layer metrics", wl.name);
    }
}

fn outcome(session: u64, node: u8, secret: &[u8]) -> SessionOutcome {
    SessionOutcome {
        session,
        node,
        l: 1,
        m: 3,
        n_packets: 12,
        secret: vec![secret.iter().map(|&b| Gf256(b)).collect()],
        abort: None,
        trace: None,
    }
}

#[test]
fn audit_rejects_a_divergent_secret() {
    let coord = Summary::of(&outcome(9, 0, &[1, 2, 3, 4]));
    let same = Summary::of(&outcome(9, 1, &[1, 2, 3, 4]));
    let forged = Summary::of(&outcome(9, 2, &[1, 2, 3, 5]));
    assert!(matches!(audit(&coord, &[&same]), SessionVerdict::Agreed { l: 1, m: 3 }));
    assert!(matches!(audit(&coord, &[&same, &forged]), SessionVerdict::Violation { .. }));

    // The same forgery inside a run's tally: a window violation, a
    // failure, and a violation of the run as a whole.
    let t0 = Instant::now();
    let t1 = t0 + Duration::from_secs(10);
    let records = vec![
        SessionRecord {
            id: 9,
            launched: t0 + Duration::from_millis(1),
            finished: Some(t0 + Duration::from_millis(100)),
            outcome: Some(Ok(coord.clone())),
        },
        SessionRecord {
            id: 10,
            launched: t0 + Duration::from_millis(2),
            finished: Some(t0 + Duration::from_millis(90)),
            outcome: Some(Ok(Summary::of(&outcome(10, 0, &[7])))),
        },
    ];
    let daemons =
        vec![same, forged, Summary::of(&outcome(10, 1, &[7])), Summary::of(&outcome(10, 2, &[7]))];
    let t = tally(&records, &daemons, (t0, t1), Duration::from_secs(1), 3, 8);
    assert_eq!((t.agreed, t.violations, t.violations_total), (1, 1, 1));
    assert_eq!((t.attempted, t.failed()), (2, 1));
    assert_eq!(t.latencies_ms.len(), 2);

    // Daemons that diverge are caught without the coordinator's
    // outcome too: session 11's coordinator call failed, and session 12
    // has no record at all.
    let mut records = records;
    records.push(SessionRecord {
        id: 11,
        launched: t0 + Duration::from_millis(3),
        finished: Some(t0 + Duration::from_millis(80)),
        outcome: Some(Err("deadline".to_string())),
    });
    let mut daemons = daemons;
    for (session, node, secret) in [(11, 1, 4), (11, 2, 5), (12, 1, 6), (12, 2, 8)] {
        daemons.push(Summary::of(&outcome(session, node, &[secret])));
    }
    let t = tally(&records, &daemons, (t0, t1), Duration::from_secs(1), 3, 8);
    assert_eq!((t.agreed, t.violations, t.violations_total, t.errors), (1, 2, 3, 0));
    assert_eq!((t.attempted, t.failed()), (3, 2));
}

#[test]
fn a_session_past_its_limit_fails_without_being_waited_out() {
    let t0 = Instant::now();
    let t1 = t0 + Duration::from_secs(10);
    let limit = Duration::from_secs(2);
    let running = |id, launched_ms| SessionRecord {
        id,
        launched: t0 + Duration::from_millis(launched_ms),
        finished: None,
        outcome: None,
    };
    // Launched 9 s before the window closed: past the limit, failed.
    // Launched 1 s before: within it, censored.
    let t = tally(&[running(1, 1000), running(2, 9000)], &[], (t0, t1), limit, 3, 8);
    assert_eq!((t.unfinished, t.censored, t.attempted, t.failed()), (1, 1, 1, 1));
}

#[test]
fn one_seed_yields_the_same_configs_and_drop_patterns() {
    for wl in &WORKLOADS {
        let (a, b, other) = (Seeds::new(42), Seeds::new(42), Seeds::new(43));
        assert_eq!(a, b);
        let (cfg_a, cfg_b, cfg_o) =
            (wl.session_config(&a), wl.session_config(&b), wl.session_config(&other));
        assert_eq!(cfg_a.digest(), cfg_b.digest(), "{}", wl.name);
        assert_ne!(cfg_a.digest(), cfg_o.digest(), "the seed reaches the config");
        let drops = |cfg: &thinair_net::SessionConfig| -> Vec<bool> {
            let mut v = Vec::new();
            for session in 1..=32u64 {
                for receiver in 1..wl.nodes {
                    for id in 0..cfg.n_packets() as u64 {
                        v.push(inject_erasure(cfg, session, receiver, DataKind::X, id));
                        v.push(inject_erasure(cfg, session, receiver, DataKind::Z, id));
                    }
                }
            }
            v
        };
        assert_eq!(drops(&cfg_a), drops(&cfg_b), "{}", wl.name);
        assert_ne!(drops(&cfg_a), drops(&cfg_o), "{}", wl.name);
        let sessions = |s: &Seeds| (1..=64).map(|id| s.session(id)).collect::<Vec<_>>();
        assert_eq!(sessions(&a), sessions(&b));
        assert_ne!(sessions(&a), sessions(&other));
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
}
