//! Over-the-wire benchmark of the RTEC recognition stack.
//!
//! ```text
//! bash e2e_bench/run.sh --workload incr-direct --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Spawns real `rtec-cli serve` processes (behind `rtec-cli cluster`
//! for `durable-cluster`), streams seeded maritime frames into them
//! from closed-loop client threads, checks the recognised output
//! against an in-process replay by digest, and prints one JSON result
//! line last. With `--trace 1` it instead replays the same frames
//! in-process under per-layer spans. See `e2e_bench/README.md`.

mod inproc;
mod procs;
mod stats;
mod wire;
mod workload;

use procs::{Fleet, ScratchDir};
use serde_json::Value;
use stats::{median, percentile, weighted_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{Conn, SessionRun};
use workload::{SessionPlan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fixed loopback ports: ring placement hashes backend addresses, so
/// fixed ports keep placements identical between runs. They sit below
/// Linux's ephemeral range (32768–60999 by default): the cluster opens
/// one backend connection per frame, and an outgoing connection parked
/// on a listen port would make the next bind fail.
const DIRECT_ADDR: &str = "127.0.0.1:17400";
const CLUSTER_ADDR: &str = "127.0.0.1:17410";
const BACKEND_ADDRS: [&str; 2] = ["127.0.0.1:17411", "127.0.0.1:17412"];
/// Tick results of the timed leg before measurement starts: one full
/// window, so every measured tick evaluates a full window.
const WARMUP_TICKS: usize = (workload::WINDOW / workload::SLIDE) as usize;
/// Ticks of frames the cluster probe sends each way.
const PROBE_TICKS: usize = 12;
/// Largest share of the traced leg's wall time its spans may leave
/// unattributed.
const RECONCILE_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rtec_cli: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rtec_cli = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".to_string()),
                })
            }
            "--rtec-cli" => rtec_cli = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rtec_cli: rtec_cli.ok_or("--rtec-cli is required")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Frames sent on the client connections and how many came back as
/// error frames.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Sends one untimed frame and counts it.
    fn request(&mut self, conn: &mut Conn, line: &str) -> Result<String, String> {
        let reply = conn.request(line)?.to_string();
        self.attempted += 1;
        if wire::is_error(&reply) {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| reply.clone());
        }
        Ok(reply)
    }
}

/// A running deployment with one open session per client connection.
struct Deployment {
    fleet: Fleet,
    front: String,
    serve_pids: Vec<u32>,
    conns: Vec<Conn>,
}

impl Deployment {
    /// Closes the client connections (`serve` drains its connection
    /// handlers before exiting), then shuts the processes down.
    fn shutdown(self) {
        drop(self.conns);
        self.fleet.shutdown(&self.front);
    }
}

/// Spawns the workload's processes under fresh directories in `dir`,
/// connects one client per session and opens the sessions. Returns the
/// deployment and the seconds from the first spawn to the last `open`
/// reply.
fn deploy(
    w: &Workload,
    bin: &Path,
    plans: &[SessionPlan],
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Deployment, f64), String> {
    let path = |sub: &str| dir.join(sub).display().to_string();
    let mut fleet = Fleet::default();
    let started = Instant::now();
    let front = if w.cluster {
        for (i, addr) in BACKEND_ADDRS.iter().enumerate() {
            let args = [
                "serve",
                "--addr",
                addr,
                "--checkpoint-dir",
                &path("checkpoints"),
                "--journal-dir",
                &path("journal"),
            ];
            fleet.spawn(&format!("serve-{i}"), bin, &strings(&args))?;
        }
        // The front-end probes its backends as it starts and marks any
        // that do not answer dead until the next probe, so it starts
        // only once they listen.
        for addr in BACKEND_ADDRS {
            fleet.wait_ready(addr)?;
        }
        let mut args = vec!["cluster", "--addr", CLUSTER_ADDR];
        for addr in BACKEND_ADDRS {
            args.extend(["--backend", addr]);
        }
        fleet.spawn("cluster", bin, &strings(&args))?;
        CLUSTER_ADDR
    } else {
        let args = [
            "serve",
            "--addr",
            DIRECT_ADDR,
            "--journal-dir",
            &path("journal"),
        ];
        fleet.spawn("serve", bin, &strings(&args))?;
        DIRECT_ADDR
    };
    fleet.wait_ready(front)?;
    let mut conns = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut conn = Conn::connect(front)?;
        let reply = tally.request(&mut conn, &plan.open_line)?;
        if wire::is_error(&reply) {
            return Err(format!(
                "open {}: {reply}\n{}",
                plan.name,
                fleet.stderr_report()
            ));
        }
        conns.push(conn);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut serve_pids = fleet.pids();
    if w.cluster {
        serve_pids.truncate(BACKEND_ADDRS.len());
    }
    Ok((
        Deployment {
            fleet,
            front: front.to_string(),
            serve_pids,
            conns,
        },
        elapsed,
    ))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Wall time per phase of a run, for the stderr report.
struct Laps {
    last: Instant,
    laps: Vec<(&'static str, f64)>,
}

impl Laps {
    fn new() -> Laps {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Closes the current phase; returns its seconds.
    fn lap(&mut self, name: &'static str) -> f64 {
        let now = Instant::now();
        let secs = (now - self.last).as_secs_f64();
        self.last = now;
        self.laps.push((name, secs));
        secs
    }

    fn summary(&self) -> String {
        let parts: Vec<String> = self
            .laps
            .iter()
            .map(|(n, s)| format!("{n} {s:.2} s"))
            .collect();
        parts.join(", ")
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = args.workload;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let spec = read_spec(&root)?;
    if !args.rtec_cli.is_file() {
        return Err(format!("no rtec-cli binary at {}", args.rtec_cli.display()));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < w.sessions {
        return Err(format!(
            "{} drives {} client threads; this host offers {cores} cores",
            w.name, w.sessions
        ));
    }

    let mut laps = Laps::new();
    let plans = workload::generate(&w, args.seed);
    eprintln!(
        "e2e_bench: {} seed {}: {} session(s), {} events, {} frames rendered in {:.2} s",
        w.name,
        args.seed,
        plans.len(),
        plans.iter().map(|p| p.events.len()).sum::<usize>(),
        plans.iter().map(|p| p.frames.len()).sum::<usize>(),
        laps.lap("generate")
    );

    // Declared before the deployment so the processes die first.
    let scratch = ScratchDir::new(&root.join(".e2e_bench_tmp"))?;
    let mut tally = Tally::default();
    let mut setup_samples = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let dir = scratch.subdir(&format!("setup{i}"))?;
        let (mut deployment, secs) = deploy(&w, &args.rtec_cli, &plans, &dir, &mut tally)?;
        setup_samples.push(secs);
        if i + 1 < SETUPS {
            for (conn, plan) in deployment.conns.iter_mut().zip(&plans) {
                tally.request(conn, &plan.simple_frame("close"))?;
            }
            deployment.shutdown();
        } else {
            live = Some(deployment);
        }
    }
    let mut deployment = live.expect("at least one set-up");
    laps.lap("setup");

    // The timed leg.
    let limits: Vec<usize> = plans
        .iter()
        .map(|p| {
            if args.trace {
                p.prefix_for_ticks(w.trace_ticks)
            } else {
                p.frames.len()
            }
        })
        .collect();
    let measure = (!args.trace).then(|| Duration::from_secs(args.seconds));
    let pids = deployment.fleet.pids();
    let lockstep = wire::Lockstep::new(plans.len());
    let (warmed_tx, warmed) = std::sync::mpsc::channel();
    let (runs, cpu_before) = std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .conns
            .iter_mut()
            .zip(&plans)
            .zip(&limits)
            .map(|((conn, plan), &limit)| {
                let warmed_tx = warmed_tx.clone();
                let frames = &plan.frames[..limit];
                let lockstep = &lockstep;
                scope.spawn(move || {
                    wire::drive(conn, frames, lockstep, WARMUP_TICKS, measure, warmed_tx)
                })
            })
            .collect();
        drop(warmed_tx);
        // Server CPU is counted from the moment every session has
        // finished its warm-up (a session that fails hangs up early).
        for _ in 0..limits.len() {
            if warmed.recv().is_err() {
                break;
            }
        }
        let cpu_before = cpu_total(&pids);
        let runs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>();
        (runs, cpu_before)
    });
    let runs = runs?;
    let cpu_used = cpu_total(&pids)? - cpu_before?;
    let mut peak_rss_mb = 0.0;
    for &pid in &deployment.serve_pids {
        peak_rss_mb += procs::peak_rss_mb(pid)?;
    }
    for run in &runs {
        tally.attempted += run.frames_sent as u64;
        tally.failed += run.error_frames;
        if tally.first_error.is_none() {
            tally.first_error.clone_from(&run.first_error);
        }
    }

    laps.lap("timed");

    // Untimed: final output, evaluator, placement, close.
    let mut wire_digests = Vec::new();
    let mut evaluators = Vec::new();
    let mut placements = Vec::new();
    for (conn, plan) in deployment.conns.iter_mut().zip(&plans) {
        let reply = tally.request(conn, &plan.simple_frame("query"))?;
        wire_digests.push(stats::reply_digest(&reply).unwrap_or_else(|e| format!("error: {e}")));
        let reply = tally.request(conn, &plan.simple_frame("stats"))?;
        let stats: Value = serde_json::from_str(&reply).map_err(|e| format!("stats reply: {e}"))?;
        evaluators.push(stats["evaluator"].as_str().unwrap_or("unknown").to_string());
        if w.cluster {
            let home = BACKEND_ADDRS.iter().find(|b| {
                procs::roundtrip(b, &plan.simple_frame("stats")).is_ok_and(|r| !wire::is_error(&r))
            });
            placements.push(home.map_or("unknown", |b| *b).to_string());
        }
        tally.request(conn, &plan.simple_frame("close"))?;
    }
    let probe_us = if args.trace && w.cluster {
        let backends = strings(&BACKEND_ADDRS);
        let probe =
            inproc::cluster_probe(&backends, &plans[0], plans[0].prefix_for_ticks(PROBE_TICKS));
        probe.map_err(|e| format!("{e}\n{}", deployment.fleet.stderr_report()))?
    } else {
        0.0
    };
    deployment.shutdown();

    laps.lap("tail");
    let sent: Vec<usize> = runs.iter().map(|r| r.frames_sent).collect();
    let mut checks = Vec::new();
    let (metrics, reference_digests) = if args.trace {
        let registry = inproc::registry_leg(&w, &plans, &sent, &scratch.subdir("registry")?)?;
        let traced = inproc::traced_leg(&w, &plans, &sent, &scratch.subdir("traced")?)?;
        let engine = inproc::engine_leg(&w, &plans, &sent)?;
        checks.push(("registry digest", registry.digests == wire_digests));
        checks.push(("engine digest", engine.digests == wire_digests));
        let wire_wait: f64 = runs.iter().flat_map(|r| r.waits.iter()).sum();
        let dispatch: f64 = registry.dispatch_s.iter().flatten().sum();
        let unattributed = (traced.wall_s - traced.tracer.total_s()) / traced.wall_s;
        checks.push((
            "trace reconciles",
            unattributed.abs() <= RECONCILE_TOLERANCE,
        ));
        let metrics = layer_metrics(
            &traced,
            &engine,
            &registry,
            wire_wait - dispatch,
            probe_us,
            unattributed,
        );
        (metrics, traced.digests)
    } else {
        let mut oracle = Vec::new();
        for (plan, &prefix) in plans.iter().zip(&sent) {
            oracle.push(inproc::oracle_digest(&w, plan, prefix)?);
        }
        let mut metrics = vec![metric("setup_s", "s", median(&setup_samples))];
        metrics.extend(wire_metrics(&runs, cpu_used));
        metrics.push(metric("serve_peak_rss_mb", "MiB", peak_rss_mb));
        (metrics, oracle)
    };
    laps.lap(if args.trace {
        "in-process legs"
    } else {
        "oracle"
    });
    checks.push(("digest gate", reference_digests == wire_digests));
    checks.push(("no error frames", tally.failed == 0));
    if w.cluster {
        // The ring puts every session on the first backend; a placement
        // change would alter the traffic each backend carries.
        checks.push((
            "sessions on the first backend",
            placements.iter().all(|b| b == BACKEND_ADDRS[0]),
        ));
    }
    let expected = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    if emitted != expected.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "emitted metrics {emitted:?} differ from BENCHMARK.json's {expected:?}"
        ));
    }
    let correct = checks.iter().all(|&(_, ok)| ok);

    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<32} {:>14.6} ratio ({} of {} frames)",
        "failed_frame_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for (name, ok) in &checks {
        eprintln!("  check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    eprintln!("  phases: {}", laps.summary());
    if let Some(err) = &tally.first_error {
        eprintln!("  first error frame: {err}");
    }

    let metric_map = |ms: &[Metric]| -> Value {
        let mut map = BTreeMap::new();
        for m in ms {
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Value::from(m.value));
            entry.insert("unit".to_string(), Value::from(m.unit));
            map.insert(m.name.to_string(), Value::Object(entry));
        }
        Value::Object(map)
    };
    let sessions: Vec<Value> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut s = BTreeMap::new();
            s.insert("session".to_string(), Value::from(plan.name.as_str()));
            s.insert("seed".to_string(), Value::from(plan.seed.to_string()));
            s.insert("frames_sent".to_string(), Value::from(sent[i] as i64));
            s.insert(
                "acked_events".to_string(),
                Value::from(runs[i].acked_events as i64),
            );
            s.insert("evaluator".to_string(), Value::from(evaluators[i].as_str()));
            s.insert("digest".to_string(), Value::from(wire_digests[i].as_str()));
            s.insert(
                "reference_digest".to_string(),
                Value::from(reference_digests[i].as_str()),
            );
            if let Some(backend) = placements.get(i) {
                s.insert("backend".to_string(), Value::from(backend.as_str()));
            }
            Value::Object(s)
        })
        .collect();
    let mut record = BTreeMap::new();
    record.insert("workload".to_string(), Value::from(w.name));
    record.insert("seed".to_string(), Value::from(args.seed.to_string()));
    record.insert("seconds".to_string(), Value::from(args.seconds as i64));
    record.insert("trace".to_string(), Value::from(args.trace));
    record.insert("host_cores".to_string(), Value::from(cores as i64));
    record.insert("rustc".to_string(), Value::from(rustc_version()));
    record.insert(
        "git_rev".to_string(),
        git_rev(&root).map_or(Value::Null, Value::from),
    );
    record.insert(
        "source_digest".to_string(),
        Value::from(source_digest(&root)),
    );
    record.insert("sessions".to_string(), Value::Array(sessions));
    record.insert(
        "setup_samples_s".to_string(),
        Value::Array(setup_samples.iter().map(|&s| Value::from(s)).collect()),
    );
    record.insert("checks".to_string(), {
        let mut map = BTreeMap::new();
        for (name, ok) in &checks {
            map.insert(name.to_string(), Value::from(*ok));
        }
        Value::Object(map)
    });
    record.insert("metrics".to_string(), metric_map(&metrics));
    let mut wrapper = BTreeMap::new();
    wrapper.insert("record".to_string(), Value::Object(record));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(wrapper)).map_err(|e| e.to_string())?
    );

    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::from(correct));
    result.insert("attempted".to_string(), Value::from(tally.attempted as i64));
    result.insert("failed".to_string(), Value::from(tally.failed as i64));
    result.insert("metrics".to_string(), metric_map(&metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// End-to-end metrics of the wire leg, over the slide intervals after
/// the warm-up. Throughput is the median of the per-interval rates (per
/// session, summed); percentiles pool every measured sample. The ack
/// tail is the median over (session, interval) of the interval's
/// slowest ack.
fn wire_metrics(runs: &[SessionRun], cpu_used: f64) -> Vec<Metric> {
    let mut throughput = 0.0;
    let mut measured_events = 0;
    let mut results = Vec::new();
    let mut acks = Vec::new();
    let mut slide_max_acks = Vec::new();
    let mut recognition = Vec::new();
    for run in runs {
        let measured = WARMUP_TICKS.min(run.ticks.len())..run.ticks.len();
        let mut rates = Vec::new();
        for t in measured {
            let tick = &run.ticks[t];
            rates.push(tick.events as f64 / (tick.done - run.ticks[t - 1].done).as_secs_f64());
            measured_events += tick.events;
            results.push(tick.result_ms);
        }
        throughput += median(&rates);
        // Samples are tagged with the result that closed their interval.
        let mut slide_max = BTreeMap::new();
        for &(tick, ms) in run.ack_ms.iter().filter(|&&(tick, _)| tick >= WARMUP_TICKS) {
            acks.push(ms);
            let max = slide_max.entry(tick).or_insert(ms);
            *max = f64::max(*max, ms);
        }
        slide_max_acks.extend(slide_max.into_values());
        recognition.extend(
            run.recognition_ms
                .iter()
                .filter(|&&(tick, ..)| tick >= WARMUP_TICKS)
                .map(|&(_, ms, n)| (ms, n)),
        );
    }
    vec![
        metric("events_per_s", "1/s", throughput),
        metric("ack_p50_ms", "ms", percentile(&acks, 50.0)),
        metric("ack_slide_max_ms", "ms", median(&slide_max_acks)),
        metric(
            "recognition_p50_ms",
            "ms",
            weighted_percentile(&recognition, 50.0),
        ),
        metric(
            "recognition_p99_ms",
            "ms",
            weighted_percentile(&recognition, 99.0),
        ),
        metric("result_p50_ms", "ms", percentile(&results, 50.0)),
        metric("result_p90_ms", "ms", percentile(&results, 90.0)),
        metric(
            "cpu_us_per_event",
            "us",
            cpu_used * 1e6 / measured_events.max(1) as f64,
        ),
    ]
}

/// Per-layer metrics of a traced run, in BENCHMARK.json order.
fn layer_metrics(
    traced: &inproc::TracedLeg,
    engine: &inproc::EngineLeg,
    registry: &inproc::RegistryLeg,
    wire_overhead_s: f64,
    cluster_added_us: f64,
    unattributed: f64,
) -> Vec<Metric> {
    use inproc::Layer as L;
    let t = &traced.tracer;
    let e = &engine.tracer;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    vec![
        metric("protocol.parse_request_s", "s", t.self_s(L::ParseRequest)),
        metric("parser.parse_term_s", "s", t.self_s(L::ParseTerm)),
        metric("session.ingest_s", "s", t.self_s(L::Ingest)),
        metric("journal.append_s", "s", t.self_s(L::JournalAppend)),
        metric("journal.commit_s", "s", t.self_s(L::JournalCommit)),
        metric("journal.rotate_s", "s", t.self_s(L::JournalRotate)),
        metric(
            "journal.bytes_per_event",
            "B",
            per(traced.journal_bytes as f64, traced.events),
        ),
        metric("engine.add_event_s", "s", e.self_s(L::EngineAddEvent)),
        metric("engine.run_to_s", "s", e.self_s(L::EngineRunTo)),
        metric("engine.checkpoint_s", "s", e.self_s(L::EngineCheckpoint)),
        metric("session.tick_s", "s", t.self_s(L::Tick)),
        metric("session.windows", "count", traced.windows as f64),
        metric(
            "session.backpressure_waits",
            "count",
            traced.backpressure_waits as f64,
        ),
        metric(
            "session.queue_high_water",
            "count",
            traced.queue_high_water as f64,
        ),
        metric(
            "session.processed_ratio",
            "ratio",
            per(traced.events_processed as f64, traced.events),
        ),
        metric("persist.capture_s", "s", t.self_s(L::Capture)),
        metric("persist.save_s", "s", t.self_s(L::Save)),
        metric(
            "persist.checkpoint_bytes",
            "B",
            per(traced.checkpoint_bytes as f64, traced.checkpoints),
        ),
        metric("session.query_s", "s", t.self_s(L::Query)),
        // What the registry's query path spends beyond `Session::query`:
        // request parsing, the session lookup and the reply encoding.
        metric(
            "protocol.encode_query_s",
            "s",
            registry.query_s - t.self_s(L::Query),
        ),
        metric("registry.batch_s", "s", registry.batch_s),
        metric("registry.tick_s", "s", registry.tick_s),
        metric("registry.query_s", "s", registry.query_s),
        metric("wire.overhead_s", "s", wire_overhead_s),
        metric("cluster.added_us_per_frame", "us", cluster_added_us),
        metric("bench.loop_s", "s", t.self_s(L::Loop)),
        metric("trace.events", "count", traced.events as f64),
        metric(
            "trace.overhead_pct",
            "%",
            (traced.wall_s / registry.wall_s - 1.0) * 100.0,
        ),
        metric("trace.unattributed_share", "ratio", unattributed),
    ]
}

/// Metric names declared in BENCHMARK.json.
struct Spec {
    end_to_end: Vec<String>,
    per_layer: Vec<String>,
}

fn read_spec(root: &Path) -> Result<Spec, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        v[key]
            .as_array()
            .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
            .iter()
            .map(|m| {
                m["name"]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: unnamed {key} metric"))
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: names("end_to_end")?,
        per_layer: names("per_layer")?,
    })
}

fn cpu_total(pids: &[u32]) -> Result<f64, String> {
    pids.iter().map(|&pid| procs::cpu_seconds(pid)).sum()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD`, confined to the checkout (`None` outside a
/// git work tree, as in an exported checkout).
fn git_rev(root: &Path) -> Option<String> {
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// FNV-1a 64 over the workspace sources (`Cargo.*`, `crates/`,
/// `shims/`), identifying the code under test where no git revision is
/// available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .display()
            .to_string();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
