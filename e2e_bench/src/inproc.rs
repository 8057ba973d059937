//! In-process legs over the same frames the wire leg sent: the oracle
//! replay behind the digest gate, the `Registry::dispatch` leg, the
//! traced leg that calls each module's public functions under spans,
//! the single-thread `Engine` baseline, and the `cluster` proxy probe.

use crate::stats::digest;
use crate::workload::{FrameKind, SessionPlan, Workload, SLIDE, WINDOW};
use rtec::engine::{Engine, EngineConfig, RecognitionOutput};
use rtec::{EventDescription, SymbolTable};
use rtec_service::persist::{self, SessionCheckpoint};
use rtec_service::protocol::parse_request;
use rtec_service::{FsyncPolicy, Ingest, Journal, Registry, Session, SessionConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The session options the workload's `open` frame carries.
pub fn session_config(w: &Workload) -> SessionConfig {
    SessionConfig {
        window: Some(WINDOW),
        slide: Some(SLIDE),
        incremental: w.incremental,
        shards: w.shards,
        ..SessionConfig::default()
    }
}

/// Rows and warnings of a session's output, rendered and ordered as the
/// registry's `query` reply renders them.
fn rows_of(out: &RecognitionOutput, symbols: &SymbolTable) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = out
        .iter()
        .map(|(fvp, list)| (fvp.display(symbols), list.to_string()))
        .collect();
    rows.sort();
    rows
}

fn output_digest(out: &RecognitionOutput, symbols: &SymbolTable) -> String {
    digest(&rows_of(out, symbols), &out.warnings)
}

fn expect_accepted(outcome: Result<Ingest, String>, t: i64) -> Result<(), String> {
    match outcome? {
        Ingest::Accepted => Ok(()),
        Ingest::Refused(reason) => Err(format!("event at t={t} refused: {}", reason.as_str())),
    }
}

/// The digest gate's reference: the first `prefix` frames of `plan`
/// replayed straight into a `Session` (no protocol, no journal).
pub fn oracle_digest(w: &Workload, plan: &SessionPlan, prefix: usize) -> Result<String, String> {
    let mut session = Session::open(plan.name.as_str(), &plan.description, session_config(w))?;
    for frame in &plan.frames[..prefix] {
        match frame.kind {
            FrameKind::Batch { first, count } => {
                for (t, term) in &plan.events[first..first + count] {
                    expect_accepted(session.ingest_event(term, *t), *t)?;
                }
            }
            FrameKind::Tick { to } => {
                session.tick(to)?;
            }
            FrameKind::Query => {
                black_box(session.query()?);
            }
        }
    }
    let (out, symbols) = session.query()?;
    session.close()?;
    Ok(output_digest(&out, &symbols))
}

/// Walks the sessions' frame prefixes in lockstep (frame `i` of every
/// session before frame `i + 1` of any), the order a single thread
/// serving all connections round-robin would see.
fn lockstep(
    prefixes: &[usize],
    mut f: impl FnMut(usize, usize) -> Result<(), String>,
) -> Result<(), String> {
    let longest = prefixes.iter().copied().max().unwrap_or(0);
    for i in 0..longest {
        for (s, &len) in prefixes.iter().enumerate() {
            if i < len {
                f(s, i)?;
            }
        }
    }
    Ok(())
}

/// Time spent in `Registry::dispatch`, by command, plus the digests.
#[derive(Default)]
pub struct RegistryLeg {
    pub wall_s: f64,
    pub batch_s: f64,
    pub tick_s: f64,
    pub query_s: f64,
    /// Dispatch time per frame, per session (aligned with the frames).
    pub dispatch_s: Vec<Vec<f64>>,
    pub digests: Vec<String>,
}

/// Dispatches the frames through an in-process `Registry` configured
/// like the workload's `serve` processes.
pub fn registry_leg(
    w: &Workload,
    plans: &[SessionPlan],
    prefixes: &[usize],
    dir: &Path,
) -> Result<RegistryLeg, String> {
    let checkpoints = w.cluster.then(|| dir.join("checkpoints"));
    let registry = Registry::with_options(checkpoints, None)
        .with_journal(Some(dir.join("journal")), FsyncPolicy::default());
    let dispatch = |line: &str| -> Result<String, String> {
        let reply = registry.dispatch(line);
        if crate::wire::is_error(&reply) {
            return Err(format!("in-process dispatch failed: {reply}"));
        }
        Ok(reply)
    };
    for plan in plans {
        dispatch(&plan.open_line)?;
    }
    let mut leg = RegistryLeg {
        dispatch_s: plans.iter().map(|_| Vec::new()).collect(),
        ..RegistryLeg::default()
    };
    let started = Instant::now();
    lockstep(prefixes, |s, i| {
        let frame = &plans[s].frames[i];
        let t0 = Instant::now();
        black_box(dispatch(&frame.line)?);
        let dt = t0.elapsed().as_secs_f64();
        leg.dispatch_s[s].push(dt);
        match frame.kind {
            FrameKind::Batch { .. } => leg.batch_s += dt,
            FrameKind::Tick { .. } => leg.tick_s += dt,
            FrameKind::Query => leg.query_s += dt,
        }
        Ok(())
    })?;
    leg.wall_s = started.elapsed().as_secs_f64();
    for plan in plans {
        let reply = dispatch(&plan.simple_frame("query"))?;
        leg.digests.push(crate::stats::reply_digest(&reply)?);
        dispatch(&plan.simple_frame("close"))?;
    }
    Ok(leg)
}

/// The layers the traced legs attribute self time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own bookkeeping between layer calls: extracting
    /// the events of a batch, checking outcomes, sizing checkpoints.
    Loop,
    ParseRequest,
    ParseTerm,
    Ingest,
    JournalAppend,
    JournalCommit,
    JournalRotate,
    Tick,
    Capture,
    Save,
    Query,
    EngineAddEvent,
    EngineRunTo,
    EngineCheckpoint,
}

const LAYERS: usize = Layer::EngineCheckpoint as usize + 1;

/// Aggregating span recorder: self time per layer, i.e. each span's
/// duration minus its children's.
pub struct Tracer {
    self_s: [f64; LAYERS],
    stack: Vec<(Layer, Instant, f64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            self_s: [0.0; LAYERS],
            stack: Vec::with_capacity(8),
        }
    }

    pub fn enter(&mut self, layer: Layer) {
        self.stack.push((layer, Instant::now(), 0.0));
    }

    pub fn exit(&mut self, layer: Layer) {
        let end = Instant::now();
        let (open, start, children) = self.stack.pop().expect("span stack underflow");
        assert_eq!(open, layer, "spans must nest");
        let dur = (end - start).as_secs_f64();
        self.self_s[layer as usize] += dur - children;
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += dur;
        }
    }

    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    pub fn total_s(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// The `(t, term)` pairs of a parsed `batch` request.
fn batch_events(req: &serde_json::Value) -> Result<Vec<(i64, &str)>, String> {
    let entries = req["events"].as_array().ok_or("batch without events")?;
    entries
        .iter()
        .map(|entry| {
            let t = entry["t"].as_i64().ok_or("event without t")?;
            let term = entry["event"].as_str().ok_or("event without term")?;
            Ok((t, term))
        })
        .collect()
}

/// Results of the traced leg.
pub struct TracedLeg {
    pub tracer: Tracer,
    pub wall_s: f64,
    pub events: u64,
    pub journal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub backpressure_waits: u64,
    pub queue_high_water: u64,
    pub windows: u64,
    pub events_processed: u64,
    pub digests: Vec<String>,
}

struct TracedSession {
    session: Session,
    journal: Journal,
    /// Table the standalone `parse_term` probe interns into.
    probe_symbols: SymbolTable,
}

/// Replays the frames through the public functions the registry calls
/// — `protocol::parse_request`, `Session::ingest_event`,
/// `Journal::append_event`/`commit`, `Session::tick`,
/// `SessionCheckpoint::capture`, `persist::save`, `Journal::rotate`,
/// `Session::query` — each under its own span. `parser::parse_term` is
/// timed as a standalone probe on every event term: `ingest_event`
/// parses internally, so the probe's time is duplicated work that shows
/// up in `trace.overhead_pct`. The benchmark's own bookkeeping between
/// the calls is spanned as [`Layer::Loop`]; nothing else is, so work that
/// escapes every span shows up as unattributed wall time. The query
/// reply encoding is private to the registry and not re-enacted.
pub fn traced_leg(
    w: &Workload,
    plans: &[SessionPlan],
    prefixes: &[usize],
    dir: &Path,
) -> Result<TracedLeg, String> {
    let checkpoint_dir = dir.join("checkpoints");
    let journal_dir = dir.join("journal");
    let mut sessions = Vec::with_capacity(plans.len());
    for plan in plans {
        let open = parse_request(&plan.open_line)?;
        let session = Session::open(plan.name.as_str(), &plan.description, session_config(w))?;
        let mut journal = Journal::create(&journal_dir, &plan.name, FsyncPolicy::default())?;
        journal.append_open(&open);
        journal.commit()?;
        sessions.push(TracedSession {
            session,
            journal,
            probe_symbols: SymbolTable::new(),
        });
    }
    let journal_bytes_before = rtec_service::obs::metrics().journal_bytes.get();
    let mut tr = Tracer::new();
    let mut events = 0u64;
    let mut checkpoints = 0u64;
    let mut checkpoint_bytes = 0u64;
    let started = Instant::now();
    lockstep(prefixes, |s, i| {
        let frame = &plans[s].frames[i];
        let ts = &mut sessions[s];
        tr.enter(Layer::ParseRequest);
        let req = parse_request(&frame.line)?;
        tr.exit(Layer::ParseRequest);
        match frame.kind {
            FrameKind::Batch { .. } => {
                tr.enter(Layer::Loop);
                let entries = batch_events(&req);
                tr.exit(Layer::Loop);
                for (t, term) in entries? {
                    tr.enter(Layer::ParseTerm);
                    let parsed = rtec::parser::parse_term(term, &mut ts.probe_symbols);
                    tr.exit(Layer::ParseTerm);
                    tr.enter(Layer::Ingest);
                    let outcome = ts.session.ingest_event(term, t);
                    tr.exit(Layer::Ingest);
                    tr.enter(Layer::JournalAppend);
                    ts.journal.append_event(t, term);
                    tr.exit(Layer::JournalAppend);
                    tr.enter(Layer::Loop);
                    let checked = parsed
                        .map_err(|e| e.to_string())
                        .and_then(|p| expect_accepted(outcome, t).map(|()| black_box(p)));
                    tr.exit(Layer::Loop);
                    checked?;
                    events += 1;
                }
                tr.enter(Layer::JournalCommit);
                let committed = ts.journal.commit();
                tr.exit(Layer::JournalCommit);
                committed?;
            }
            FrameKind::Tick { to } => {
                tr.enter(Layer::Tick);
                let ticked = ts.session.tick(to);
                tr.exit(Layer::Tick);
                ticked?;
                if w.cluster {
                    tr.enter(Layer::Capture);
                    let mut image = SessionCheckpoint::capture(&ts.session);
                    if let Some(image) = image.as_mut() {
                        image.journal_seq = ts.journal.seq();
                    }
                    tr.exit(Layer::Capture);
                    let image = image.ok_or("no checkpoint image after a tick")?;
                    tr.enter(Layer::Save);
                    let saved = persist::save(&checkpoint_dir, &image);
                    tr.exit(Layer::Save);
                    tr.enter(Layer::Loop);
                    let size = saved.and_then(|path| {
                        std::fs::metadata(&path)
                            .map(|m| m.len())
                            .map_err(|e| e.to_string())
                    });
                    tr.exit(Layer::Loop);
                    checkpoints += 1;
                    checkpoint_bytes += size?;
                    tr.enter(Layer::JournalRotate);
                    let rotated = ts.journal.rotate(image.journal_seq);
                    tr.exit(Layer::JournalRotate);
                    rotated?;
                }
            }
            FrameKind::Query => {
                tr.enter(Layer::Query);
                let queried = ts.session.query();
                tr.exit(Layer::Query);
                black_box(queried?);
            }
        }
        Ok(())
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let journal_bytes = rtec_service::obs::metrics().journal_bytes.get() - journal_bytes_before;
    let mut leg = TracedLeg {
        tracer: tr,
        wall_s,
        events,
        journal_bytes,
        checkpoints,
        checkpoint_bytes,
        backpressure_waits: 0,
        queue_high_water: 0,
        windows: 0,
        events_processed: 0,
        digests: Vec::new(),
    };
    for ts in sessions {
        let stats = ts.session.stats();
        leg.backpressure_waits += stats.backpressure_waits;
        leg.queue_high_water = leg.queue_high_water.max(
            ts.session
                .queue_high_water()
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
        );
        leg.windows += stats.engine.windows as u64;
        leg.events_processed += stats.engine.events_processed as u64;
        let mut session = ts.session;
        let (out, symbols) = session.query()?;
        leg.digests.push(output_digest(&out, &symbols));
        session.close()?;
    }
    Ok(leg)
}

/// The single-thread `Engine` baseline over the same events and ticks:
/// one engine per session, a checkpoint after every `run_to` as the
/// session's shard workers take one.
pub struct EngineLeg {
    pub tracer: Tracer,
    pub digests: Vec<String>,
}

pub fn engine_leg(
    w: &Workload,
    plans: &[SessionPlan],
    prefixes: &[usize],
) -> Result<EngineLeg, String> {
    let mut tr = Tracer::new();
    let mut digests = Vec::new();
    for (plan, &prefix) in plans.iter().zip(prefixes) {
        let desc = EventDescription::parse(&plan.description)
            .and_then(|d| d.compile())
            .map_err(|e| format!("description: {e}"))?;
        let config = EngineConfig::sliding(WINDOW, SLIDE).with_incremental(w.incremental);
        let mut engine = Engine::new(&desc, config);
        let mut symbols = desc.symbols.clone();
        for frame in &plan.frames[..prefix] {
            match frame.kind {
                FrameKind::Batch { first, count } => {
                    for (t, term) in &plan.events[first..first + count] {
                        let term = rtec::parser::parse_term(term, &mut symbols)
                            .map_err(|e| e.to_string())?;
                        tr.enter(Layer::EngineAddEvent);
                        engine.add_event_from(&term, &symbols, *t);
                        tr.exit(Layer::EngineAddEvent);
                    }
                }
                FrameKind::Tick { to } => {
                    tr.enter(Layer::EngineRunTo);
                    black_box(engine.run_to(to));
                    tr.exit(Layer::EngineRunTo);
                    tr.enter(Layer::EngineCheckpoint);
                    black_box(engine.checkpoint());
                    tr.exit(Layer::EngineCheckpoint);
                }
                FrameKind::Query => {}
            }
        }
        digests.push(output_digest(engine.output(), engine.symbols()));
    }
    Ok(EngineLeg {
        tracer: tr,
        digests,
    })
}

/// Mean extra time per frame that `Cluster::dispatch` (one backend
/// connection per forwarded frame) spends over a direct
/// `Client::request` on a persistent connection to the same backend,
/// over the first `prefix` frames of `plan`, in microseconds. Run
/// against the live backends after the timed leg, under a session name
/// of its own.
pub fn cluster_probe(
    backends: &[String],
    plan: &SessionPlan,
    prefix: usize,
) -> Result<f64, String> {
    const NAME: &str = "probe";
    let own = |line: &str| {
        line.replacen(
            &format!("\"session\":\"{}\"", plan.name),
            &format!("\"session\":\"{NAME}\""),
            1,
        )
    };
    let frames: Vec<String> = plan.frames[..prefix].iter().map(|f| own(&f.line)).collect();
    let open = own(&plan.open_line);
    let close = own(&plan.simple_frame("close"));
    let stats = own(&plan.simple_frame("stats"));

    let cluster = rtec_cli::cluster::Cluster::new(backends, 32)?;
    let proxied = |line: &str| -> Result<(), String> {
        let reply = cluster.dispatch(line);
        if crate::wire::is_error(&reply) {
            return Err(format!("cluster probe: {reply}"));
        }
        Ok(())
    };
    proxied(&open)?;
    let mut via_cluster = 0.0;
    for line in &frames {
        let t0 = Instant::now();
        proxied(line)?;
        via_cluster += t0.elapsed().as_secs_f64();
    }
    let home = backends
        .iter()
        .find(|b| {
            crate::procs::roundtrip(b, &stats).is_ok_and(|reply| !crate::wire::is_error(&reply))
        })
        .ok_or("cluster probe: session not found on any backend")?
        .clone();
    proxied(&close)?;

    let mut client = rtec_service::Client::connect(&home)?;
    client.request(&open)?;
    let mut direct = 0.0;
    for line in &frames {
        let t0 = Instant::now();
        client.request(line)?;
        direct += t0.elapsed().as_secs_f64();
    }
    client.request(&close)?;
    Ok((via_cluster - direct) / frames.len().max(1) as f64 * 1e6)
}
