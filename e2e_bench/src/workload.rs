//! Workload definitions and input generation.
//!
//! Every input is a pure function of the workload and `--seed`: the
//! seeded `maritime::synth` fleet, its background knowledge, and the
//! NDJSON frames a `rtec-cli stream`-style client sends (64-event
//! `batch` frames, a `tick` at every slide boundary, optionally a
//! `query` after each tick). Frames are rendered here, before anything
//! is timed.

use maritime::synth::SynthConfig;
use serde_json::Value;
use std::collections::BTreeMap;

/// Events per `batch` frame: the stream client's default.
pub const BATCH: usize = 64;

/// Recognition window and slide of every workload (seconds).
pub const WINDOW: i64 = 3600;
pub const SLIDE: i64 = 600;

/// The fixed shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Concurrent sessions, one client connection (and thread) each,
    /// named `s0`, `s1`, ….
    pub sessions: usize,
    /// Fleet size per session.
    pub vessels: usize,
    /// Simulation steps rendered per session (60 s apart). The timed leg
    /// stops at the first tick result after `--seconds`, so this only
    /// has to outlast the run; it is sized for roughly twice the
    /// current throughput.
    pub steps: usize,
    pub shards: usize,
    pub incremental: bool,
    /// Send a `query` after every tick (reads beside writes).
    pub query_each_tick: bool,
    /// `cluster` in front of two `serve` backends sharing checkpoint and
    /// journal directories; otherwise one `serve` with a journal only.
    pub cluster: bool,
    /// Ticks covered by the traced run. Fixed, so per-layer totals
    /// compare across commits however fast the wire leg is.
    pub trace_ticks: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "incr-direct",
        sessions: 1,
        vessels: 1_250,
        steps: 1_000,
        shards: 2,
        incremental: true,
        query_each_tick: false,
        cluster: false,
        trace_ticks: 40,
    },
    Workload {
        name: "full-direct",
        sessions: 1,
        vessels: 1_250,
        steps: 400,
        shards: 2,
        incremental: false,
        query_each_tick: false,
        cluster: false,
        trace_ticks: 16,
    },
    Workload {
        name: "durable-cluster",
        // The cluster's default 32-vnode ring over the fixed backend
        // ports places `s0` and `s1` on the first backend, leaving the
        // second as the idle failover target; the run checks this.
        sessions: 2,
        vessels: 250,
        steps: 800,
        shards: 1,
        incremental: true,
        query_each_tick: true,
        cluster: true,
        trace_ticks: 30,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What a frame asks for, with the indices the oracle and the latency
/// accounting need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameKind {
    /// `events[first..first + count]`.
    Batch {
        first: usize,
        count: usize,
    },
    Tick {
        to: i64,
    },
    Query,
}

#[derive(Clone, Debug)]
pub struct Frame {
    pub kind: FrameKind,
    pub line: String,
    /// The reply to this frame completes a tick's result (the tick
    /// reply, or the query reply after it where the workload queries).
    pub ends_result: bool,
}

/// One session's generated inputs.
pub struct SessionPlan {
    pub name: String,
    pub seed: u64,
    pub description: String,
    pub open_line: String,
    /// `(t, term)` in stream order.
    pub events: Vec<(i64, String)>,
    pub frames: Vec<Frame>,
}

impl SessionPlan {
    /// Number of frames up to and including the `ticks`-th tick result.
    pub fn prefix_for_ticks(&self, ticks: usize) -> usize {
        let mut seen = 0;
        for (i, f) in self.frames.iter().enumerate() {
            if f.ends_result {
                seen += 1;
                if seen == ticks {
                    return i + 1;
                }
            }
        }
        self.frames.len()
    }

    /// A `{"cmd":CMD,"session":NAME}` frame.
    pub fn simple_frame(&self, cmd: &str) -> String {
        format!("{{\"cmd\":\"{cmd}\",\"session\":{}}}", json_str(&self.name))
    }
}

/// The seed of session `i` of a run: distinct per session, a pure
/// function of the run seed.
fn session_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
}

/// Generates every session's inputs for `w` under `seed`.
pub fn generate(w: &Workload, seed: u64) -> Vec<SessionPlan> {
    (0..w.sessions)
        .map(|i| {
            let name = format!("s{i}");
            let seed = if w.sessions == 1 {
                seed
            } else {
                session_seed(seed, i)
            };
            let config = SynthConfig {
                seed,
                vessels: w.vessels,
                steps: w.steps,
                period: 60,
            };
            let description = format!("{}\n{}", maritime::gold::GOLD_RULES, config.background());
            let events: Vec<(i64, String)> =
                config.stream().map(|(e, t)| (t, e.render())).collect();
            let open_line = open_frame(w, &name, &description);
            let frames = render_frames(w, &name, &events);
            SessionPlan {
                name,
                seed,
                description,
                open_line,
                events,
                frames,
            }
        })
        .collect()
}

fn open_frame(w: &Workload, name: &str, description: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("cmd".to_string(), Value::from("open"));
    map.insert("session".to_string(), Value::from(name));
    map.insert("description".to_string(), Value::from(description));
    map.insert("shards".to_string(), Value::from(w.shards as i64));
    map.insert("window".to_string(), Value::from(WINDOW));
    map.insert("slide".to_string(), Value::from(SLIDE));
    map.insert("incremental".to_string(), Value::from(w.incremental));
    serde_json::to_string(&Value::Object(map)).expect("open frame renders")
}

/// Batches of at most [`BATCH`] events, flushed before every tick; a
/// tick to each slide boundary once the stream passes it.
fn render_frames(w: &Workload, name: &str, events: &[(i64, String)]) -> Vec<Frame> {
    let session = json_str(name);
    let mut frames = Vec::with_capacity(events.len() / BATCH * 11 / 10 + 16);
    let mut next_tick = SLIDE;
    let mut first = 0;
    let flush = |frames: &mut Vec<Frame>, first: usize, end: usize| {
        if end == first {
            return;
        }
        let mut line = format!("{{\"cmd\":\"batch\",\"session\":{session},\"events\":[");
        for (k, (t, term)) in events[first..end].iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!("{{\"event\":{},\"t\":{t}}}", json_str(term)));
        }
        line.push_str("]}");
        frames.push(Frame {
            kind: FrameKind::Batch {
                first,
                count: end - first,
            },
            line,
            ends_result: false,
        });
    };
    for (i, &(t, _)) in events.iter().enumerate() {
        if t > next_tick || i - first == BATCH {
            flush(&mut frames, first, i);
            first = i;
        }
        while t > next_tick {
            frames.push(Frame {
                kind: FrameKind::Tick { to: next_tick },
                line: format!("{{\"cmd\":\"tick\",\"session\":{session},\"to\":{next_tick}}}"),
                ends_result: !w.query_each_tick,
            });
            if w.query_each_tick {
                frames.push(Frame {
                    kind: FrameKind::Query,
                    line: format!("{{\"cmd\":\"query\",\"session\":{session}}}"),
                    ends_result: true,
                });
            }
            next_tick += SLIDE;
        }
    }
    // The tail after the last boundary is never ticked, so it is not
    // rendered: every run ends on a tick result.
    frames
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_tick_at_slide_boundaries_and_batch_by_64() {
        let mut w = by_name("durable-cluster").unwrap();
        w.vessels = 30;
        w.steps = 40;
        let plans = generate(&w, 7);
        assert_eq!(plans.len(), 2);
        let plan = &plans[0];
        let mut sent = 0;
        let mut last_to = 0;
        for f in &plan.frames {
            match f.kind {
                FrameKind::Batch { first, count } => {
                    assert_eq!(first, sent);
                    assert!(count <= BATCH);
                    assert!(plan.events[first + count - 1].0 <= last_to + SLIDE);
                    sent += count;
                }
                FrameKind::Tick { to } => {
                    assert_eq!(to, last_to + SLIDE);
                    assert!(sent == plan.events.len() || plan.events[sent].0 > to);
                    last_to = to;
                }
                FrameKind::Query => {}
            }
            assert!(serde_json::from_str::<Value>(&f.line).is_ok());
        }
        assert_eq!(
            plan.prefix_for_ticks(1),
            plan.frames.iter().position(|f| f.ends_result).unwrap() + 1
        );
        // Deterministic per seed, distinct per session.
        assert_eq!(generate(&w, 7)[0].frames[0].line, plan.frames[0].line);
        assert_ne!(plans[1].events, plan.events);
    }
}
