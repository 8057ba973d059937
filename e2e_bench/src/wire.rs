//! The closed-loop NDJSON client of the timed leg.
//!
//! Each connection sends its next frame only after the previous reply,
//! as `rtec-cli stream` does. Timing is taken around the write and the
//! read of one line; replies are only inspected for `"ok":false` inside
//! the loop, and parsed after it.
//!
//! The connections of one run meet at every tick result
//! ([`Lockstep`]), as streams fed from one clock reach each slide
//! boundary together. Free-running connections would keep whatever
//! phase offset start-up gave them for the whole run, and how one
//! session's ticks overlap another's ingest would then differ from run
//! to run.

use crate::workload::{Frame, FrameKind};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A persistent connection returning raw reply lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one line and reads the reply; the reply stays borrowed in
    /// the connection until the next call.
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(self.reply.trim_end())
    }
}

/// Whether a reply line is an error frame.
pub fn is_error(reply: &str) -> bool {
    reply.contains("\"ok\":false")
}

/// One tick result of the timed leg.
pub struct TickResult {
    /// When the result was read.
    pub done: Instant,
    /// Events acked since the previous result.
    pub events: u64,
    /// Tick sent → result read, ms.
    pub result_ms: f64,
}

/// What one session's timed leg observed. Latency samples carry the
/// index of the tick result that closed them, so the caller can drop
/// the warm-up.
#[derive(Default)]
pub struct SessionRun {
    /// Frames sent (a prefix of the plan ending on a tick result).
    pub frames_sent: usize,
    pub error_frames: u64,
    pub first_error: Option<String>,
    pub acked_events: u64,
    /// Client wait per frame sent, seconds.
    pub waits: Vec<f64>,
    pub ticks: Vec<TickResult>,
    /// `(tick, batch ack latency ms)`.
    pub ack_ms: Vec<(usize, f64)>,
    /// `(tick, batch send → covering result ms, events in the batch)`.
    pub recognition_ms: Vec<(usize, f64, u64)>,
}

/// A reusable barrier for the client threads of one run that also
/// carries the decision to stop. A thread that leaves (its frames ran
/// out, or it failed) no longer holds the others up.
pub struct Lockstep {
    state: Mutex<LockstepState>,
    turn: Condvar,
}

struct LockstepState {
    parties: usize,
    arrived: usize,
    stop_wanted: bool,
    generation: u64,
    decision: bool,
}

impl Lockstep {
    pub fn new(parties: usize) -> Lockstep {
        Lockstep {
            state: Mutex::new(LockstepState {
                parties,
                arrived: 0,
                stop_wanted: false,
                generation: 0,
                decision: false,
            }),
            turn: Condvar::new(),
        }
    }

    /// Waits for every remaining party; returns whether any of them
    /// wanted to stop.
    fn meet(&self, want_stop: bool) -> bool {
        let mut st = self.state.lock().expect("lockstep lock");
        st.arrived += 1;
        st.stop_wanted |= want_stop;
        if st.arrived >= st.parties {
            Self::release(&mut st);
            self.turn.notify_all();
            return st.decision;
        }
        let generation = st.generation;
        while st.generation == generation {
            st = self.turn.wait(st).expect("lockstep lock");
        }
        st.decision
    }

    fn leave(&self) {
        let mut st = self.state.lock().expect("lockstep lock");
        st.parties -= 1;
        if st.arrived > 0 && st.arrived >= st.parties {
            Self::release(&mut st);
            self.turn.notify_all();
        }
    }

    fn release(st: &mut LockstepState) {
        st.decision = std::mem::take(&mut st.stop_wanted);
        st.arrived = 0;
        st.generation += 1;
    }
}

/// Leaves the lockstep on every exit path of [`drive`].
struct Party<'a>(&'a Lockstep);

impl Drop for Party<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

/// Sends `frames` over `conn`, meeting the run's other connections at
/// every tick result. With `measure = Some(d)`, every connection stops
/// at the first tick result where one of them is at least `d` past its
/// `warmup`-th result; `warmed` is signalled when that result arrives.
pub fn drive(
    conn: &mut Conn,
    frames: &[Frame],
    lockstep: &Lockstep,
    warmup: usize,
    measure: Option<Duration>,
    warmed: Sender<()>,
) -> Result<SessionRun, String> {
    let _party = Party(lockstep);
    let mut run = SessionRun {
        waits: Vec::with_capacity(frames.len()),
        ..SessionRun::default()
    };
    // Batches sent since the last result: (send instant, events).
    let mut pending: Vec<(Instant, u64)> = Vec::new();
    let mut pending_events = 0;
    let mut tick_sent = None;
    let mut deadline = None;
    for frame in frames {
        let sent = Instant::now();
        let reply = conn.request(&frame.line)?;
        let done = Instant::now();
        run.frames_sent += 1;
        run.waits.push((done - sent).as_secs_f64());
        let failed = is_error(reply);
        if failed {
            run.error_frames += 1;
            run.first_error.get_or_insert_with(|| reply.to_string());
        }
        let tick = run.ticks.len();
        match frame.kind {
            FrameKind::Batch { count, .. } => {
                run.ack_ms.push((tick, ms(done - sent)));
                if !failed {
                    run.acked_events += count as u64;
                    pending_events += count as u64;
                }
                pending.push((sent, count as u64));
            }
            FrameKind::Tick { .. } => tick_sent = Some(sent),
            FrameKind::Query => {}
        }
        if frame.ends_result {
            let tick_at = tick_sent.take().unwrap_or(sent);
            for (at, n) in pending.drain(..) {
                run.recognition_ms.push((tick, ms(done - at), n));
            }
            run.ticks.push(TickResult {
                done,
                events: std::mem::take(&mut pending_events),
                result_ms: ms(done - tick_at),
            });
            if run.ticks.len() == warmup {
                deadline = measure.map(|d| done + d);
                let _ = warmed.send(());
            }
            if lockstep.meet(deadline.is_some_and(|d| done >= d)) {
                break;
            }
        }
    }
    Ok(run)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_shares_the_stop_decision_and_releases_on_leave() {
        let lockstep = Lockstep::new(3);
        let both = std::thread::scope(|s| {
            let meet = |first| {
                let lockstep = &lockstep;
                s.spawn(move || {
                    let _party = Party(lockstep);
                    (lockstep.meet(first), lockstep.meet(false))
                })
            };
            let a = meet(false);
            let b = meet(true);
            // The third party leaves without meeting; the other two must
            // not wait for it.
            drop(Party(&lockstep));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(both, [(true, false), (true, false)]);
    }
}
