//! `ttdiag serve` and its socket clients (`submit`, `job`, `watch`,
//! `tail`, `shutdown`).
//!
//! ## Wire protocol
//!
//! The service listens on a Unix domain socket and speaks newline-
//! delimited JSON: each request is one [`Request`] value on one line,
//! answered by one `{"ok": ...}` or `{"err": "..."}` line. A `Subscribe`
//! request upgrades the connection into a one-way feed: after the ack the
//! server streams one `Framed` event per line and finishes with a single
//! `{"end": {...SubscriberStats...}}` line carrying the subscription's
//! delivered/dropped accounting, so a client can verify it kept up.
//!
//! Backpressure is the hub's: each subscriber owns a bounded server-side
//! ring, a slow reader loses *oldest* frames (counted in `dropped`, and
//! observable client-side as `seq` gaps) and never stalls the simulation
//! hot path or the other subscribers.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};
use tt_analysis::LiveJobView;
use tt_bench::{DiagService, HostFingerprint, JobSpec, JobStatus};
use tt_sim::{Framed, ProgressEvent, StreamHub};

use crate::args::{FeedName, JobOp};
use crate::commands::{internal, usage, CliError};

/// One request line of the admin-socket protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Enqueue a job.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Status of one job.
    Status {
        /// The job id.
        job: u64,
    },
    /// Status of every known job.
    List,
    /// Halt a job at its next chunk boundary (checkpointed, resumable).
    Halt {
        /// The job id.
        job: u64,
    },
    /// Requeue a halted job from its checkpoint.
    Resume {
        /// The job id.
        job: u64,
    },
    /// Upgrade this connection into a live feed of framed events.
    Subscribe {
        /// Feed name: `metrics`, `spans` or `progress`.
        feed: String,
        /// Subscriber ring capacity (bounded server-side buffering).
        capacity: u64,
        /// Stop after this many frames (0 = until server shutdown).
        max: u64,
    },
    /// Halt all jobs (checkpointed), then stop the service.
    Shutdown,
}

/// The payload of `ok` responses to `Submit`/`Status`/`Halt`/`Resume`:
/// the job snapshot plus the serving host's fingerprint, so throughput
/// numbers in the live feeds can be attributed to a machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReply {
    /// The job snapshot (including its checkpoint sequence number).
    pub job: JobStatus,
    /// The serving host.
    pub host: HostFingerprint,
}

fn ok_line(value: Value) -> String {
    let wrapped = Value::Map(vec![("ok".to_string(), value)]);
    serde_json::to_string(&wrapped).expect("value serialization is infallible")
}

fn err_line(msg: &str) -> String {
    let wrapped = Value::Map(vec![("err".to_string(), Value::Str(msg.to_string()))]);
    serde_json::to_string(&wrapped).expect("value serialization is infallible")
}

// ---------------------------------------------------------------- server

/// Connection-handler threads spawned by the accept loop.
struct ConnSet {
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Runs the service until a `Shutdown` request arrives. Returns the final
/// summary printed on exit.
pub fn serve(socket: &str, state: &str) -> Result<String, CliError> {
    let path = Path::new(socket);
    // A leftover socket file from a dead server refuses `bind`; detect
    // staleness by connecting — only an unconnectable file is removed.
    if path.exists() && UnixStream::connect(path).is_err() {
        std::fs::remove_file(path).map_err(|e| usage(format!("stale socket {socket}: {e}")))?;
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| usage(format!("cannot bind admin socket {socket}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| internal(format!("socket setup: {e}")))?;
    let service = DiagService::start(Path::new(state))
        .map_err(|e| internal(format!("cannot create state dir {state}: {e}")))?;
    let shutdown_req = Arc::new(AtomicBool::new(false));
    let stop_subs = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnSet {
        handles: Mutex::new(Vec::new()),
    });
    while !shutdown_req.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                let shutdown_req = Arc::clone(&shutdown_req);
                let stop_subs = Arc::clone(&stop_subs);
                let handle = std::thread::spawn(move || {
                    // A vanished client is not a server error.
                    let _ = handle_conn(stream, &service, &shutdown_req, &stop_subs);
                });
                conns
                    .handles
                    .lock()
                    .expect("connection registry")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(internal(format!("accept on {socket}: {e}"))),
        }
    }
    // Ordered teardown: park/halt jobs and drain the executor first so the
    // final progress events reach the hubs, then let subscribers flush
    // their rings and end-stats lines, then reap the connection threads.
    service.shutdown_wait();
    stop_subs.store(true, Ordering::Relaxed);
    let handles = std::mem::take(&mut *conns.handles.lock().expect("connection registry"));
    for h in handles {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    let jobs = service.list();
    Ok(format!(
        "serve: clean shutdown, {} job(s) known, state in {state}",
        jobs.len()
    ))
}

fn handle_conn(
    stream: UnixStream,
    service: &Arc<DiagService>,
    shutdown_req: &AtomicBool,
    stop_subs: &AtomicBool,
) -> io::Result<()> {
    // Bounded reads: an idle connection must notice shutdown, or joining
    // its thread would hang the server teardown.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    'requests: loop {
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()),
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // `read_line` keeps any partial line in `line`; just
                    // poll again unless the server is going away.
                    if shutdown_req.load(Ordering::Relaxed) || stop_subs.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if line.trim().is_empty() {
            continue 'requests;
        }
        let request: Request = match serde_json::from_str(line.trim()) {
            Ok(r) => r,
            Err(e) => {
                writeln!(writer, "{}", err_line(&format!("bad request: {e}")))?;
                writer.flush()?;
                continue;
            }
        };
        let job_reply = |job: JobStatus| {
            ok_line(
                JobReply {
                    job,
                    host: service.host().clone(),
                }
                .to_value(),
            )
        };
        match request {
            Request::Submit { spec } => {
                let reply = match service.submit(spec) {
                    Ok(job) => job_reply(job),
                    Err(e) => err_line(&e),
                };
                writeln!(writer, "{reply}")?;
            }
            Request::Status { job } => {
                let reply = match service.status(job) {
                    Some(job) => job_reply(job),
                    None => err_line(&format!("unknown job {job}")),
                };
                writeln!(writer, "{reply}")?;
            }
            Request::List => {
                let jobs = Value::Seq(service.list().iter().map(Serialize::to_value).collect());
                writeln!(
                    writer,
                    "{}",
                    ok_line(Value::Map(vec![
                        ("jobs".to_string(), jobs),
                        ("host".to_string(), service.host().to_value()),
                    ]))
                )?;
            }
            Request::Halt { job } => {
                let reply = match service.halt(job) {
                    Ok(job) => job_reply(job),
                    Err(e) => err_line(&e),
                };
                writeln!(writer, "{reply}")?;
            }
            Request::Resume { job } => {
                let reply = match service.resume(job) {
                    Ok(job) => job_reply(job),
                    Err(e) => err_line(&e),
                };
                writeln!(writer, "{reply}")?;
            }
            Request::Subscribe {
                feed,
                capacity,
                max,
            } => {
                let capacity = capacity.clamp(1, 1 << 20) as usize;
                let hubs = service.hubs();
                match feed.as_str() {
                    "metrics" => {
                        ack_subscribe(&mut writer, &feed)?;
                        return stream_frames(&hubs.metrics, writer, capacity, max, stop_subs);
                    }
                    "spans" => {
                        ack_subscribe(&mut writer, &feed)?;
                        return stream_frames(&hubs.spans, writer, capacity, max, stop_subs);
                    }
                    "progress" => {
                        ack_subscribe(&mut writer, &feed)?;
                        return stream_frames(&hubs.progress, writer, capacity, max, stop_subs);
                    }
                    other => {
                        writeln!(writer, "{}", err_line(&format!("unknown feed {other:?}")))?;
                    }
                }
            }
            Request::Shutdown => {
                writeln!(
                    writer,
                    "{}",
                    ok_line(Value::Map(vec![(
                        "shutdown".to_string(),
                        Value::Bool(true)
                    )]))
                )?;
                writer.flush()?;
                shutdown_req.store(true, Ordering::Relaxed);
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

fn ack_subscribe(writer: &mut BufWriter<UnixStream>, feed: &str) -> io::Result<()> {
    writeln!(
        writer,
        "{}",
        ok_line(Value::Map(vec![(
            "subscribed".to_string(),
            Value::Str(feed.to_string())
        )]))
    )?;
    writer.flush()
}

/// Streams framed events from `hub` until `max` frames were delivered, the
/// client disconnects, or the server shuts down — then emits the final
/// `{"end": ...}` accounting line.
fn stream_frames<E: Clone + Serialize>(
    hub: &Arc<StreamHub<E>>,
    mut writer: BufWriter<UnixStream>,
    capacity: usize,
    max: u64,
    stop_subs: &AtomicBool,
) -> io::Result<()> {
    let sub = hub.subscribe(capacity);
    let mut delivered = 0u64;
    'feed: loop {
        let stopping = stop_subs.load(Ordering::Relaxed);
        // On shutdown, one final non-blocking drain flushes whatever the
        // teardown published before subscribers were stopped.
        let frames = if stopping {
            sub.drain(usize::MAX)
        } else {
            sub.recv_timeout(Duration::from_millis(100), 512)
        };
        for frame in &frames {
            let json = serde_json::to_string(frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(writer, "{json}")?;
            delivered += 1;
            if max > 0 && delivered >= max {
                break 'feed;
            }
        }
        writer.flush()?;
        if stopping {
            break;
        }
    }
    let end = Value::Map(vec![("end".to_string(), sub.stats().to_value())]);
    writeln!(
        writer,
        "{}",
        serde_json::to_string(&end).expect("value serialization is infallible")
    )?;
    writer.flush()
}

// ---------------------------------------------------------------- client

/// A line-oriented client connection to the admin socket.
struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Client {
    /// Connects, mapping failures (bad path, dead server) to usage errors:
    /// the socket argument, like any other argument, named something that
    /// does not exist.
    fn connect(socket: &str) -> Result<Client, CliError> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| usage(format!("cannot connect to ttdiag serve at {socket}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| internal(format!("socket clone: {e}")))?,
        );
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), CliError> {
        let line =
            serde_json::to_string(request).map_err(|e| internal(format!("encode request: {e}")))?;
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| internal(format!("send request: {e}")))
    }

    /// Reads one line; `None` at EOF (server went away).
    fn read_line(&mut self) -> Result<Option<String>, CliError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(internal(format!("read response: {e}"))),
        }
    }

    /// Reads one `{"ok": ...}` / `{"err": ...}` response line. Server-side
    /// rejections surface as usage errors: the request named an unknown
    /// job, an unknown feed, or an invalid spec.
    fn read_response(&mut self) -> Result<Value, CliError> {
        let line = self
            .read_line()?
            .ok_or_else(|| internal("server closed the connection mid-request"))?;
        parse_response(&line)
    }
}

/// Splits a response line into its `ok` payload, or the `err` as a usage
/// failure.
fn parse_response(line: &str) -> Result<Value, CliError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| internal(format!("bad response line: {e}")))?;
    let map = value
        .as_map()
        .ok_or_else(|| internal(format!("malformed response: {line}")))?;
    if let Some(err) = Value::get_field(map, "err") {
        return Err(usage(
            err.as_str()
                .unwrap_or("unspecified server error")
                .to_string(),
        ));
    }
    Value::get_field(map, "ok")
        .cloned()
        .ok_or_else(|| internal(format!("malformed response: {line}")))
}

fn job_reply_of(value: &Value) -> Result<JobReply, CliError> {
    JobReply::from_value(value).map_err(|e| internal(format!("malformed job reply: {e}")))
}

fn render_job(status: &JobStatus) -> String {
    let mut line = format!(
        "job {} [{}] {}: {}/{} settled",
        status.id,
        status.kind,
        status.state.label(),
        status.completed,
        status.total
    );
    if status.quarantined > 0 {
        line.push_str(&format!(", {} quarantined", status.quarantined));
    }
    line.push_str(&format!(", checkpoint #{}", status.checkpoint_seq));
    if status.halt_requested {
        line.push_str(", halt requested");
    }
    if !status.detail.is_empty() {
        line.push_str(&format!(" — {}", status.detail));
    }
    line
}

/// `ttdiag submit`: enqueue a job, print its id, state, and the host.
pub fn submit(socket: &str, spec: JobSpec) -> Result<String, CliError> {
    let mut client = Client::connect(socket)?;
    client.send(&Request::Submit { spec })?;
    let reply = job_reply_of(&client.read_response()?)?;
    Ok(format!(
        "{}\nhost: {} cores, {}",
        render_job(&reply.job),
        reply.host.logical_cores,
        reply.host.cpu_model
    ))
}

/// `ttdiag job list|status|halt|resume`.
pub fn job(socket: &str, op: JobOp) -> Result<String, CliError> {
    let mut client = Client::connect(socket)?;
    let request = match op {
        JobOp::List => Request::List,
        JobOp::Status(id) => Request::Status { job: id },
        JobOp::Halt(id) => Request::Halt { job: id },
        JobOp::Resume(id) => Request::Resume { job: id },
    };
    client.send(&request)?;
    let payload = client.read_response()?;
    if let JobOp::List = op {
        let map = payload
            .as_map()
            .ok_or_else(|| internal("malformed list reply"))?;
        let jobs = Value::get_field(map, "jobs")
            .and_then(Value::as_seq)
            .ok_or_else(|| internal("malformed list reply"))?;
        if jobs.is_empty() {
            return Ok("no jobs".to_string());
        }
        let lines = jobs
            .iter()
            .map(|j| {
                JobStatus::from_value(j)
                    .map(|s| render_job(&s))
                    .map_err(|e| internal(format!("malformed job entry: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(lines.join("\n"));
    }
    Ok(render_job(&job_reply_of(&payload)?.job))
}

/// `ttdiag shutdown`.
pub fn shutdown(socket: &str) -> Result<String, CliError> {
    let mut client = Client::connect(socket)?;
    client.send(&Request::Shutdown)?;
    client.read_response()?;
    Ok("service shutting down".to_string())
}

/// `ttdiag watch`: follow the progress feed and redraw a one-line summary
/// per update until the job reaches a terminal or parked state. A failed
/// job is a counterexample (exit 1), matching `campaign`.
pub fn watch(socket: &str, job: u64) -> Result<String, CliError> {
    // Subscribe before the status probe: any terminal transition after the
    // probe is then guaranteed to appear in the stream.
    let mut feed = Client::connect(socket)?;
    feed.send(&Request::Subscribe {
        feed: "progress".to_string(),
        capacity: 4096,
        max: 0,
    })?;
    feed.read_response()?;
    let mut view = LiveJobView::new(job);
    {
        let mut probe = Client::connect(socket)?;
        probe.send(&Request::Status { job })?;
        let reply = job_reply_of(&probe.read_response()?)?;
        let status = reply.job;
        view.kind = status.kind.clone();
        view.completed = status.completed;
        view.total = status.total;
        view.quarantined = status.quarantined;
        view.checkpoint_seq = status.checkpoint_seq;
        match status.state {
            tt_bench::JobState::Done => view.passed = Some(status.passed),
            tt_bench::JobState::Failed => view.passed = Some(false),
            tt_bench::JobState::Halted => view.halted = true,
            _ => {}
        }
    }
    while !view.done() {
        let Some(line) = feed.read_line()? else {
            return Err(internal("server closed the progress feed mid-watch"));
        };
        if line.starts_with("{\"end\"") {
            return Err(internal("progress feed ended before the job finished"));
        }
        let frame: Framed<ProgressEvent> = serde_json::from_str(&line)
            .map_err(|e| internal(format!("malformed progress frame: {e}")))?;
        if view.apply(&frame) {
            println!("{}", view.render_line());
        }
    }
    let summary = view.render_line();
    if view.passed == Some(false) {
        return Err(CliError::Counterexample(summary));
    }
    Ok(summary)
}

/// `ttdiag tail`: raw JSONL pass-through of one feed; returns the final
/// `{"end": ...}` accounting line as the command output.
pub fn tail(socket: &str, feed: FeedName, max: u64, capacity: u64) -> Result<String, CliError> {
    let mut client = Client::connect(socket)?;
    client.send(&Request::Subscribe {
        feed: feed.as_str().to_string(),
        capacity,
        max,
    })?;
    client.read_response()?;
    loop {
        let Some(line) = client.read_line()? else {
            return Err(internal("server closed the feed without an end line"));
        };
        if line.starts_with("{\"end\"") {
            return Ok(line);
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let requests = [
            Request::Submit {
                spec: JobSpec::TuneSweep { chunk: 4 },
            },
            Request::Status { job: 3 },
            Request::List,
            Request::Halt { job: 1 },
            Request::Resume { job: 1 },
            Request::Subscribe {
                feed: "progress".to_string(),
                capacity: 64,
                max: 10,
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn response_frames_split_ok_and_err() {
        let ok = ok_line(Value::Bool(true));
        assert_eq!(parse_response(&ok).unwrap(), Value::Bool(true));
        let err = err_line("unknown job 9");
        match parse_response(&err) {
            Err(CliError::Usage(msg)) => assert_eq!(msg, "unknown job 9"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }
}
