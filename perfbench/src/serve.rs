//! The served path: snapshots into an in-process `encore-serve`, closed-loop
//! clients, reply verification, and in-memory protocol probes.

use crate::check::Reference;
use crate::report::Tally;
use crate::trace::Tracer;
use crate::train::Trained;
use crate::workload::{Fleet, Traffic, WORKERS};
use encore::{AnomalyDetector, DetectorSnapshot};
use encore_serve::protocol::{self, Request, Response};
use encore_serve::{CheckReply, ServeOptions, Server, SnapshotRegistry};
use std::io::{self, BufRead, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A started server and, per trained app, the detector parsed from the same
/// snapshot text the server loaded.
pub struct Served {
    pub server: Server,
    pub loaded: Vec<AnomalyDetector>,
    pub snapshot_bytes: usize,
}

/// Render each trained detector's snapshot into `dir`, parse it back, load
/// it into a registry under the app's name, and start the server there.
/// Spans: `snapshot.render`, `snapshot.parse`, `registry.load`.
///
/// # Errors
///
/// Snapshot, registry or socket failures.
pub fn start(
    dir: &Path,
    trained: &[Trained],
    slow_capture: bool,
    tracer: &mut Tracer,
) -> Result<Served, String> {
    let registry = SnapshotRegistry::new();
    let mut loaded = Vec::new();
    let mut snapshot_bytes = 0;
    for t in trained {
        let text = tracer.leaf("snapshot.render", None, None, || {
            t.detector.snapshot().render()
        });
        snapshot_bytes += text.len();
        let path = dir.join(format!("{}.snap", t.app.name()));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let snapshot = tracer
            .leaf("snapshot.parse", None, None, || {
                DetectorSnapshot::parse(&text)
            })
            .map_err(|e| format!("snapshot parse: {e}"))?;
        loaded.push(AnomalyDetector::from_snapshot(snapshot));
        tracer.leaf("registry.load", None, None, || {
            registry.load(t.app.name(), t.app, &path)
        })?;
    }
    let mut options = ServeOptions::new(dir.join("serve.sock"));
    options.workers = Some(WORKERS);
    // Slow-request capture at 0 µs records every request's parse / queue /
    // check / respond split into the obs trace ring (traced runs only).
    options.slow_micros = slow_capture.then_some(0);
    let server = Server::start(registry, options).map_err(|e| format!("server start: {e}"))?;
    Ok(Served {
        server,
        loaded,
        snapshot_bytes,
    })
}

/// One prepared `check` request and where its expected bodies live.
#[derive(Debug, Clone)]
pub struct Planned {
    pub request: Request,
    /// Index into the fleets / references.
    pub fleet: usize,
    /// Target indices, in request order.
    pub targets: Vec<usize>,
}

/// Every request of one pass over each fleet: `plan[f]` cuts fleet `f` into
/// batches of `traffic.batch` targets (the last batch wraps around).
pub fn plan(traffic: &Traffic, fleets: &[Fleet]) -> Vec<Vec<Planned>> {
    fleets
        .iter()
        .enumerate()
        .map(|(f, fleet)| {
            let n = fleet.targets.len();
            (0..n)
                .step_by(traffic.batch)
                .map(|start| {
                    let targets: Vec<usize> =
                        (start..start + traffic.batch).map(|i| i % n).collect();
                    let request = Request::Check {
                        app: fleet.app.name().to_string(),
                        targets: targets.iter().map(|&i| fleet.targets[i].clone()).collect(),
                    };
                    Planned {
                        request,
                        fleet: f,
                        targets,
                    }
                })
                .collect()
        })
        .collect()
}

/// The `j`-th request of client `c`: clients alternate apps request by
/// request and interleave their walks through each app's batches.
fn pick(plan: &[Vec<Planned>], clients: usize, c: usize, j: usize) -> &Planned {
    let app = (j + c) % plan.len();
    let nth = j / plan.len();
    let batches = &plan[app];
    &batches[(nth * clients + c) % batches.len()]
}

/// Check a reply against the references: the same targets in order, each
/// body byte-identical.  Returns the targets it carried.
///
/// # Errors
///
/// Why the reply does not count: transport or protocol error, `busy`, or a
/// body that differs from the direct-call reference.
pub fn verify_reply(
    reply: io::Result<CheckReply>,
    planned: &Planned,
    refs: &[Reference],
) -> Result<u64, String> {
    let reports = match reply {
        Ok(CheckReply::Reports(reports)) => reports,
        Ok(CheckReply::Busy) => return Err("busy".to_string()),
        Err(e) => return Err(format!("request failed: {e}")),
    };
    let Request::Check { targets, .. } = &planned.request else {
        return Err("not a check request".to_string());
    };
    if reports.len() != targets.len() {
        return Err(format!(
            "{} reports for {} targets",
            reports.len(),
            targets.len()
        ));
    }
    let bodies = &refs[planned.fleet].bodies;
    for ((name, body), (&i, (target, _))) in reports.iter().zip(planned.targets.iter().zip(targets))
    {
        if name != target {
            return Err(format!("report for `{name}` where `{target}` was sent"));
        }
        if *body != bodies[i] {
            return Err(format!("{name}: served body differs from the direct check"));
        }
    }
    Ok(reports.len() as u64)
}

/// What a closed-loop client phase measured.
#[derive(Debug, Default, Clone)]
pub struct LoopResult {
    /// Client-observed round trip of every timed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Targets in verified timed replies.
    pub targets: u64,
    /// Wall time of the timed loop: from the first client's first timed
    /// request to the last client's last reply, seconds.
    pub wall_s: f64,
    pub tally: Tally,
}

/// One client's requests: when its timed phase started and when its last
/// verified reply completed (seconds since the loop's epoch).
#[derive(Debug, Default)]
struct ClientRun {
    result: LoopResult,
    start_s: f64,
    end_s: f64,
}

/// How long one [`client_loop`] runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Requests are sent for this long first without being measured (their
    /// replies are still verified), so caches a training pass evicted are
    /// refilled before timing starts.
    pub warmup: Duration,
    /// Then timed requests are sent until this much time has passed...
    pub budget: Duration,
    /// ...and at least this many were sent, in total over the clients.
    pub min_requests: usize,
    /// Each client starts its walk through the plan at its `first`-th
    /// request.
    pub first: usize,
}

/// Run `traffic.clients` closed-loop clients for one [`Slice`].  With
/// `tracer`, each request is sent through the raw protocol calls with one
/// span per stage (`serve.request` → `protocol.request_write`,
/// `server.wait`, `protocol.response_read`); otherwise through
/// `encore_serve::Client`.
///
/// # Errors
///
/// A client that cannot connect.
pub fn client_loop(
    socket: &Path,
    traffic: &Traffic,
    plan: &[Vec<Planned>],
    refs: &[Reference],
    slice: Slice,
    mut tracer: Option<&mut Tracer>,
) -> Result<LoopResult, String> {
    let clients = traffic.clients;
    let slice = Slice {
        min_requests: slice.min_requests.div_ceil(clients),
        ..slice
    };
    let origin = tracer.as_ref().map(|t| t.origin());
    let epoch = Instant::now();
    let barrier = Barrier::new(clients);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let client = ClientThread {
                    socket,
                    plan,
                    refs,
                    clients,
                    c,
                    epoch,
                    barrier,
                };
                scope.spawn(move || client.run(slice, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut runs = Vec::new();
    for result in results {
        let (run, spans) = result?;
        if let (Some(t), Some(spans)) = (tracer.as_deref_mut(), spans) {
            t.absorb(spans);
        }
        runs.push(run);
    }
    let start_s = runs.iter().map(|r| r.start_s).fold(f64::INFINITY, f64::min);
    let end_s = runs.iter().map(|r| r.end_s).fold(0.0, f64::max);
    let mut out = LoopResult {
        wall_s: (end_s - start_s).max(0.0),
        ..LoopResult::default()
    };
    for run in runs {
        out.latencies_ms.extend(run.result.latencies_ms);
        out.targets += run.result.targets;
        out.tally.merge(run.result.tally);
    }
    Ok(out)
}

/// A raw protocol connection, for the traced client.
struct Wire {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

enum Conn {
    Client(encore_serve::Client),
    Traced(Wire, Tracer),
}

/// One client thread of [`client_loop`].
struct ClientThread<'a> {
    socket: &'a Path,
    plan: &'a [Vec<Planned>],
    refs: &'a [Reference],
    clients: usize,
    c: usize,
    epoch: Instant,
    barrier: &'a Barrier,
}

impl ClientThread<'_> {
    /// Send requests for `slice` (whose `min_requests` is per client).
    fn run(
        self,
        slice: Slice,
        origin: Option<Instant>,
    ) -> Result<(ClientRun, Option<Tracer>), String> {
        let connected = match origin {
            None => encore_serve::Client::connect(self.socket).map(Conn::Client),
            Some(origin) => UnixStream::connect(self.socket).and_then(|stream| {
                Ok(Conn::Traced(
                    Wire {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: BufWriter::new(stream),
                    },
                    Tracer::with_origin(origin),
                ))
            }),
        };
        // Reach the barrier even on failure, or the other clients never
        // start.
        self.barrier.wait();
        let mut conn = connected.map_err(|e| format!("connect {}: {e}", self.socket.display()))?;
        let mut run = ClientRun::default();
        let warm_until = Instant::now() + slice.warmup;
        let mut timed_since: Option<Instant> = None;
        let mut j = slice.first;
        loop {
            let t = Instant::now();
            let timed = t >= warm_until;
            if timed {
                let since = *timed_since.get_or_insert_with(|| {
                    run.start_s = self.epoch.elapsed().as_secs_f64();
                    t
                });
                if run.result.latencies_ms.len() >= slice.min_requests
                    && since.elapsed() >= slice.budget
                {
                    break;
                }
            }
            let planned = pick(self.plan, self.clients, self.c, j);
            let index = (j * self.clients + self.c) as u64;
            let reply = match &mut conn {
                Conn::Client(client) => match &planned.request {
                    Request::Check { app, targets } => client.check(app, targets),
                    _ => unreachable!("plans hold check requests"),
                },
                Conn::Traced(wire, tracer) => traced_check(wire, &planned.request, index, tracer),
            };
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            j += 1;
            let targets = match verify_reply(reply, planned, self.refs) {
                Ok(targets) => targets,
                Err(reason) => {
                    run.result.tally.fail(reason);
                    continue;
                }
            };
            run.result.tally.ok();
            if timed {
                run.result.latencies_ms.push(latency_ms);
                run.result.targets += targets;
                run.end_s = self.epoch.elapsed().as_secs_f64();
            }
        }
        let spans = match conn {
            Conn::Traced(_, tracer) => Some(tracer),
            Conn::Client(_) => None,
        };
        Ok((run, spans))
    }
}

fn traced_check(
    wire: &mut Wire,
    request: &Request,
    index: u64,
    tracer: &mut Tracer,
) -> io::Result<CheckReply> {
    let req = Some(index);
    tracer.span("serve.request", None, req, |t, id| {
        t.leaf("protocol.request_write", Some(id), req, || {
            protocol::write_request(&mut wire.writer, request)
        })?;
        t.leaf("server.wait", Some(id), req, || {
            wire.reader.fill_buf().map(|_| ())
        })?;
        t.leaf("protocol.response_read", Some(id), req, || {
            protocol::read_check_response(&mut wire.reader)
        })?
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))
    })
}

/// Encode and decode up to `samples` of the workload's request frames and
/// their reply frames on in-memory buffers, one span per call
/// (`protocol.request_encode`, `.request_decode`, `.response_encode`,
/// `.response_decode`), checking that each frame decodes to what was
/// encoded.
pub fn protocol_probe(
    plan: &[Vec<Planned>],
    refs: &[Reference],
    samples: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let requests = plan.iter().flatten().cycle().take(samples);
    for planned in requests {
        let Request::Check { targets, .. } = &planned.request else {
            continue;
        };
        let reports: Vec<(String, String)> = targets
            .iter()
            .zip(&planned.targets)
            .map(|((name, _), &i)| (name.clone(), refs[planned.fleet].bodies[i].clone()))
            .collect();
        let response = Response::Reports(reports.clone());
        let mut wire = Vec::new();
        let encoded = tracer.leaf("protocol.request_encode", None, None, || {
            protocol::write_request(&mut wire, &planned.request)
        });
        let decoded = tracer.leaf("protocol.request_decode", None, None, || {
            protocol::read_request(&mut wire.as_slice())
        });
        let mut reply = Vec::new();
        let written = tracer.leaf("protocol.response_encode", None, None, || {
            protocol::write_response(&mut reply, &response)
        });
        let read = tracer.leaf("protocol.response_decode", None, None, || {
            protocol::read_check_response(&mut reply.as_slice())
        });
        let round_trips = encoded.is_ok()
            && written.is_ok()
            && matches!(decoded, Ok(Some(Ok(ref r))) if *r == planned.request)
            && matches!(read, Ok(Ok(CheckReply::Reports(ref r))) if *r == reports);
        if round_trips {
            tally.ok();
        } else {
            tally.fail("protocol frame does not decode to what was encoded");
        }
    }
}
