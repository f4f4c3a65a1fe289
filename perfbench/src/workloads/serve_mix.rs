//! `serve_mix`: open-loop traffic over TCP loopback against an in-process
//! daemon with two workers.
//!
//! A seeded arrival schedule (Poisson arrivals at a fixed offered rate)
//! sends `pa`, `portfolio` and `repair` requests (1 : 3 : 1) on
//! generated 20–200-task profiles, each with a 50 ms deadline; the repair
//! requests carry event lists. The offered rates are fixed shares of the
//! daemon's measured capacity on this mix ([`CAPACITY_RPS`]). Requests are sent when they are due whether or not earlier ones
//! were answered, and each is timed from its due time, so a stall in the
//! daemon — or in the generator — shows in every request behind it. This
//! is the only workload that goes through the frame codec, the admission
//! queue, the worker pool and reply validation.
//!
//! Load comes from this one process: one connection, one sending and one
//! receiving thread.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use prfpga_gen::service_instance;
use prfpga_model::service::{
    AlgoChoice, ErrorCode, InstanceSpec, ScheduleRequest, ServiceRequest, ServiceResponse,
    ServiceStats,
};
use prfpga_model::{CancelToken, ProblemInstance, ScheduleEvent, TaskId};
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine, SchedulerConfig};
use prfpga_server::{Server, ServerConfig, ServerHandle, TcpTransport};

use crate::layers::KernelTotals;
use crate::spans::Spans;
use crate::{peak_rss_mb, stats, timed_setup, Opts, Report, Rng};

/// Server worker threads (the machine's core count this was tuned on).
pub const WORKERS: usize = 2;
/// Deadline every request declares.
pub const DEADLINE_MS: u64 = 50;
/// Capacity of the daemon on this mix, replies per second: the closed-loop
/// rate with one request per worker always in flight. Measured with the
/// `serve_mix_capacity` test (`cargo test --release -- --ignored
/// serve_mix_capacity --nocapture`) on a 2-vCPU Xeon VM, where three
/// 10 s runs read 57.9, 61.3 and 59.8 req/s; re-measure it when the
/// machine changes.
pub const CAPACITY_RPS: f64 = 60.0;
/// Offered load of the main phase, as a share of [`CAPACITY_RPS`]. Half
/// load is an assumption, as no real traffic exists to take it from: busy
/// enough that requests queue behind each other, far enough from
/// saturation that the figures measure the service, not an overload.
const MAIN_LOAD: f64 = 0.25;
/// The fixed ladder of offered loads `sustained_rps` is read from, as
/// shares of [`CAPACITY_RPS`]: from the main phase's load to past
/// saturation.
const LADDER_LOAD: &[f64] = &[0.5, 0.75, 1.0, 1.25];
/// Profiles of the corpus, spread evenly over 20–200 tasks. With the five
/// kinds of [`ALGO_ROUND`] they make a deck of 100 requests: a ladder rung
/// is one deck, enough for a p90 with ten samples beyond it and for thirds
/// of 33 requests in the backlog check.
const PROFILES: usize = 20;

/// A generated profile the traffic draws from, with what the client needs
/// to validate any reply on it.
pub struct Profile {
    /// Task count.
    pub tasks: usize,
    /// Generator seed.
    pub seed: u64,
    /// The instance, as the daemon resolves `(tasks, seed)`.
    pub inst: ProblemInstance,
    /// Events of a repair request on this profile.
    pub events: Vec<ScheduleEvent>,
    /// The instance after `events`: what a repaired schedule is valid for.
    pub revised: ProblemInstance,
    /// Makespans of the all-software schedules of `inst` and `revised`:
    /// what a client is left with when its request gets no schedule.
    pub fallback: [u64; 2],
}

impl Profile {
    /// The instance a reply to `algo` must be valid for, and the fallback
    /// makespan of a request that got no schedule.
    fn target(&self, algo: AlgoChoice) -> (&ProblemInstance, u64) {
        if algo == AlgoChoice::Repair {
            (&self.revised, self.fallback[1])
        } else {
            (&self.inst, self.fallback[0])
        }
    }
}

/// Generator seed of the profile corpus.
pub const PROFILE_SEED: u64 = 0x5E21_7E00;

/// Builds the profiles the traffic draws from: a fixed corpus whose sizes
/// are spread evenly over 20–200 tasks. The run's seed drives the arrival
/// schedule — when requests come, what they ask for and on which profile.
///
/// A repair request's events are runtime arrivals of new software tasks,
/// then revisions and a cancellation of those arrivals. The revised
/// instance they produce depends on the events alone — not on the
/// baseline the daemon commits first, which varies with how far PA got
/// before the deadline, nor on whether a repair escalated to a re-solve —
/// so the client rebuilds it once and validates every repaired schedule
/// independently of the daemon.
pub fn profiles(toy: bool) -> Result<Vec<Profile>, String> {
    let (count, lo, hi) = if toy {
        (4, 10, 30)
    } else {
        (PROFILES, 20, 200)
    };
    let mut rng = Rng::new(PROFILE_SEED, 3);
    (0..count)
        .map(|i| {
            let tasks = lo + (hi - lo) * i / (count - 1);
            let seed = PROFILE_SEED + i as u64;
            let inst = service_instance(tasks, seed, None, 2)?;
            let events = repair_events(&inst, &mut rng);
            // An already-cancelled token makes PA return its all-software
            // schedule at once: a cheap baseline to rebuild the instance on.
            let cancelled = CancelToken::never().child();
            cancelled.cancel();
            let sw = PaScheduler::new(SchedulerConfig::default())
                .schedule_with_cancel(&inst, &cancelled)
                .map_err(|e| format!("software baseline: {e}"))?
                .schedule;
            let sw_makespan = sw.makespan();
            let mut engine = RepairEngine::new(inst.clone(), sw, RepairConfig::default())
                .map_err(|e| format!("engine: {e}"))?;
            engine
                .apply_all(&events)
                .map_err(|e| format!("profile events: {e}"))?;
            let revised = engine.instance().clone();
            let revised_sw = PaScheduler::new(SchedulerConfig::default())
                .schedule_with_cancel(&revised, &cancelled)
                .map_err(|e| format!("software schedule of the revised instance: {e}"))?
                .schedule
                .makespan();
            Ok(Profile {
                tasks,
                seed,
                inst,
                events,
                revised,
                fallback: [sw_makespan, revised_sw],
            })
        })
        .collect()
}

/// Three arrivals depending on random existing tasks (the third also on
/// the first), a revision of the first and third, and a cancellation of
/// the second.
fn repair_events(inst: &ProblemInstance, rng: &mut Rng) -> Vec<ScheduleEvent> {
    let n = inst.graph.len() as u32;
    let mut pick = || TaskId(rng.below(u64::from(n)) as u32);
    let sw_time = |t: TaskId| inst.impls.get(inst.fastest_sw_impl(t)).time.max(1);
    let (a, b, c) = (pick(), pick(), pick());
    let (first, second, third) = (TaskId(n), TaskId(n + 1), TaskId(n + 2));
    let arrive = |k: u32, dep: TaskId, more: Option<TaskId>| ScheduleEvent::Arrive {
        name: format!("arrival{k}"),
        sw_time: sw_time(dep),
        deps: std::iter::once(dep).chain(more).collect(),
    };
    vec![
        arrive(0, a, None),
        arrive(1, b, None),
        ScheduleEvent::DurationRevised {
            task: first,
            duration: sw_time(a) * 3 / 2 + 1,
        },
        arrive(2, c, Some(first)),
        ScheduleEvent::Cancel { task: second },
        ScheduleEvent::DurationRevised {
            task: third,
            duration: sw_time(c) / 2 + 1,
        },
    ]
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// When it is due, from the start of its phase.
    pub due: Duration,
    /// Index into the profiles.
    pub profile: usize,
    /// What it asks for.
    pub algo: AlgoChoice,
}

/// One round of request kinds, taken from the service soak test
/// (`crates/server/tests/soak.rs`), which rotates evenly through `pa`,
/// `par`, `is-k`, `portfolio` and `repair`. A `portfolio` request races PA,
/// PA-R and IS-k under one deadline, so this mix sends the soak's `par`
/// and `is-k` shares as `portfolio`: 20% `pa`, 60% `portfolio`, 20%
/// `repair`.
const ALGO_ROUND: [AlgoChoice; 5] = {
    use AlgoChoice::{Pa, Portfolio, Repair};
    [Pa, Portfolio, Portfolio, Portfolio, Repair]
};

/// Requests in a deck: every profile once with every kind of
/// [`ALGO_ROUND`].
pub fn deck_len(profiles: usize) -> usize {
    profiles * ALGO_ROUND.len()
}

/// A seeded Poisson arrival schedule of `count` requests at `rps`. The
/// gaps between arrivals are the exponential distribution's quantiles at
/// `count` evenly spaced levels, in seeded order, and the requests are
/// dealt from seeded shuffles of the deck. So every schedule of whole
/// decks offers the same requests with the same gaps: the seed changes
/// their order, not the work offered or how bursty it is.
pub fn arrivals(rng: &mut Rng, rps: f64, count: usize, profiles: usize) -> Vec<Arrival> {
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / rps)
        .collect();
    rng.shuffle(&mut gaps);
    let mut out = Vec::with_capacity(count);
    let mut deck = Vec::new();
    let mut t = 0.0;
    for gap in gaps {
        t += gap;
        if deck.is_empty() {
            deck = (0..profiles)
                .flat_map(|p| ALGO_ROUND.iter().map(move |&algo| (p, algo)))
                .collect();
            rng.shuffle(&mut deck);
        }
        let (profile, algo) = deck.pop().expect("refilled above");
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            profile,
            algo,
        });
    }
    out
}

/// What happened to one request, client-side.
struct Record {
    sent: Duration,
    recv: Option<Duration>,
    resp: Option<ServiceResponse>,
    encode: Duration,
    decode: Duration,
}

/// The running daemon and the client's connection to it.
struct Rig {
    // Declared before the server so they drop first: the daemon sees EOF,
    // then stops.
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    _server: ServerHandle,
}

fn start_rig() -> Result<Rig, String> {
    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = transport.local_addr().map_err(|e| format!("addr: {e}"))?;
    let server = Server::start(
        transport,
        ServerConfig {
            workers: WORKERS,
            log_every: None,
            ..ServerConfig::default()
        },
    );
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(Rig {
        reader: BufReader::new(conn.try_clone().map_err(|e| format!("clone: {e}"))?),
        writer: conn,
        _server: server,
    })
}

/// The next complete reply line, or `None` at EOF or once `end` passes.
/// A read timeout may leave a partial line in `buf`; the next call
/// appends the rest.
fn next_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    end: Instant,
) -> Result<Option<Vec<u8>>, String> {
    while Instant::now() < end {
        match reader.read_until(b'\n', buf) {
            Ok(0) => return Ok(None),
            Ok(_) if buf.ends_with(b"\n") => return Ok(Some(std::mem::take(buf))),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok(None)
}

fn decode(line: &[u8]) -> Option<ServiceResponse> {
    let text = std::str::from_utf8(line).ok()?;
    serde_json::from_str(text.trim_end()).ok()
}

fn request(id: u64, a: &Arrival, p: &Profile) -> ServiceRequest {
    ServiceRequest::Schedule(Box::new(ScheduleRequest {
        id,
        algo: a.algo,
        instance: InstanceSpec::Generated {
            tasks: p.tasks,
            seed: p.seed,
            platform: None,
            cores: 2,
        },
        deadline_ms: Some(DEADLINE_MS),
        budget_ms: None,
        events: if a.algo == AlgoChoice::Repair {
            p.events.clone()
        } else {
            Vec::new()
        },
    }))
}

/// How long to wait for the last replies after the last request is due.
const DRAIN: Duration = Duration::from_secs(20);

/// Sends `arrivals` open-loop (request ids `id_base + k`) and collects
/// every reply. Returns one record per arrival.
fn drive(
    rig: &mut Rig,
    arrivals: &[Arrival],
    profiles: &[Profile],
    id_base: u64,
) -> Result<Vec<Record>, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + arrivals.last().map_or(Duration::ZERO, |a| a.due) + DRAIN;
    let mut records: Vec<Record> = arrivals
        .iter()
        .map(|_| Record {
            sent: Duration::ZERO,
            recv: None,
            resp: None,
            encode: Duration::ZERO,
            decode: Duration::ZERO,
        })
        .collect();
    let Rig { writer, reader, .. } = rig;

    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<(Duration, Duration)>, String> {
            let mut out = Vec::with_capacity(arrivals.len());
            for (k, a) in arrivals.iter().enumerate() {
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let mut line =
                    serde_json::to_string(&request(id_base + k as u64, a, &profiles[a.profile]))
                        .map_err(|e| format!("encode: {e:?}"))?;
                line.push('\n');
                let encode = t0.elapsed();
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                out.push((t0 - start, encode));
            }
            Ok(out)
        });

        let mut pending = arrivals.len();
        let mut buf = Vec::new();
        while pending > 0 {
            let Some(line) = next_line(reader, &mut buf, end)? else {
                break;
            };
            let recv = Instant::now() - start;
            let t0 = Instant::now();
            let parsed = decode(&line);
            let decoded = t0.elapsed();
            let Some(k) = parsed
                .as_ref()
                .and_then(ServiceResponse::id)
                .and_then(|id| id.checked_sub(id_base))
                .map(|k| k as usize)
                .filter(|&k| k < records.len() && records[k].resp.is_none())
            else {
                continue;
            };
            records[k].recv = Some(recv);
            records[k].decode = decoded;
            records[k].resp = parsed;
            pending -= 1;
        }
        sender.join().map_err(|_| "sender panicked".to_string())?
    })?;
    for (r, (s, e)) in records.iter_mut().zip(sent) {
        r.sent = s;
        r.encode = e;
    }
    Ok(records)
}

/// Asks the daemon for its `stats` over the wire.
fn wire_stats(rig: &mut Rig) -> Result<ServiceStats, String> {
    let line = serde_json::to_string(&ServiceRequest::Stats { id: u64::MAX })
        .map_err(|e| format!("encode: {e:?}"))?;
    rig.writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let end = Instant::now() + Duration::from_secs(5);
    let mut buf = Vec::new();
    while let Some(line) = next_line(&mut rig.reader, &mut buf, end)? {
        if let Some(ServiceResponse::Stats { stats, .. }) = decode(&line) {
            return Ok(stats);
        }
    }
    Err("no stats reply".into())
}

/// Client-side verdicts over one phase's records. Every request has a
/// latency and a makespan: one that got no valid schedule is censored at
/// the drain time and scored at its profile's all-software makespan, so
/// refusals read as slower and worse service, never as a missing figure.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    hits: usize,
    served: usize,
    degraded: usize,
    goodput_tasks: usize,
    makespans: Vec<f64>,
    wire_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

fn assess(
    records: &[Record],
    arrivals: &[Arrival],
    profiles: &[Profile],
    report: &mut Report,
    kernels: &mut KernelTotals,
    spans: &mut Spans,
    phase_start: Instant,
) -> Tally {
    let mut t = Tally::default();
    for (k, (r, a)) in records.iter().zip(arrivals).enumerate() {
        let p = &profiles[a.profile];
        let (inst, fallback) = p.target(a.algo);
        t.late_ms
            .push((r.sent.saturating_sub(a.due)).as_secs_f64() * 1e3);
        t.encode_us.push(r.encode.as_secs_f64() * 1e6);
        let latency = r.recv.map(|recv| recv.saturating_sub(a.due));
        let verdict: Result<bool, String> = match &r.resp {
            None => Err(format!("request {k}: no reply within the drain time")),
            Some(ServiceResponse::Err { error, .. })
                if matches!(
                    error.code,
                    ErrorCode::QueueFull | ErrorCode::DeadlineUnmeetable
                ) =>
            {
                Ok(false)
            }
            Some(ServiceResponse::Ok(reply)) => {
                t.decode_us.push(r.decode.as_secs_f64() * 1e6);
                let span = latency
                    .and_then(|l| spans.record("server", "request", None, phase_start + a.due, l));
                let valid = kernels
                    .validate(inst, &reply.schedule, false, spans, None)
                    .and_then(|()| {
                        if reply.makespan == reply.schedule.makespan() {
                            Ok(())
                        } else {
                            Err(format!("reply makespan {} disagrees", reply.makespan))
                        }
                    });
                match valid {
                    Err(e) => Err(format!("request {k} ({}): {e}", a.algo)),
                    Ok(()) => {
                        let service = Duration::from_micros(reply.service_us);
                        let solve: Duration = reply
                            .phases
                            .iter()
                            .map(|p| Duration::from_micros(p.micros))
                            .sum();
                        if let Some(recv) = r.recv {
                            let round_trip = recv.saturating_sub(r.sent);
                            t.wire_ms
                                .push(round_trip.saturating_sub(service).as_secs_f64() * 1e3);
                        }
                        spans.reported("loadgen", "late", span, r.sent.saturating_sub(a.due));
                        if !reply.phases.is_empty() {
                            t.solve_ms.push(solve.as_secs_f64() * 1e3);
                            t.wait_ms
                                .push(service.saturating_sub(solve).as_secs_f64() * 1e3);
                            spans.reported("sched", "phases", span, solve);
                        }
                        t.degraded += usize::from(reply.degraded);
                        Ok(true)
                    }
                }
            }
            Some(ServiceResponse::Err { error, .. }) => Err(format!(
                "request {k} ({}): {:?}: {}",
                a.algo, error.code, error.message
            )),
            Some(other) => Err(format!("request {k}: unexpected reply {other:?}")),
        };
        let served = match verdict {
            Ok(true) => {
                report.attempted += 1;
                true
            }
            Ok(false) => {
                report.attempted += 1;
                report.refused += 1;
                false
            }
            Err(e) => {
                report.outcome(Err(e));
                false
            }
        };
        match (served, &r.resp, latency) {
            (true, Some(ServiceResponse::Ok(reply)), Some(l)) => {
                t.served += 1;
                t.latencies_ms.push(l.as_secs_f64() * 1e3);
                t.makespans.push(reply.makespan as f64);
                if l <= Duration::from_millis(DEADLINE_MS) {
                    t.hits += 1;
                    t.goodput_tasks += p.tasks;
                }
            }
            _ => {
                t.latencies_ms.push(DRAIN.as_secs_f64() * 1e3);
                t.makespans.push(fallback as f64);
            }
        }
    }
    t
}

/// Sets the end-to-end metrics and the service figures of the main phase,
/// offered at `rps`.
fn set_metrics(report: &mut Report, t: &Tally, rps: f64, setup_s: f64) {
    let n = t.latencies_ms.len().max(1) as f64;
    let (p, tail_ms) = tail(&t.latencies_ms);
    report.set("setup_s", setup_s);
    report.set("latency_p50_ms", stats::median(&t.latencies_ms));
    // Per second of the nominal phase length (requests / offered rate).
    report.set("tasks_per_s", t.goodput_tasks as f64 * rps / n);
    report.set("makespan_geomean", stats::geomean(&t.makespans));
    report.set("peak_rss_mb", peak_rss_mb());
    report.extra("requests", n, "count");
    report.extra("offered_rps", rps, "1/s");
    report.extra(&format!("latency_p{p:.0}_ms"), tail_ms, "ms");
    report.extra("deadline_hit_pct", 100.0 * t.hits as f64 / n, "%");
    report.extra(
        "degraded_pct",
        100.0 * t.degraded as f64 / t.served.max(1) as f64,
        "%",
    );
}

/// The highest percentile with at least ten samples beyond it (at least
/// the median), and its value.
fn tail(latencies: &[f64]) -> (f64, f64) {
    let p = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| stats::supports(latencies.len(), p))
        .unwrap_or(50.0);
    (p, stats::percentile(latencies, p))
}

/// Measures [`CAPACITY_RPS`]: replies per second over `window` with one
/// request per worker always in flight (closed loop), on the workload's
/// profiles and request mix.
pub fn capacity(window: Duration) -> Result<f64, String> {
    let profiles = profiles(false)?;
    let mut rig = start_rig()?;
    let mut rng = Rng::new(1, 4);
    let mix = arrivals(&mut rng, 1.0, 4096, profiles.len());
    let send = |rig: &mut Rig, k: usize| -> Result<(), String> {
        let a = &mix[k % mix.len()];
        let line = serde_json::to_string(&request(k as u64, a, &profiles[a.profile]))
            .map_err(|e| format!("encode: {e:?}"))?;
        rig.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    };
    for k in 0..WORKERS {
        send(&mut rig, k)?;
    }
    let start = Instant::now();
    let (mut sent, mut replies) = (WORKERS, 0usize);
    let mut buf = Vec::new();
    while start.elapsed() < window {
        let end = Instant::now() + DRAIN;
        if next_line(&mut rig.reader, &mut buf, end)?.is_none() {
            return Err("the daemon stopped answering".into());
        }
        replies += 1;
        send(&mut rig, sent)?;
        sent += 1;
    }
    Ok(replies as f64 / start.elapsed().as_secs_f64())
}

/// Runs the workload: the main phase at [`MAIN_LOAD`] for the window,
/// then, in an untraced run, the ladder (about 9 s more).
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("serve_mix");
    let mut spans = Spans::new(opts.trace);
    let ((profiles, rig), setup_s) = timed_setup(3, &mut spans, || {
        let profiles = profiles(opts.toy);
        (profiles, start_rig())
    });
    let (profiles, mut rig) = match (profiles, rig) {
        (Ok(p), Ok(r)) => (p, r),
        (Err(e), _) | (_, Err(e)) => {
            report.outcome(Err(format!("set-up: {e}")));
            return report;
        }
    };

    let mut rng = Rng::new(opts.seed, 4);
    let mut kernels = KernelTotals::default();
    let deck = deck_len(profiles.len());
    let rung_requests = if opts.toy { 4 } else { deck };
    // The traced run skips the ladder: its layers come from the main phase.
    let ladder: &[f64] = if opts.trace { &[] } else { LADDER_LOAD };
    let main_rps = MAIN_LOAD * CAPACITY_RPS;
    // Whole decks, so every run offers the same requests.
    let main_count = (main_rps * opts.window().as_secs_f64() / deck as f64)
        .round()
        .max(1.0)
        * deck as f64;
    let main = arrivals(&mut rng, main_rps, main_count as usize, profiles.len());
    let phase_start = Instant::now();
    let records = match drive(&mut rig, &main, &profiles, 0) {
        Ok(r) => r,
        Err(e) => {
            report.outcome(Err(e));
            return report;
        }
    };
    let t = assess(
        &records,
        &main,
        &profiles,
        &mut report,
        &mut kernels,
        &mut spans,
        phase_start,
    );
    let stats_reply = wire_stats(&mut rig);
    if let Err(e) = &stats_reply {
        report.outcome(Err(format!("stats op: {e}")));
    }

    // The ladder: each rung passes when its tail latency stays within the
    // deadline and its backlog does not grow (the last third of its
    // requests is not slower than twice the first third).
    let mut sustained = 0.0;
    let mut rung_lines = Vec::new();
    for (i, &load) in ladder.iter().enumerate() {
        let rps = load * CAPACITY_RPS;
        let rung = arrivals(&mut rng, rps, rung_requests, profiles.len());
        let start = Instant::now();
        let recs = match drive(&mut rig, &rung, &profiles, (i as u64 + 1) << 32) {
            Ok(r) => r,
            Err(e) => {
                report.outcome(Err(e));
                continue;
            }
        };
        let rt = assess(
            &recs,
            &rung,
            &profiles,
            &mut report,
            &mut kernels,
            &mut spans,
            start,
        );
        let (p, tail_ms) = tail(&rt.latencies_ms);
        let third = rt.latencies_ms.len() / 3;
        let growing = third > 0
            && stats::median(&rt.latencies_ms[rt.latencies_ms.len() - third..])
                > 2.0 * stats::median(&rt.latencies_ms[..third]);
        let ok = tail_ms <= DEADLINE_MS as f64 && !growing;
        if ok {
            sustained = rps;
        }
        rung_lines.push(format!(
            "{rps:.1} rps ({:.0}% of capacity): {} requests, p50 {:.1} ms, p{p:.0} {tail_ms:.1} \
             ms, {:.0}% within the deadline, backlog {}, {}",
            100.0 * load,
            rung.len(),
            stats::median(&rt.latencies_ms),
            100.0 * rt.hits as f64 / rung.len() as f64,
            if growing { "growing" } else { "steady" },
            if ok { "sustained" } else { "not sustained" }
        ));
    }
    drop(rig);

    set_metrics(&mut report, &t, main_rps, setup_s);
    if !ladder.is_empty() {
        report.extra("sustained_rps", sustained, "1/s");
    }
    report.extra(
        "generator_late_p99_ms",
        stats::percentile(&t.late_ms, 99.0),
        "ms",
    );
    report.extra(
        "generator_late_max_ms",
        stats::percentile(&t.late_ms, 100.0),
        "ms",
    );
    report.notes.push(format!(
        "latencies are timed from each request's due time; {} requests were refused at \
         admission and count as misses, censored at the {} s drain time",
        report.refused,
        DRAIN.as_secs()
    ));
    for line in rung_lines {
        report.notes.push(format!("ladder {line}"));
    }

    if opts.trace {
        kernels.to_layers(&mut report);
        report.layer("model.encode_us", stats::median(&t.encode_us));
        report.layer("model.decode_us", stats::median(&t.decode_us).max(0.0));
        report.layer("server.wire_ms", stats::median(&t.wire_ms).max(0.0));
        report.layer("server.wait_ms", stats::median(&t.wait_ms).max(0.0));
        report.layer("server.solve_ms", stats::median(&t.solve_ms).max(0.0));
        report.layer("loadgen.late_p99_ms", stats::percentile(&t.late_ms, 99.0));
        report.layer("loadgen.late_max_ms", stats::percentile(&t.late_ms, 100.0));
        if let Ok(s) = &stats_reply {
            report.layer("server.queue_peak", s.queue_peak as f64);
            let ws = (s.workspace_reuses + s.workspace_rebuilds).max(1) as f64;
            report.layer(
                "server.ws_reuse_share",
                100.0 * s.workspace_reuses as f64 / ws,
            );
            report.layer(
                "server.rejected",
                (s.rejected_queue_full + s.rejected_unmeetable) as f64,
            );
        }
        super::finish_trace(&mut report, &spans, &t.latencies_ms, setup_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::service::{ScheduleReply, ServiceError};

    #[test]
    fn refusals_read_as_slow_service_not_as_missing_figures() {
        let profiles = profiles(true).expect("toy profiles build");
        let arrivals: Vec<Arrival> = (0..4)
            .map(|k| Arrival {
                due: Duration::from_millis(10 * k as u64),
                profile: k % profiles.len(),
                algo: AlgoChoice::Pa,
            })
            .collect();
        // The first request gets its profile's all-software schedule; the
        // other three are refused at admission.
        let cancelled = CancelToken::never().child();
        cancelled.cancel();
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule_with_cancel(&profiles[0].inst, &cancelled)
            .expect("software schedule")
            .schedule;
        let reply = ServiceResponse::Ok(Box::new(ScheduleReply {
            id: 0,
            algo: "pa".into(),
            makespan: schedule.makespan(),
            degraded: true,
            deadline_hit: true,
            deadline_met: true,
            service_us: 1_000,
            phases: Vec::new(),
            schedule,
        }));
        let records: Vec<Record> = arrivals
            .iter()
            .enumerate()
            .map(|(k, a)| Record {
                sent: a.due,
                recv: Some(a.due + Duration::from_millis(2)),
                resp: Some(if k == 0 {
                    reply.clone()
                } else {
                    ServiceResponse::Err {
                        id: Some(k as u64),
                        error: ServiceError {
                            code: ErrorCode::QueueFull,
                            message: "queue full".into(),
                        },
                    }
                }),
                encode: Duration::ZERO,
                decode: Duration::ZERO,
            })
            .collect();

        let mut report = Report::new("serve_mix");
        let t = assess(
            &records,
            &arrivals,
            &profiles,
            &mut report,
            &mut KernelTotals::default(),
            &mut Spans::new(false),
            Instant::now(),
        );
        set_metrics(&mut report, &t, 10.0, 0.5);
        assert_eq!((report.attempted, report.failed, report.refused), (4, 0, 3));
        assert_eq!(report.failed_pct(), 75.0);
        assert!(report.correct(false), "{:?}", report.metrics(false));
        assert_eq!(report.e2e["latency_p50_ms"], DRAIN.as_secs_f64() * 1e3);
        let extra = |name: &str| report.extra.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(extra("deadline_hit_pct"), 25.0);
        // Every request scores its all-software makespan.
        let fallbacks: Vec<f64> = arrivals
            .iter()
            .map(|a| profiles[a.profile].fallback[0] as f64)
            .collect();
        let expected = stats::geomean(&fallbacks);
        assert!((report.e2e["makespan_geomean"] - expected).abs() < 1e-6 * expected);
    }
}
