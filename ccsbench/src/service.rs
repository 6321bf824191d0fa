//! `service_mixed`: a closed loop of two keep-alive clients against the
//! in-process service front ends. One client speaks HTTP to
//! `run_gateway_on` across three `X-Tenant`s; the other speaks JSONL to
//! `serve_unix`. One thread drives both, alternating: each request goes
//! to the gateway, then the same request to the daemon, each sent only
//! after the previous response is complete. A round is the seven-request
//! lap of the repository's `serve_load --gateway` (its `i % 7` mix): five
//! `plan`s on a hot pool of three scenarios (cache reads), one 4-item
//! batch (`/v1/batch` over HTTP, four pipelined lines over JSONL), and in
//! place of `serve_load`'s malformed body one `plan` of a scenario never
//! seen before (a solve and a cache insert). The operation is one
//! request, timed from send to its complete response.
//!
//! Each front end runs one worker and the solver pool one thread; with one
//! request in flight at a time, at most one worker is busy. All threads
//! share one CPU (see `pin_to_one_cpu`). Every response
//! body must be byte-identical across the two framings and to an
//! in-process `engine::execute` of the same request, and every plan in it
//! passes the plan checks.

use crate::check::{check_body, check_plan, PlanFacts, PlanView, Raw};
use crate::layers::{time_us, Layers};
use crate::{mix, ms_since, Phase, Workload};
use ccs_core::gathering::{gathering_point, GatheringStrategy};
use ccs_core::prelude::*;
use ccs_gateway::{run_gateway_on, GatewayConfig, GatewaySummary};
use ccs_serve::protocol::ok_response;
use ccs_serve::{serve_unix, PlanCache, ServeConfig, ServeObs, ServeSummary};
use ccs_wrsn::scenario::{Scenario, ScenarioGenerator};
use serde::value::Value;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hot scenarios, of [`DEVICES`] devices and [`CHARGERS`] chargers each:
/// `serve_load`'s scenario pool, generator seeds 1 to 3 whatever `--seed`
/// is. `--seed` makes the cold scenarios.
const HOT: usize = 3;

/// Devices per scenario, hot or cold (`serve_load`'s scenarios).
const DEVICES: usize = 10;

/// Chargers per scenario, hot or cold (`serve_load`'s scenarios).
const CHARGERS: usize = 3;

/// The tenants of `serve_load --gateway`; the client takes the next one
/// each round, where `serve_load` gives each client its own.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Cache budget of each tenant and of the daemon: small enough that the
/// cold inserts reach the steady state of eviction within the first
/// seconds, so the heap plateaus instead of growing with the run.
const CACHE_BYTES: usize = 2 << 20;

/// What one slot of a round sends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Hot,
    Batch,
    Cold,
}

/// The round: `serve_load --gateway`'s lap of seven requests (slot 4 a
/// batch, slot 6 its malformed body), ten plan items.
const ROUND: [Slot; 7] = [
    Slot::Hot,
    Slot::Hot,
    Slot::Hot,
    Slot::Hot,
    Slot::Batch,
    Slot::Hot,
    Slot::Cold,
];

/// The algorithm of request or batch item `k`: `serve_load` alternates
/// CCSA and the non-cooperative baseline.
fn algo(k: u64) -> &'static str {
    ["ccsa", "ncp"][(k % 2) as usize]
}

fn plan_body(id: u64, scenario: &str, algo: &str) -> String {
    format!(r#"{{"id":{id},"cmd":"plan","scenario":{scenario},"algo":"{algo}"}}"#)
}

fn scenario_json(scenario: &Scenario) -> String {
    serde_json::to_string(&scenario.to_value()).expect("scenarios serialize")
}

fn cold_scenario(seed: u64, round: u64) -> Scenario {
    ScenarioGenerator::new(mix(seed, 1 << 32 | round))
        .devices(DEVICES)
        .chargers(CHARGERS)
        .generate()
}

/// Where a plan item's scenario comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    Hot(usize),
    Cold(u64),
}

/// One request of a round, in both framings.
struct Request {
    /// Each plan item's scenario.
    srcs: Vec<Src>,
    /// The HTTP path and body.
    path: &'static str,
    body: String,
    /// The JSONL lines, one per plan item.
    lines: Vec<String>,
}

fn hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// A closed-loop client over one framing.
enum Client {
    Http {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    },
    Jsonl {
        writer: UnixStream,
        reader: BufReader<UnixStream>,
    },
}

impl Client {
    fn http(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client::Http {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn jsonl(path: &str) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(Client::Jsonl {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its complete response: the HTTP body,
    /// or the JSONL lines in order.
    fn call(&mut self, req: &Request, tenant: &str) -> std::io::Result<Vec<String>> {
        let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        match self {
            Client::Http { writer, reader } => {
                let head = format!(
                    "POST {} HTTP/1.1\r\nHost: ccsbench\r\nX-Tenant: {tenant}\r\n\
                     Content-Length: {}\r\n\r\n",
                    req.path,
                    req.body.len()
                );
                let mut wire = head.into_bytes();
                wire.extend_from_slice(req.body.as_bytes());
                writer.write_all(&wire)?;
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    return Err(bad("gateway closed the connection".to_string()));
                }
                if line.split_whitespace().nth(1) != Some("200") {
                    return Err(bad(format!("status line {line:?}")));
                }
                let mut length = None;
                loop {
                    let mut header = String::new();
                    reader.read_line(&mut header)?;
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse::<usize>().ok();
                    }
                }
                let mut body = vec![0u8; length.ok_or_else(|| bad("no content-length".into()))?];
                reader.read_exact(&mut body)?;
                Ok(vec![
                    String::from_utf8(body).map_err(|_| bad("body not UTF-8".into()))?
                ])
            }
            Client::Jsonl { writer, reader } => {
                let mut wire = String::new();
                for line in &req.lines {
                    wire.push_str(line);
                    wire.push('\n');
                }
                writer.write_all(wire.as_bytes())?;
                let mut out = Vec::with_capacity(req.lines.len());
                for _ in &req.lines {
                    let mut line = String::new();
                    if reader.read_line(&mut line)? == 0 {
                        return Err(bad("daemon closed the connection".to_string()));
                    }
                    out.push(line.trim_end_matches('\n').to_string());
                }
                Ok(out)
            }
        }
    }
}

/// What one client saw in one phase.
#[derive(Default)]
struct Log {
    lat_ms: Vec<f64>,
    peaks_mb: Vec<f64>,
    items: u64,
    /// First response per repeated request text: the round and slot that
    /// first sent it, the response, and how many operations sent it.
    first: HashMap<String, (u64, usize, String, u64)>,
    /// Response hash per cold round.
    cold: BTreeMap<u64, u64>,
    /// Operations whose response differed from an earlier identical
    /// request's, or failed outright.
    failures: Vec<String>,
}

impl Log {
    /// Sends `req` down `client`, timing it from send to the complete
    /// response, and compares the response with the first response to the
    /// same request text.
    fn send(
        &mut self,
        client: &mut Client,
        req: &Request,
        tenant: &str,
        round: u64,
        slot: usize,
        http: bool,
    ) {
        crate::alloc::reset_peak();
        let t = Instant::now();
        let got = client.call(req, tenant);
        self.lat_ms.push(ms_since(t));
        self.peaks_mb.push(crate::alloc::peak_mb());
        self.items += req.lines.len() as u64;
        let got = match got {
            Ok(got) => got.join("\n"),
            Err(e) => {
                self.failures.push(format!("request failed: {e}"));
                return;
            }
        };
        if ROUND[slot] == Slot::Cold {
            self.cold.insert(round, hash(&got));
            return;
        }
        let key = if http {
            req.body.clone()
        } else {
            req.lines.join("\n")
        };
        match self.first.get_mut(&key) {
            Some((_, _, first, n)) => {
                *n += 1;
                if let Err(v) = check_body("repeated request", first, &got) {
                    self.failures.push(v.0);
                }
            }
            None => {
                self.first.insert(key, (round, slot, got, 1));
            }
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards (the
/// servers' workers and connection threads), to one CPU: the
/// highest-numbered one it may run on. Every request then hands over
/// between threads on that CPU. Unpinned, each hand-over could wait for
/// the hypervisor to run another virtual CPU, and on the reference
/// machine `items_per_s` then spread 32% over four runs against 10%
/// pinned. On failure the threads stay unpinned.
fn pin_to_one_cpu() {
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // as the call requires; pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return;
    }
    let Some(cpu) = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

/// The running services and the two clients.
struct Services {
    gateway: JoinHandle<std::io::Result<GatewaySummary>>,
    daemon: JoinHandle<std::io::Result<ServeSummary>>,
    addr: String,
    socket: String,
    http: Client,
    jsonl: Client,
}

impl Services {
    fn start() -> Self {
        pin_to_one_cpu();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("bound").to_string();
        let gateway_config = GatewayConfig {
            addr: addr.clone(),
            shards: 1,
            workers_per_shard: 1,
            cache_bytes: CACHE_BYTES,
            ..GatewayConfig::default()
        };
        let gateway = std::thread::spawn(move || run_gateway_on(listener, &gateway_config));
        // A relative path: the socket lives in the working directory.
        let socket = format!("ccsbench-{}.sock", std::process::id());
        let daemon_config = ServeConfig {
            workers: 1,
            stats_every: None,
            cache_bytes: CACHE_BYTES,
            ..ServeConfig::default()
        };
        let path = socket.clone();
        let daemon = std::thread::spawn(move || serve_unix(&path, &daemon_config));
        let http = Client::http(&addr).expect("connect to the gateway");
        let deadline = Instant::now() + Duration::from_secs(10);
        let jsonl = loop {
            match Client::jsonl(&socket) {
                Ok(c) => break c,
                // The daemon thread binds the socket asynchronously.
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("connect to the daemon at {socket}: {e}"),
            }
        };
        Services {
            gateway,
            daemon,
            addr,
            socket,
            http,
            jsonl,
        }
    }

    /// Drains both services and returns the gateway's summary.
    fn stop(self) -> GatewaySummary {
        drop(self.http);
        drop(self.jsonl);
        let mut admin = TcpStream::connect(&self.addr).expect("connect to the gateway");
        admin
            .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: ccsbench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .expect("send shutdown");
        let mut sink = Vec::new();
        let _ = admin.read_to_end(&mut sink);
        drop(admin);
        let mut admin = UnixStream::connect(&self.socket).expect("connect to the daemon");
        admin
            .write_all(b"{\"id\":0,\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut line = String::new();
        let _ = BufReader::new(&admin).read_line(&mut line);
        drop(admin);
        self.daemon
            .join()
            .expect("daemon thread")
            .expect("daemon ran");
        self.gateway
            .join()
            .expect("gateway thread")
            .expect("gateway ran")
    }
}

/// The workload state.
pub struct Mixed {
    seed: u64,
    hot: Vec<Scenario>,
    hot_json: Vec<String>,
    hot_raw: Vec<Raw>,
    services: Option<Services>,
    /// The next cold round: cold scenarios are never repeated in a run.
    next_round: u64,
    /// Per-framing round-trip medians of the first phase `(http, jsonl)`.
    first_rtt: Option<(f64, f64)>,
}

impl Mixed {
    /// Generates the hot pool, starts both services and opens both
    /// connections.
    pub fn setup(seed: u64) -> Self {
        let hot: Vec<Scenario> = (1..=HOT as u64)
            .map(|i| {
                ScenarioGenerator::new(i)
                    .devices(DEVICES)
                    .chargers(CHARGERS)
                    .generate()
            })
            .collect();
        Mixed {
            seed,
            hot_json: hot.iter().map(scenario_json).collect(),
            hot_raw: hot.iter().map(Raw::of).collect(),
            hot,
            services: Some(Services::start()),
            next_round: 0,
            first_rtt: None,
        }
    }

    /// Request `slot` of `round`. As in `serve_load`, request `k` of the
    /// run plans hot scenario `k % 3` with `algo(k)`, and a batch plans its
    /// scenario with both algorithms in turn. The id is the slot, so the
    /// same request text recurs every few rounds.
    fn request(&self, round: u64, slot: usize) -> Request {
        let id = slot as u64;
        let k = round * ROUND.len() as u64 + slot as u64;
        let hot = k as usize % HOT;
        match ROUND[slot] {
            Slot::Hot => {
                let body = plan_body(id, &self.hot_json[hot], algo(k));
                Request {
                    srcs: vec![Src::Hot(hot)],
                    path: "/v1/plan",
                    lines: vec![body.clone()],
                    body,
                }
            }
            Slot::Batch => {
                let lines: Vec<String> = (0..4u64)
                    .map(|j| plan_body(id * 10 + j, &self.hot_json[hot], algo(j)))
                    .collect();
                Request {
                    srcs: vec![Src::Hot(hot); 4],
                    path: "/v1/batch",
                    body: format!(r#"{{"id":{id},"requests":[{}]}}"#, lines.join(",")),
                    lines,
                }
            }
            Slot::Cold => {
                let body = plan_body(
                    id,
                    &scenario_json(&cold_scenario(self.seed, round)),
                    algo(k),
                );
                Request {
                    srcs: vec![Src::Cold(round)],
                    path: "/v1/plan",
                    lines: vec![body.clone()],
                    body,
                }
            }
        }
    }

    /// Judges one distinct response `got` to the request of `(round,
    /// slot)`, sent `ops` times: byte identity with the in-process
    /// reference, then the plan checks on every plan inside it. Adds the
    /// plans' costs, weighted by `ops`, or fails the `ops` operations.
    #[allow(clippy::too_many_arguments)]
    fn judge(
        &self,
        cache: &PlanCache,
        phase: &mut Phase,
        round: u64,
        slot: usize,
        http: bool,
        got: &str,
        ops: u64,
    ) {
        let req = self.request(round, slot);
        let framing = if http { "http" } else { "jsonl" };
        let want = Self::reference(cache, &req, http).join("\n");
        let verdict = check_body(framing, &want, got)
            .map_err(|v| v.0)
            .and_then(|()| {
                let mut cost = (0.0, 0.0);
                for (plan, src) in plans_in(got)?.iter().zip(&req.srcs) {
                    let cold;
                    let raw = match *src {
                        Src::Hot(i) => &self.hot_raw[i],
                        Src::Cold(r) => {
                            cold = Raw::of(&cold_scenario(self.seed, r));
                            &cold
                        }
                    };
                    let view = PlanView::parse(plan).map_err(|v| v.0)?;
                    let facts = check_plan(raw, &view, None)
                        .and_then(PlanFacts::require_ir)
                        .map_err(|v| format!("{framing}: {}", v.0))?;
                    cost.0 += facts.total_cost;
                    cost.1 += facts.devices as f64;
                }
                Ok(cost)
            });
        match verdict {
            Ok((total, devices)) => {
                phase.cost_sum += total * ops as f64;
                phase.cost_devices += devices * ops as f64;
            }
            Err(why) => phase.fail(&why, ops),
        }
    }

    /// The reference response for `req` in the given framing: an
    /// in-process `engine::execute` of each item, rendered as the framing
    /// renders it.
    fn reference(cache: &PlanCache, req: &Request, http: bool) -> Vec<String> {
        let obs = ServeObs::new(None, None);
        let execute = |line: &str| -> (Value, Value) {
            let body: Value = serde_json::from_str(line).expect("requests parse");
            let mut trace = obs.start();
            let result = ccs_serve::engine::execute(cache, "plan", &body, &mut trace)
                .map(|h| h.result)
                .unwrap_or_else(|e| Value::String(format!("error: {e}")));
            (body.field("id").clone(), result)
        };
        if http && req.path == "/v1/batch" {
            let body: Value = serde_json::from_str(&req.body).expect("requests parse");
            let items: Vec<Value> = req
                .lines
                .iter()
                .map(|line| {
                    let mut map = BTreeMap::new();
                    map.insert("ok".to_string(), Value::Bool(true));
                    map.insert("result".to_string(), execute(line).1);
                    Value::Object(map)
                })
                .collect();
            vec![ok_response(body.field("id"), Value::Array(items))]
        } else {
            req.lines
                .iter()
                .map(|line| {
                    let (id, result) = execute(line);
                    ok_response(&id, result)
                })
                .collect()
        }
    }
}

/// The plans inside a response: a plan result per line, or each item of
/// a batch.
fn plans_in(response: &str) -> Result<Vec<Value>, String> {
    let mut plans = Vec::new();
    for line in response.lines() {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("unparseable: {e}"))?;
        if value.field("ok") != &Value::Bool(true) {
            return Err(format!("error response: {line:.200}"));
        }
        match value.field("result") {
            Value::Array(items) => {
                for item in items {
                    if item.field("ok") != &Value::Bool(true) {
                        return Err("error item in batch".to_string());
                    }
                    plans.push(item.field("result").clone());
                }
            }
            result => plans.push(result.clone()),
        }
    }
    Ok(plans)
}

impl Workload for Mixed {
    fn phase(&mut self, seconds: f64) -> Phase {
        let mut services = self.services.take().expect("services run");
        let start = Instant::now();
        let (mut hlog, mut jlog) = (Log::default(), Log::default());
        let mut round = self.next_round;
        let mut round_rates = Vec::new();
        while hlog.lat_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let began = Instant::now();
            let items = hlog.items + jlog.items;
            for slot in 0..ROUND.len() {
                let req = self.request(round, slot);
                let tenant = TENANTS[round as usize % TENANTS.len()];
                hlog.send(&mut services.http, &req, tenant, round, slot, true);
                jlog.send(&mut services.jsonl, &req, tenant, round, slot, false);
            }
            round_rates
                .push((hlog.items + jlog.items - items) as f64 / began.elapsed().as_secs_f64());
            round += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.services = Some(services);
        self.next_round = round;

        let mut phase = Phase {
            attempted: (hlog.lat_ms.len() + jlog.lat_ms.len()) as u64,
            items: (hlog.items + jlog.items) as f64,
            item_secs: wall_s,
            round_rates,
            ..Phase::default()
        };
        if self.first_rtt.is_none() {
            let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
            self.first_rtt = Some((med(&hlog.lat_ms), med(&jlog.lat_ms)));
        }
        for why in hlog.failures.iter().chain(&jlog.failures) {
            phase.fail(why, 1);
        }
        // Every distinct response against the in-process reference, and
        // the plans inside it against the plan checks.
        let cache = PlanCache::new();
        for (log, http) in [(&hlog, true), (&jlog, false)] {
            for (round, slot, got, ops) in log.first.values() {
                self.judge(&cache, &mut phase, *round, *slot, http, got, *ops);
            }
        }
        let cold_slot = ROUND
            .iter()
            .position(|s| *s == Slot::Cold)
            .expect("a cold slot");
        for (round, h) in &hlog.cold {
            if jlog.cold.get(round) != Some(h) {
                phase.fail("cold response differs between http and jsonl", 2);
                continue;
            }
            // Single plans render alike in both framings, so one
            // reference serves both; the served bodies hash as it does.
            let req = self.request(*round, cold_slot);
            let want = Self::reference(&cache, &req, true).join("\n");
            if hash(&want) == *h {
                self.judge(&cache, &mut phase, *round, cold_slot, true, &want, 2);
            } else {
                phase.fail("cold response differs from the in-process reference", 2);
            }
        }
        phase.lat_ms = hlog.lat_ms;
        phase.lat_ms.extend(jlog.lat_ms);
        phase.peaks_mb = hlog.peaks_mb;
        phase.peaks_mb.extend(jlog.peaks_mb);
        phase
    }

    fn probe_layers(&mut self, l: &mut Layers) {
        let gateway = self.services.take().expect("services run").stop();
        let requests = gateway.requests.max(1) as f64;
        l.set("gateway.batches", gateway.batches as f64 / requests);
        l.set("gateway.batch_items", gateway.batch_items as f64 / requests);
        let (http_rtt, jsonl_rtt) = self.first_rtt.unwrap_or((0.0, 0.0));
        l.set("gateway.http_rtt_ms_p50", http_rtt);
        l.set("serve.jsonl_rtt_ms_p50", jsonl_rtt);

        l.set(
            "wrsn.generate_ms",
            time_us(5, || {
                black_box(
                    ScenarioGenerator::new(1)
                        .devices(DEVICES)
                        .chargers(CHARGERS)
                        .generate(),
                );
            }) / 1e3,
        );
        let scenario = &self.hot[0];
        l.set(
            "tables.build_ms",
            time_us(5, || {
                black_box(CcsProblem::new(scenario.clone()).tables());
            }) / 1e3,
        );
        let problem = CcsProblem::new(scenario.clone());
        let schedule = ccsa(&problem, &EqualShare, CcsaOptions::default());
        let solve: Vec<f64> = schedule
            .groups()
            .iter()
            .map(|g| {
                time_us(5, || {
                    black_box(gathering_point(
                        &problem,
                        g.charger,
                        &g.members,
                        GatheringStrategy::Weiszfeld,
                    ));
                })
            })
            .collect();
        l.set("gathering.solve_us", crate::stats::mean(&solve));
        let fresh = CcsProblem::new(scenario.clone());
        fresh.tables();
        let scan: Vec<f64> = schedule
            .groups()
            .iter()
            .map(|g| {
                time_us(1, || {
                    black_box(best_facility(&fresh, &g.members));
                })
            })
            .collect();
        l.set("cost.best_facility_us", crate::stats::mean(&scan));
        l.set(
            "schedule.validate_us",
            time_us(5, || {
                black_box(schedule.validate(&problem)).expect("plans validate");
            }),
        );
        l.set(
            "schedule.serialize_us",
            time_us(5, || {
                black_box(serde_json::to_string(&schedule.to_value()))
                    .expect("schedules serialize");
            }),
        );
        // engine::execute in-process: the first call on a fresh cache is a
        // miss (solve and insert), the second a hit.
        let cache = PlanCache::with_budget(CACHE_BYTES);
        let obs = ServeObs::new(None, None);
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for (i, json) in self.hot_json.iter().enumerate() {
            let body: Value =
                serde_json::from_str(&plan_body(0, json, algo(i as u64))).expect("parses");
            for times in [&mut miss, &mut hit] {
                let mut trace = obs.start();
                times.push(time_us(1, || {
                    black_box(ccs_serve::engine::execute(
                        &cache, "plan", &body, &mut trace,
                    ))
                    .expect("plans");
                }));
            }
        }
        let hit_us = crate::stats::median(&hit).unwrap_or(0.0);
        l.set(
            "serve.execute_us_miss",
            crate::stats::median(&miss).unwrap_or(0.0),
        );
        l.set("serve.execute_us_hit", hit_us);
        l.set("gateway.transport_ms", http_rtt - hit_us / 1e3);
    }
}

impl Drop for Mixed {
    fn drop(&mut self) {
        if let Some(services) = self.services.take() {
            services.stop();
        }
    }
}
