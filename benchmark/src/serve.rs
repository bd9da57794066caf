//! The serve workload: an in-process `an5d-serve` under a closed loop of
//! keep-alive clients sending a seeded endpoint mix.
//!
//! Closed loop, because the callers are build tools that wait for their
//! reply before sending the next request; a slow server therefore
//! receives less load, and throughput and latency are two views of the
//! same thing at a fixed client count (`min(nproc, 4)`, no retries).

use an5d::{
    parse_stencil, standard_registry, suite, An5d, BatchDriver, BatchJob, BlockConfig, DeviceId,
    GridInit, Precision, SearchSpace, SerialBackend, TuneDb,
};
use an5d_service::{
    api, dispatch, http, parse_json, Json, KeepAliveClient, Parse, RequestParser, Server,
    ServerConfig, ServiceState,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::compile::Program;
use crate::host::{self, Calibrator};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use crate::Opts;

/// The six pipeline endpoints, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Parse,
    Plan,
    Predict,
    Codegen,
    Tune,
    Execute,
}

impl Endpoint {
    const ALL: [Endpoint; 6] = [
        Endpoint::Parse,
        Endpoint::Plan,
        Endpoint::Predict,
        Endpoint::Codegen,
        Endpoint::Tune,
        Endpoint::Execute,
    ];

    /// Cumulative request-mix percentages: `/parse` 10, `/plan` 25,
    /// `/predict` 20, `/codegen` 15, `/tune` 15, `/execute` 15.
    ///
    /// Latencies come in three classes — source-form requests (~0.2 ms),
    /// name-form ones (`by_name`, ≥ 1.2 ms) and `/execute` with cold
    /// `/tune` (2–4 ms). The shares keep the median inside the second
    /// class and the 90th percentile inside the third; one that sits on
    /// the edge between two classes follows the seed's draw, not the
    /// server.
    const CUMULATIVE_PERCENT: [usize; 6] = [10, 35, 55, 70, 85, 100];

    fn draw(rng: &mut Rng) -> Self {
        let roll = rng.below(100);
        let slot = Self::CUMULATIVE_PERCENT
            .iter()
            .position(|&upto| roll < upto)
            .expect("the mix sums to 100");
        Self::ALL[slot]
    }

    fn name(self) -> &'static str {
        match self {
            Endpoint::Parse => "parse",
            Endpoint::Plan => "plan",
            Endpoint::Predict => "predict",
            Endpoint::Codegen => "codegen",
            Endpoint::Tune => "tune",
            Endpoint::Execute => "execute",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Endpoint::Parse => "/parse",
            Endpoint::Plan => "/plan",
            Endpoint::Predict => "/predict",
            Endpoint::Codegen => "/codegen",
            Endpoint::Tune => "/tune",
            Endpoint::Execute => "/execute",
        }
    }

    fn dispatch_span(self) -> &'static str {
        match self {
            Endpoint::Parse => "service.dispatch.parse",
            Endpoint::Plan => "service.dispatch.plan",
            Endpoint::Predict => "service.dispatch.predict",
            Endpoint::Codegen => "service.dispatch.codegen",
            Endpoint::Tune => "service.dispatch.tune",
            Endpoint::Execute => "service.dispatch.execute",
        }
    }

    fn uses_device(self) -> bool {
        matches!(self, Endpoint::Predict | Endpoint::Tune)
    }
}

/// The stencils the service is asked about: five 2D (any endpoint) and
/// two 3D (never `/execute`, whose grids stay 2D and small).
const STENCILS_2D: [&str; 5] = ["j2d5pt", "star2d1r", "star2d2r", "box2d1r", "gradient2d"];
const STENCILS_3D: [&str; 2] = ["star3d1r", "j3d27pt"];

/// One (stencil, problem, config) tuple.
#[derive(Debug, Clone, PartialEq)]
struct Tuple {
    stencil: &'static str,
    /// Extents for `/plan`, `/predict`, `/codegen` and `/execute`.
    interior: Vec<usize>,
    /// Extents for `/tune`, whose search space wants room for its tiles.
    tune_interior: Vec<usize>,
    steps: usize,
    bt: usize,
    bs: Vec<usize>,
    hsn: Option<usize>,
    precision: Precision,
    /// Initial-grid seed of `/execute`.
    grid_seed: u64,
}

impl Tuple {
    /// A seeded tuple. `slot` fixes what decides a request's cost —
    /// stencil, precision, temporal degree — and the seed draws the rest:
    /// the hot set takes slots `0..n`, so every seed's hot set costs about
    /// the same, and a cold request a random slot. Hot tuples are small
    /// enough to execute and all of about the same work (rows + cols =
    /// 64, 5–7 steps); cold ones (`cold = true`) use larger fresh extents
    /// that miss the plan cache. Every blocking configuration keeps
    /// `2·bT·rad < bS` for the radii (≤ 2) of the stencils served.
    fn draw(rng: &mut Rng, slot: usize, three_d: bool, cold: bool) -> Self {
        let precision = [Precision::Single, Precision::Double][slot % 2];
        let steps = 5 + rng.below(3);
        if three_d {
            let extent = if cold {
                65 + rng.below(448)
            } else {
                16 + rng.below(9)
            };
            let tune_extent = if cold {
                257 + rng.below(256)
            } else {
                128 + 8 * rng.below(17)
            };
            Self {
                stencil: STENCILS_3D[slot % STENCILS_3D.len()],
                interior: vec![extent; 3],
                tune_interior: vec![tune_extent; 3],
                steps,
                bt: 1 + slot % 2,
                bs: vec![16, 16],
                hsn: [None, Some(16)][rng.below(2)],
                precision,
                grid_seed: rng.next_u64() >> 32,
            }
        } else {
            let (rows, cols) = if cold {
                (65 + rng.below(4032), 65 + rng.below(4032))
            } else {
                let rows = 24 + rng.below(17);
                (rows, 64 - rows)
            };
            let tune = if cold {
                1025 + rng.below(7168)
            } else {
                512 + 8 * rng.below(65)
            };
            Self {
                stencil: STENCILS_2D[slot % STENCILS_2D.len()],
                interior: vec![rows, cols],
                tune_interior: vec![tune, tune],
                steps,
                bt: 1 + slot % 3,
                bs: vec![[32, 64][rng.below(2)]],
                hsn: [None, Some(32)][rng.below(2)],
                precision,
                grid_seed: rng.next_u64() >> 32,
            }
        }
    }
}

/// One request, described well enough to derive its expected body.
#[derive(Debug, Clone)]
struct Desc {
    endpoint: Endpoint,
    tuple: Tuple,
    /// Index into the catalog's device list (`/predict`, `/tune`).
    device: usize,
    /// `"source"` + `"name"` instead of `"benchmark"`.
    source_form: bool,
    /// Index of the hot tuple, `None` for a cold request.
    hot: Option<usize>,
}

/// What the set-up derives from the seed and the frozen programs.
struct Catalog {
    /// Table-3 name → frozen C text; `j2d5pt` is served from the paper's
    /// hand-written Fig. 4 file.
    sources: HashMap<&'static str, String>,
    devices: Vec<DeviceId>,
    hot: Vec<Tuple>,
    /// Expected body per (endpoint, hot tuple, device) from direct facade
    /// calls with fresh state.
    expected: HashMap<(Endpoint, usize, usize), String>,
}

fn precision_name(precision: Precision) -> &'static str {
    match precision {
        Precision::Single => "single",
        Precision::Double => "double",
    }
}

impl Catalog {
    fn source(&self, stencil: &str) -> &str {
        &self.sources[stencil]
    }

    /// Draw one request of the seeded mix: 80 % from the hot set, 20 %
    /// fresh; three in four by benchmark name, the rest carrying source.
    fn draw(&self, rng: &mut Rng) -> Desc {
        let endpoint = Endpoint::draw(rng);
        let cold = rng.below(5) == 0;
        let (tuple, hot) = if cold {
            let three_d = endpoint != Endpoint::Execute && rng.below(4) == 0;
            // 30 slots: a multiple of every attribute cycle.
            let slot = rng.below(30);
            let tuple = Tuple::draw(rng, slot, three_d, endpoint != Endpoint::Execute);
            (tuple, None)
        } else {
            let eligible: Vec<usize> = (0..self.hot.len())
                .filter(|&i| endpoint != Endpoint::Execute || self.hot[i].interior.len() == 2)
                .collect();
            let index = eligible[rng.below(eligible.len())];
            (self.hot[index].clone(), Some(index))
        };
        Desc {
            endpoint,
            tuple,
            device: if endpoint.uses_device() {
                rng.below(self.devices.len())
            } else {
                0
            },
            source_form: endpoint == Endpoint::Parse || rng.below(4) == 0,
            hot,
        }
    }

    /// The JSON request body of `desc`.
    fn body(&self, desc: &Desc) -> String {
        let t = &desc.tuple;
        let mut fields = if desc.source_form {
            vec![
                ("source", Json::str(self.source(t.stencil))),
                ("name", Json::str(t.stencil)),
            ]
        } else {
            vec![("benchmark", Json::str(t.stencil))]
        };
        let config = Json::obj(vec![
            ("bt", Json::Int(t.bt as i128)),
            ("bs", Json::usize_array(&t.bs)),
            ("hsn", t.hsn.map_or(Json::Null, |h| Json::Int(h as i128))),
            ("precision", Json::str(precision_name(t.precision))),
        ]);
        match desc.endpoint {
            Endpoint::Parse => {}
            Endpoint::Tune => {
                fields.push(("interior", Json::usize_array(&t.tune_interior)));
                fields.push(("steps", Json::Int(t.steps as i128)));
                fields.push(("precision", Json::str(precision_name(t.precision))));
                fields.push(("space", Json::str("quick")));
            }
            _ => {
                fields.push(("interior", Json::usize_array(&t.interior)));
                fields.push(("steps", Json::Int(t.steps as i128)));
                fields.push(("config", config));
            }
        }
        if desc.endpoint.uses_device() {
            fields.push(("device", Json::str(self.devices[desc.device].as_str())));
        }
        if desc.endpoint == Endpoint::Execute {
            fields.push(("seed", Json::Int(i128::from(t.grid_seed))));
        }
        Json::obj(fields).render()
    }

    /// The body a direct facade call produces for `desc` — what the
    /// service must answer byte for byte.
    fn facade_body(&self, desc: &Desc) -> Result<String, String> {
        let t = &desc.tuple;
        let text = |e: an5d::An5dError| e.to_string();
        let an5d = if desc.source_form {
            An5d::from_c_source(self.source(t.stencil), t.stencil).map_err(text)?
        } else {
            An5d::benchmark(t.stencil).map_err(text)?
        };
        let config =
            BlockConfig::new(t.bt, &t.bs, t.hsn, t.precision).map_err(|e| e.to_string())?;
        let problem = an5d.problem(&t.interior, t.steps).map_err(text)?;
        let registry = standard_registry();
        let device = registry
            .get(&self.devices[desc.device])
            .expect("catalog devices come from the registry");
        Ok(match desc.endpoint {
            Endpoint::Parse => {
                let detected =
                    parse_stencil(self.source(t.stencil), t.stencil).map_err(|e| e.to_string())?;
                api::parse_response(&detected)
            }
            Endpoint::Plan => api::plan_response(&an5d.plan(&problem, &config).map_err(text)?),
            Endpoint::Predict => {
                api::predict_response(&an5d.predict(&problem, &config, device).map_err(text)?)
            }
            Endpoint::Codegen => {
                api::codegen_response(&an5d.generate_cuda(&problem, &config).map_err(text)?)
            }
            Endpoint::Tune => {
                let problem = an5d.problem(&t.tune_interior, t.steps).map_err(text)?;
                let space = SearchSpace::quick(an5d.def().ndim(), t.precision);
                api::tune_response(&an5d.tune(&problem, device, &space).map_err(text)?)
            }
            Endpoint::Execute => {
                let job = BatchJob::new(an5d.def().clone(), &t.interior, t.steps, config)
                    .with_init(GridInit::Hash { seed: t.grid_seed });
                let outcome = BatchDriver::new(Arc::new(SerialBackend))
                    .run(&[job])
                    .pop()
                    .expect("one job, one outcome")
                    .map_err(|e| e.to_string())?;
                api::execute_response(&outcome)
            }
        }
        .render())
    }
}

/// How much traffic one run sends.
pub struct ServeSpec {
    sources: HashMap<&'static str, String>,
    pub clients: usize,
    pub workers: usize,
    pub hot_tuples: usize,
    pub warmup_requests: usize,
    pub window_requests: usize,
    pub min_windows: usize,
}

impl ServeSpec {
    /// The full-size workload for this host.
    ///
    /// # Errors
    ///
    /// Returns a message when a frozen program is missing.
    pub fn full(programs: Vec<Program>, dir: &Path) -> Result<Self, String> {
        let nproc = host::nproc();
        let mut sources = HashMap::new();
        for name in STENCILS_2D.iter().chain(&STENCILS_3D) {
            let program = programs
                .iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| format!("no frozen program for {name}"))?;
            sources.insert(*name, program.source.clone());
        }
        let fig4 = dir.join("fig4_j2d5pt.c");
        let source = std::fs::read_to_string(&fig4)
            .map_err(|e| format!("cannot read {}: {e}", fig4.display()))?;
        sources.insert("j2d5pt", source);
        Ok(Self {
            sources,
            clients: nproc.min(4),
            workers: nproc,
            hot_tuples: 24,
            warmup_requests: 600,
            window_requests: 500,
            min_windows: 8,
        })
    }
}

/// A running server with its clients and the catalog they draw from.
struct Ready {
    server: Server,
    clients: Vec<KeepAliveClient>,
    catalog: Catalog,
    db_path: PathBuf,
}

impl Ready {
    /// Stop the server, join its threads, remove the temporary tune DB.
    fn shutdown(self) {
        drop(self.clients);
        self.server.stop();
        let _ = std::fs::remove_file(&self.db_path);
    }
}

/// A unique temp-file path for a tune DB inside the output directory.
fn temp_db_path(opts: &Opts) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    opts.out_dir.join(format!(
        "serve-{}-{}.tunedb",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn catalog(spec: &ServeSpec, seed: u64) -> Result<Catalog, String> {
    let mut rng = Rng::new(seed).fork(0xCA7A);
    // Three in four hot tuples are 2D (and so executable).
    let hot: Vec<Tuple> = (0..spec.hot_tuples)
        .map(|i| Tuple::draw(&mut rng, i, i % 4 == 3, false))
        .collect();
    let mut catalog = Catalog {
        sources: spec.sources.clone(),
        devices: standard_registry().ids().cloned().collect(),
        hot,
        expected: HashMap::new(),
    };
    for (index, tuple) in catalog.hot.clone().into_iter().enumerate() {
        for endpoint in Endpoint::ALL {
            if endpoint == Endpoint::Execute && tuple.interior.len() != 2 {
                continue;
            }
            let devices = if endpoint.uses_device() {
                catalog.devices.len()
            } else {
                1
            };
            for device in 0..devices {
                let desc = Desc {
                    endpoint,
                    tuple: tuple.clone(),
                    device,
                    source_form: false,
                    hot: Some(index),
                };
                let body = catalog
                    .facade_body(&desc)
                    .map_err(|e| format!("hot tuple {tuple:?} is invalid for {endpoint:?}: {e}"))?;
                catalog.expected.insert((endpoint, index, device), body);
            }
        }
    }
    Ok(catalog)
}

/// One answered request.
struct Reply {
    desc: Desc,
    millis: f64,
    status: u16,
    body: String,
}

/// One client's share of a window: send every request, wait for each
/// reply before the next (closed loop), record what came back.
fn send_all(
    client: &mut KeepAliveClient,
    catalog: &Catalog,
    requests: Vec<Desc>,
    tracer: &mut Tracer,
    first_op: u64,
) -> Vec<Reply> {
    let bodies: Vec<String> = requests.iter().map(|d| catalog.body(d)).collect();
    let mut replies = Vec::with_capacity(requests.len());
    for (index, (desc, body)) in requests.into_iter().zip(&bodies).enumerate() {
        let started = Instant::now();
        let answer = tracer.span("wire.request", first_op + index as u64, |_| {
            client.post(desc.endpoint.path(), body)
        });
        let millis = started.elapsed().as_secs_f64() * 1e3;
        let (status, body) = answer.unwrap_or_else(|e| (0, e.to_string()));
        replies.push(Reply {
            desc,
            millis,
            status,
            body,
        });
    }
    replies
}

/// One window's outcome.
struct Window {
    seconds: f64,
    replies: Vec<Reply>,
}

/// Send `total` requests of the seeded mix across all clients at once.
/// `tracers`, when given, holds one recorder per client.
fn window(
    ready: &mut Ready,
    rng: &Rng,
    total: usize,
    tracers: Option<&mut Vec<Tracer>>,
    first_op: u64,
) -> Window {
    let clients = ready.clients.len();
    let per_client = total.div_ceil(clients);
    let catalog = &ready.catalog;
    let plans: Vec<Vec<Desc>> = (0..clients)
        .map(|c| {
            let mut rng = rng.fork(c as u64);
            (0..per_client).map(|_| catalog.draw(&mut rng)).collect()
        })
        .collect();
    let origin = Instant::now();
    let mut off: Vec<Tracer> = (0..clients).map(|_| Tracer::new(origin, false)).collect();
    let recorders = match tracers {
        Some(tracers) => tracers,
        None => &mut off,
    };
    let started = Instant::now();
    let replies: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter_mut()
            .zip(plans)
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(c, ((client, plan), tracer))| {
                let op = first_op + (c * per_client) as u64;
                scope.spawn(move || send_all(client, catalog, plan, tracer, op))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        seconds: started.elapsed().as_secs_f64(),
        replies: replies.into_iter().flatten().collect(),
    }
}

/// Check every reply of a window. Hot bodies are byte-compared with the
/// facade's; cold ones need 200 and parseable JSON, and every 16th cold
/// reply is kept in `samples` to be re-derived after the last window.
fn check_window(
    catalog: &Catalog,
    window: &Window,
    samples: &mut Vec<(Desc, String)>,
    outcome: &mut Outcome,
) {
    for (index, reply) in window.replies.iter().enumerate() {
        let desc = &reply.desc;
        let ok = reply.status == 200
            && match desc.hot {
                Some(hot) => {
                    let device = if desc.endpoint.uses_device() {
                        desc.device
                    } else {
                        0
                    };
                    catalog.expected.get(&(desc.endpoint, hot, device)) == Some(&reply.body)
                }
                None => parse_json(&reply.body).is_ok(),
            };
        outcome.check(ok, || {
            format!(
                "{} {:?} answered {} with an unexpected body ({} bytes)",
                desc.endpoint.path(),
                desc.tuple,
                reply.status,
                reply.body.len()
            )
        });
        if desc.hot.is_none() && index % 16 == 0 {
            samples.push((desc.clone(), reply.body.clone()));
        }
    }
}

fn setup(spec: &ServeSpec, opts: &Opts, outcome: &mut Outcome) -> Result<Ready, String> {
    let catalog = catalog(spec, opts.seed)?;
    let db_path = temp_db_path(opts);
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: spec.workers,
        tune_db: Some(db_path.display().to_string()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr: SocketAddr = server.addr();
    let clients = (0..spec.clients)
        .map(|_| KeepAliveClient::new(addr))
        .collect();
    let mut ready = Ready {
        server,
        clients,
        catalog,
        db_path,
    };
    let warmup = window(
        &mut ready,
        &Rng::new(opts.seed).fork(0x3A23),
        spec.warmup_requests,
        None,
        0,
    );
    check_window(&ready.catalog, &warmup, &mut Vec::new(), outcome);
    Ok(ready)
}

fn describe(spec: &ServeSpec, outcome: &mut Outcome) {
    outcome.note("loop", Json::str("closed, no retries"));
    outcome.note("clients", Json::Int(spec.clients as i128));
    outcome.note("server_workers", Json::Int(spec.workers as i128));
    outcome.note("window_requests", Json::Int(spec.window_requests as i128));
    outcome.note("hot_tuples", Json::Int(spec.hot_tuples as i128));
}

/// Per-endpoint request counts of a window — fixed by the seed.
fn push_counts(outcome: &mut Outcome, window: &Window) {
    outcome.count("requests_per_window", window.replies.len() as u128);
    for endpoint in Endpoint::ALL {
        let sent = window
            .replies
            .iter()
            .filter(|r| r.desc.endpoint == endpoint)
            .count();
        outcome.count(&format!("requests.{}", endpoint.name()), sent as u128);
    }
    let hot = window
        .replies
        .iter()
        .filter(|r| r.desc.hot.is_some())
        .count();
    outcome.count("requests.hot", hot as u128);
}

/// Re-derive the sampled cold replies through the facade.
fn rederive(catalog: &Catalog, samples: &[(Desc, String)], outcome: &mut Outcome) {
    for (desc, body) in samples {
        let expected = catalog.facade_body(desc);
        outcome.check(expected.as_ref() == Ok(body), || {
            format!(
                "cold {} {:?}: service and facade disagree",
                desc.endpoint.path(),
                desc.tuple
            )
        });
    }
}

/// The end-to-end run: windows of the seeded mix until `opts.seconds`
/// have passed; every metric is the median over the windows. Times are
/// calibrated (see [`Calibrator`]): a probe runs between windows, while
/// the server idles.
///
/// # Errors
///
/// Returns a message when the server cannot be started or the seeded hot
/// set is invalid.
pub fn run(spec: &ServeSpec, opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut calibrator = Calibrator::scalar();
    let (ready, setups) = calibrator.timed_setups(
        opts.setups,
        || setup(spec, opts, &mut outcome),
        |ready| {
            if let Ok(ready) = ready {
                ready.shutdown();
            }
        },
    );
    let mut ready = ready?;
    describe(spec, &mut outcome);

    let rng = Rng::new(opts.seed).fork(0x5E27E);
    let mut windows: Vec<(Window, usize)> = Vec::new();
    let mut samples = Vec::new();
    let measuring = Instant::now();
    let mut mark = calibrator.probe();
    while windows.len() < spec.min_windows || measuring.elapsed().as_secs_f64() < opts.seconds {
        let index = windows.len() as u64;
        let mut window = window(&mut ready, &rng.fork(index), spec.window_requests, None, 0);
        check_window(&ready.catalog, &window, &mut samples, &mut outcome);
        // Checked: the bodies are not needed again.
        window
            .replies
            .iter_mut()
            .for_each(|r| r.body = String::new());
        windows.push((window, mark));
        mark = calibrator.probe();
    }
    rederive(&ready.catalog, &samples, &mut outcome);

    let (mut rates, mut millis) = (Vec::new(), Vec::new());
    let (mut raw_rates, mut raw_millis) = (Vec::new(), Vec::new());
    for (window, mark) in &windows {
        let factor = calibrator.factor_after(*mark);
        rates.push(window.replies.len() as f64 / (window.seconds * factor));
        millis.push(
            window
                .replies
                .iter()
                .map(|r| r.millis * factor)
                .collect::<Vec<f64>>(),
        );
        raw_rates.push(window.replies.len() as f64 / window.seconds);
        raw_millis.extend(window.replies.iter().map(|r| r.millis));
    }
    outcome.push_setup(&calibrator, &setups);
    outcome.push(Metric::of("ops_per_s", &rates));
    outcome.push_latency(&millis);
    outcome.describe_raw(&calibrator, median(&raw_rates), &raw_millis);
    push_counts(&mut outcome, &windows[0].0);
    ready.shutdown();
    Ok(outcome)
}

/// The bytes a client puts on the wire for `desc`.
fn wire_bytes(catalog: &Catalog, desc: &Desc) -> Vec<u8> {
    let body = catalog.body(desc);
    format!(
        "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        desc.endpoint.path(),
        body.len()
    )
    .into_bytes()
}

/// One request through the service's layers on this thread:
/// `RequestParser` → `dispatch` → `write_response`, each in its own span.
fn replay_one(
    state: &ServiceState,
    raw: &[u8],
    endpoint: Endpoint,
    tracer: &mut Tracer,
    op: u64,
) -> (u16, f64) {
    let started = Instant::now();
    let status = tracer.span("request", op, |t| {
        let request = t.span("service.http_parse", op, |_| {
            let mut parser = RequestParser::new();
            parser.feed(raw);
            parser.parse()
        });
        let Parse::Ready(request) = request else {
            return 0;
        };
        let mut response = t.span(endpoint.dispatch_span(), op, |_| dispatch(state, &request));
        let mut wire = Vec::new();
        let written = t.span("service.encode", op, |_| {
            http::write_response(&mut wire, &mut response, true)
        });
        if written.is_ok() {
            response.status
        } else {
            0
        }
    });
    (status, started.elapsed().as_secs_f64())
}

/// Time `f` over `reps` calls, in microseconds each.
fn micros_of(reps: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..reps)
        .map(|rep| {
            let started = Instant::now();
            f(rep);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The traced run: a wire window beside a single-threaded replay of the
/// same request list through the service's public layers.
///
/// # Errors
///
/// As [`run`].
pub fn run_traced(spec: &ServeSpec, opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut ready = setup(spec, opts, &mut outcome)?;
    describe(spec, &mut outcome);
    let rng = Rng::new(opts.seed).fork(0x5E27E);
    let requests = spec.window_requests;

    // The in-process twin of the server: same configuration, warmed with
    // the same warm-up list, so its caches and tune DB stand where the
    // server's did when the windows began.
    let replay_db = temp_db_path(opts);
    let db = TuneDb::open(&replay_db)
        .map_err(|e| format!("cannot open {}: {e}", replay_db.display()))?;
    let state = ServiceState::new(
        Arc::new(SerialBackend),
        ServerConfig::default().cache_capacity,
    )
    .with_tune_db(Arc::new(db.sync_on_append(true)));
    let mut off = tracer.sibling(false);
    let mut warm_rng = Rng::new(opts.seed).fork(0x3A23).fork(0);
    for _ in 0..spec.warmup_requests {
        let desc = ready.catalog.draw(&mut warm_rng);
        replay_one(
            &state,
            &wire_bytes(&ready.catalog, &desc),
            desc.endpoint,
            &mut off,
            0,
        );
    }

    // Rounds of: a wire window without spans, a wire window with one span
    // per request, and that second window's request list replayed
    // in-process on this thread — back to back, because the host changes
    // speed every few seconds and the three are compared with each other.
    let mut trace_overheads = Vec::new();
    let mut wire_overheads = Vec::new();
    let mut wire: Vec<Window> = Vec::new();
    let mut windows_sent = 0usize;
    let mut samples = Vec::new();
    let mut next_op = 0u64;
    let started = Instant::now();
    while wire.is_empty() || started.elapsed().as_secs_f64() < opts.seconds * 0.8 {
        let mut plain_seconds = 0.0;
        for enabled in [false, true] {
            let mut recorders: Vec<Tracer> =
                (0..spec.clients).map(|_| tracer.sibling(enabled)).collect();
            let window = window(
                &mut ready,
                &rng.fork(windows_sent as u64),
                requests,
                Some(&mut recorders),
                next_op,
            );
            windows_sent += 1;
            next_op += window.replies.len() as u64;
            check_window(&ready.catalog, &window, &mut samples, &mut outcome);
            recorders.into_iter().for_each(|r| tracer.absorb(r));
            if enabled {
                trace_overheads.push(window.seconds / plain_seconds - 1.0);
                wire.push(window);
            } else {
                plain_seconds = window.seconds;
            }
        }
        for reply in &wire[wire.len() - 1].replies {
            let raw = wire_bytes(&ready.catalog, &reply.desc);
            let (status, layers) = replay_one(&state, &raw, reply.desc.endpoint, tracer, next_op);
            outcome.check(status == 200, || {
                format!(
                    "in-process replay of {} answered {status}",
                    reply.desc.endpoint.path()
                )
            });
            // This request's wire latency minus the parse + dispatch +
            // encode just measured for it: reactor, queue, socket.
            wire_overheads.push(reply.millis * 1e3 - layers * 1e6);
            next_op += 1;
        }
    }
    rederive(&ready.catalog, &samples, &mut outcome);
    drop(state);
    let _ = std::fs::remove_file(&replay_db);
    let sent: usize = (spec.warmup_requests.div_ceil(spec.clients)
        + windows_sent * requests.div_ceil(spec.clients))
        * spec.clients;

    // Server-side counters, read before shutdown.
    let fleet = ready.server.state().fleet();
    let cache_hit_rate = fleet.aggregate_cache_stats().hit_rate();
    let (db_hits, db_misses) = fleet.shards().fold((0u64, 0u64), |(h, m), shard| {
        let stats = shard.tunedb_stats();
        (h + stats.hits, m + stats.misses)
    });
    let db_appends = fleet.tune_db().map_or(0, |db| db.stats().appends);
    let reused = ready.server.reused_requests();
    let non200 = wire
        .iter()
        .flat_map(|w| &w.replies)
        .filter(|r| r.status != 200)
        .count();

    // Layers timed directly.
    let names: Vec<&str> = STENCILS_2D.iter().chain(&STENCILS_3D).copied().collect();
    let by_name = micros_of(names.len() * 8, |rep| {
        std::hint::black_box(suite::by_name(names[rep % names.len()]));
    });
    let parse = micros_of(names.len() * 8, |rep| {
        let name = names[rep % names.len()];
        std::hint::black_box(parse_stencil(ready.catalog.source(name), name).is_ok());
    });
    let put_db_path = temp_db_path(opts);
    let put_db = TuneDb::open(&put_db_path)
        .map_err(|e| format!("cannot open {}: {e}", put_db_path.display()))?
        .sync_on_append(true);
    let registry = standard_registry();
    let mut cold_rng = Rng::new(opts.seed).fork(0xC01D);
    let (mut tune_ms, mut put_us) = (Vec::new(), Vec::new());
    for rep in 0..16 {
        let tuple = Tuple::draw(&mut cold_rng, rep, rep % 4 == 3, true);
        let an5d = An5d::benchmark(tuple.stencil).map_err(|e| e.to_string())?;
        let problem = an5d
            .problem(&tuple.tune_interior, tuple.steps)
            .map_err(|e| e.to_string())?;
        let space = SearchSpace::quick(an5d.def().ndim(), tuple.precision);
        let id = &ready.catalog.devices[rep % ready.catalog.devices.len()];
        let device = registry
            .get(id)
            .expect("catalog devices come from the registry");
        let started = Instant::now();
        let result = an5d
            .tune(&problem, device, &space)
            .map_err(|e| e.to_string())?;
        tune_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let key = an5d.tune_key(&problem, id, &space);
        let started = Instant::now();
        let stored = put_db.put(&key, Some(tuple.stencil), &result);
        put_us.push(started.elapsed().as_secs_f64() * 1e6);
        outcome.check(stored.is_ok(), || format!("TuneDb::put failed: {stored:?}"));
    }
    drop(put_db);
    let _ = std::fs::remove_file(&put_db_path);
    ready.shutdown();

    // Reconciliation: the replayed layers of a request must fit inside
    // its wire round trip. The two are measured a window apart on a host
    // that changes speed, so the median may dip below zero by noise; a
    // tenth of the round trip is the same slack `unattributed_share` gets.
    let us = |seconds: Vec<f64>| -> Vec<f64> { seconds.iter().map(|s| s * 1e6).collect() };
    let wire_us: Vec<f64> = wire
        .iter()
        .flat_map(|w| &w.replies)
        .map(|r| r.millis * 1e3)
        .collect();
    let overhead = median(&wire_overheads);
    if overhead < -0.10 * median(&wire_us) {
        outcome.violations.push(format!(
            "service.wire_overhead_us {overhead:.1}: the replayed layers take longer than the wire round trip ({:.1} us)",
            median(&wire_us)
        ));
    }

    outcome.push(Metric::of("frontend.parse_us", &parse));
    outcome.push(Metric::of("stencil.by_name_us", &by_name));
    outcome.push(Metric::of("tuner.tune_ms", &tune_ms));
    outcome.push(Metric::of("tunedb.put_us", &put_us));
    outcome.push(Metric::scalar(
        "tunedb.hit_rate",
        if db_hits + db_misses > 0 {
            db_hits as f64 / (db_hits + db_misses) as f64
        } else {
            0.0
        },
    ));
    outcome.push(Metric::scalar("tunedb.appends", db_appends as f64));
    outcome.push(Metric::scalar(
        "backend.plan_cache_hit_rate",
        cache_hit_rate,
    ));
    outcome.push(Metric::of(
        "service.http_parse_us",
        &us(tracer.seconds_of("service.http_parse")),
    ));
    outcome.push(Metric::of(
        "service.encode_us",
        &us(tracer.seconds_of("service.encode")),
    ));
    for endpoint in Endpoint::ALL {
        let dispatch = us(tracer.seconds_of(endpoint.dispatch_span()));
        if !dispatch.is_empty() {
            outcome.push(Metric::of(
                &format!("service.dispatch_us.{}", endpoint.name()),
                &dispatch,
            ));
        }
        let wire: Vec<f64> = wire
            .iter()
            .flat_map(|w| &w.replies)
            .filter(|r| r.desc.endpoint == endpoint)
            .map(|r| r.millis * 1e3)
            .collect();
        if !wire.is_empty() {
            outcome.push(Metric::of(
                &format!("service.wire_p50_us.{}", endpoint.name()),
                &wire,
            ));
        }
    }
    outcome.push(Metric::scalar(
        "service.wire_p99_us",
        percentile(&wire_us, 99.0),
    ));
    outcome.push(Metric::of("service.wire_overhead_us", &wire_overheads));
    outcome.push(Metric::scalar(
        "service.reused_share",
        reused as f64 / sent as f64,
    ));
    outcome.push(Metric::scalar("service.non200", non200 as f64));
    outcome.push(Metric::of("trace_overhead_share", &trace_overheads));
    push_counts(&mut outcome, &wire[0]);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::load_programs;

    fn toy() -> ServeSpec {
        let dir = Path::new("programs");
        let mut spec = ServeSpec::full(load_programs(dir).unwrap(), dir).unwrap();
        spec.clients = 2;
        spec.workers = 2;
        spec.hot_tuples = 4;
        spec.warmup_requests = 10;
        spec.window_requests = 40;
        spec.min_windows = 1;
        spec
    }

    #[test]
    fn forty_toy_requests_are_answered_byte_for_byte() {
        let outcome = run(&toy(), &Opts::toy(11)).unwrap();
        assert_eq!(outcome.failed, 0);
        assert!(
            outcome.attempted >= 50,
            "warm-up + window, attempted {}",
            outcome.attempted
        );
        assert!(outcome.value("ops_per_s").unwrap() > 0.0);
        assert!(outcome
            .counts
            .iter()
            .any(|(n, v)| n == "requests_per_window" && *v == 40));
    }

    #[test]
    fn a_wrong_body_counts_as_failed() {
        let spec = toy();
        let opts = Opts::toy(11);
        let mut outcome = Outcome::default();
        let mut ready = setup(&spec, &opts, &mut outcome).unwrap();
        assert_eq!(outcome.failed, 0);
        // Corrupt every expectation: each hot reply must now be flagged.
        for body in ready.catalog.expected.values_mut() {
            body.push(' ');
        }
        let window = window(&mut ready, &Rng::new(5), 40, None, 0);
        let hot = window
            .replies
            .iter()
            .filter(|r| r.desc.hot.is_some())
            .count() as u64;
        check_window(&ready.catalog, &window, &mut Vec::new(), &mut outcome);
        assert!(
            hot > 0 && outcome.failed == hot,
            "hot {hot} failed {}",
            outcome.failed
        );
        ready.shutdown();
    }

    #[test]
    fn the_same_seed_draws_the_same_requests() {
        let spec = toy();
        let (a, b) = (catalog(&spec, 9).unwrap(), catalog(&spec, 9).unwrap());
        assert_eq!(a.hot, b.hot);
        let (mut ra, mut rb) = (Rng::new(1), Rng::new(1));
        for _ in 0..50 {
            let (da, db) = (a.draw(&mut ra), b.draw(&mut rb));
            assert_eq!(a.body(&da), b.body(&db));
        }
        assert_ne!(catalog(&spec, 10).unwrap().hot, a.hot);
    }

    #[test]
    fn toy_traced_run_reconciles_wire_and_layers() {
        let mut tracer = Tracer::new(Instant::now(), true);
        let outcome = run_traced(&toy(), &Opts::toy(11), &mut tracer).unwrap();
        assert_eq!(outcome.failed, 0);
        assert!(outcome.value("stencil.by_name_us").unwrap() > 0.0);
        assert!(outcome.value("service.http_parse_us").unwrap() > 0.0);
        assert!(outcome.value("service.reused_share").unwrap() > 0.5);
        assert_eq!(outcome.value("service.non200"), Some(0.0));
        assert!(tracer.spans().iter().any(|s| s.name == "wire.request"));
        assert!(tracer.unattributed_share() < 0.5);
    }
}
