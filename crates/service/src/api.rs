//! Typed extraction of request parameters from JSON and deterministic
//! rendering of pipeline results back to JSON.
//!
//! Every `*_response` function here is **pure and deterministic**: the
//! same pipeline value always renders to the same bytes, and no
//! per-call operational metadata (cache hits, latency) leaks into the
//! body — that lives in `/metrics`. The integration tests and the
//! `serve` workload of `benchmark/` exploit this to assert that server
//! responses are bit-identical to direct [`An5d`] facade calls.

use crate::json::Json;
use an5d::{
    An5d, BatchJob, BatchOutcome, BlockConfig, CudaCode, DetectedStencil, DeviceId, DeviceRegistry,
    FrameworkScheme, GpuDevice, GridInit, KernelPlan, ModelPrediction, Precision, SearchSpace,
    StencilProblem, TrafficCounters, TuningResult,
};
use an5d_tunedb::codec;

/// A request-level problem: maps to a 400 with `{"error": …}` — unless
/// `deadline` is set, in which case the dispatcher answers `504` with a
/// partial-progress body instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ApiError {
    /// Human-readable message rendered into the JSON error body.
    pub message: String,
    /// `Some((completed, total))` when the request's deadline expired
    /// mid-processing.
    pub deadline: Option<(usize, usize)>,
}

impl ApiError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            deadline: None,
        }
    }

    /// The request's deadline expired after `completed` of `total`
    /// units of work.
    pub(crate) fn deadline_exceeded(
        message: impl Into<String>,
        completed: usize,
        total: usize,
    ) -> Self {
        Self {
            message: message.into(),
            deadline: Some((completed, total)),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ApiError {}

fn int(value: usize) -> Json {
    Json::Int(value as i128)
}

fn big(value: u128) -> Json {
    Json::Int(i128::try_from(value).unwrap_or(i128::MAX))
}

/// `{"error": message}` — the uniform error body.
#[must_use]
pub(crate) fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).render()
}

/// The structured `504 Gateway Timeout` body: the uniform error field
/// plus how far processing got before the request's deadline expired.
#[must_use]
pub(crate) fn deadline_error_body(message: &str, completed: usize, total: usize) -> String {
    Json::obj(vec![
        ("error", Json::str(message)),
        ("deadline_exceeded", Json::Bool(true)),
        ("completed", int(completed)),
        ("total", int(total)),
    ])
    .render()
}

// ---------------------------------------------------------------------
// Request-side extraction
// ---------------------------------------------------------------------

fn require<'a>(body: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    body.get(key)
        .ok_or_else(|| ApiError::new(format!("missing required field \"{key}\"")))
}

/// Build the [`An5d`] pipeline named by a request body: either
/// `"benchmark": "<suite name>"` or `"source": "<C code>"` +
/// `"name": "<label>"`, optionally with `"scheme"`.
///
/// # Errors
///
/// Rejects bodies naming neither (or both) stencil forms, unknown
/// benchmarks, unparsable DSL sources and unknown schemes.
pub(crate) fn pipeline_from(body: &Json) -> Result<An5d, ApiError> {
    let pipeline = match (body.get("benchmark"), body.get("source")) {
        (Some(benchmark), None) => {
            let name = benchmark
                .as_str()
                .ok_or_else(|| ApiError::new("\"benchmark\" must be a string"))?;
            An5d::benchmark(name).map_err(|e| ApiError::new(e.to_string()))?
        }
        (None, Some(source)) => {
            let source = source
                .as_str()
                .ok_or_else(|| ApiError::new("\"source\" must be a string"))?;
            let name = require(body, "name")?
                .as_str()
                .ok_or_else(|| ApiError::new("\"name\" must be a string"))?;
            An5d::from_c_source(source, name).map_err(|e| ApiError::new(e.to_string()))?
        }
        (Some(_), Some(_)) => {
            return Err(ApiError::new(
                "give either \"benchmark\" or \"source\", not both",
            ))
        }
        (None, None) => {
            return Err(ApiError::new(
                "missing stencil: give \"benchmark\" or \"source\" + \"name\"",
            ))
        }
    };
    Ok(pipeline.with_scheme(scheme_from(body)?))
}

/// Extract the optional `"scheme"` field (default AN5D).
///
/// # Errors
///
/// Rejects unknown scheme names.
pub(crate) fn scheme_from(body: &Json) -> Result<FrameworkScheme, ApiError> {
    match body.get("scheme") {
        None => Ok(FrameworkScheme::an5d()),
        Some(value) => value
            .as_str()
            .and_then(FrameworkScheme::by_name)
            .ok_or_else(|| {
                ApiError::new(
                    "\"scheme\" must be \"an5d\", \"stencilgen\" or \"an5d_no_associative\"",
                )
            }),
    }
}

fn usize_list(value: &Json, key: &str) -> Result<Vec<usize>, ApiError> {
    value
        .as_array()
        .ok_or_else(|| ApiError::new(format!("\"{key}\" must be an array of integers")))?
        .iter()
        .map(|v| {
            v.as_usize().ok_or_else(|| {
                ApiError::new(format!("\"{key}\" entries must be non-negative integers"))
            })
        })
        .collect()
}

/// Extract `interior` + `steps` into a [`StencilProblem`] for the
/// pipeline's stencil.
///
/// # Errors
///
/// Rejects missing/ill-typed fields and extents invalid for the stencil.
pub(crate) fn problem_from(body: &Json, pipeline: &An5d) -> Result<StencilProblem, ApiError> {
    let interior = usize_list(require(body, "interior")?, "interior")?;
    let steps = require(body, "steps")?
        .as_usize()
        .ok_or_else(|| ApiError::new("\"steps\" must be a non-negative integer"))?;
    pipeline
        .problem(&interior, steps)
        .map_err(|e| ApiError::new(e.to_string()))
}

fn precision_value(value: &Json) -> Result<Precision, ApiError> {
    match value.as_str() {
        Some("single" | "float") => Ok(Precision::Single),
        Some("double") => Ok(Precision::Double),
        _ => Err(ApiError::new(
            "\"precision\" must be \"single\" or \"double\"",
        )),
    }
}

/// Extract the top-level `"precision"` field.
///
/// # Errors
///
/// Rejects missing or unknown precisions.
pub(crate) fn precision_from(body: &Json) -> Result<Precision, ApiError> {
    precision_value(require(body, "precision")?)
}

/// Extract the `"config"` object into a [`BlockConfig`].
///
/// # Errors
///
/// Rejects missing/ill-typed fields and configurations the planner
/// rejects outright (zero extents, rank mismatch).
pub(crate) fn config_from(body: &Json) -> Result<BlockConfig, ApiError> {
    let config = require(body, "config")?;
    let bt = require(config, "bt")?
        .as_usize()
        .ok_or_else(|| ApiError::new("\"config.bt\" must be a non-negative integer"))?;
    let bs = usize_list(require(config, "bs")?, "config.bs")?;
    let hsn = match config.get("hsn") {
        None | Some(Json::Null) => None,
        Some(value) => Some(
            value
                .as_usize()
                .ok_or_else(|| ApiError::new("\"config.hsn\" must be an integer or null"))?,
        ),
    };
    let precision = precision_value(require(config, "precision")?)?;
    BlockConfig::new(bt, &bs, hsn, precision).map_err(|e| ApiError::new(e.to_string()))
}

/// Extract the optional `"device"` field, resolving any accepted
/// spelling (canonical id or alias, case-insensitive) through the
/// fleet's [`DeviceRegistry`]. `None` means the request named no
/// device.
///
/// # Errors
///
/// Rejects names the registry does not know; the error message lists
/// the accepted set, so registering a new profile makes it usable (and
/// self-documenting) here with no code change.
pub(crate) fn device_from(
    body: &Json,
    registry: &DeviceRegistry,
) -> Result<Option<DeviceId>, ApiError> {
    match body.get("device") {
        None => Ok(None),
        Some(value) => {
            let name = value
                .as_str()
                .ok_or_else(|| unknown_device_error(registry))?;
            registry
                .resolve_id(name)
                .map(Some)
                .ok_or_else(|| unknown_device_error(registry))
        }
    }
}

/// The uniform unknown-device error, with the accepted set generated
/// from the registry — the single source for this message, shared by
/// request extraction and the fleet router.
#[must_use]
pub(crate) fn unknown_device_error(registry: &DeviceRegistry) -> ApiError {
    ApiError::new(format!(
        "\"device\" must be one of {}",
        registry.accepted_names()
    ))
}

/// Extract the `"space"` field (`"quick"` / `"paper"`, default quick)
/// for a stencil rank and precision.
///
/// # Errors
///
/// Rejects unknown space names.
pub(crate) fn space_from(
    body: &Json,
    ndim: usize,
    precision: Precision,
) -> Result<SearchSpace, ApiError> {
    match body.get("space") {
        None => Ok(SearchSpace::quick(ndim, precision)),
        Some(value) => match value.as_str() {
            Some("quick") => Ok(SearchSpace::quick(ndim, precision)),
            Some("paper") => Ok(SearchSpace::paper(ndim, precision)),
            _ => Err(ApiError::new("\"space\" must be \"quick\" or \"paper\"")),
        },
    }
}

/// Extract the optional `"seed"` for the execute endpoint's deterministic
/// initial grid (default `0x5EED`, matching [`an5d::BatchJob::new`]).
///
/// # Errors
///
/// Rejects ill-typed seeds.
pub(crate) fn seed_from(body: &Json) -> Result<u64, ApiError> {
    match body.get("seed") {
        None => Ok(0x5EED),
        Some(value) => value
            .as_usize()
            .map(|v| v as u64)
            .ok_or_else(|| ApiError::new("\"seed\" must be a non-negative integer")),
    }
}

// ---------------------------------------------------------------------
// Response-side rendering
// ---------------------------------------------------------------------

/// Response body for `/parse`.
#[must_use]
pub fn parse_response(detected: &DetectedStencil) -> Json {
    let def = &detected.def;
    Json::obj(vec![
        ("name", Json::str(def.name())),
        ("ndim", int(def.ndim())),
        ("radius", int(def.radius())),
        ("flops_per_cell", int(def.flops_per_cell())),
        ("shape_class", Json::Str(def.shape_class().to_string())),
        ("array", Json::str(&detected.array_name)),
        ("time_var", Json::str(&detected.time_var)),
        (
            "space_vars",
            Json::Arr(detected.space_vars.iter().map(|v| Json::str(v)).collect()),
        ),
    ])
}

/// Response body for `/plan`.
#[must_use]
pub fn plan_response(plan: &KernelPlan) -> Json {
    let geometry = plan.geometry();
    let resources = plan.resources();
    Json::obj(vec![
        ("stencil", Json::str(plan.def().name())),
        ("scheme", Json::str(plan.scheme().name())),
        ("kernel", Json::Str(an5d::kernel_name_for(plan))),
        ("config", codec::config_to_json(plan.config())),
        (
            "geometry",
            Json::obj(vec![
                ("nthr", int(geometry.nthr)),
                ("halo_per_side", int(geometry.halo_per_side)),
                (
                    "compute_region",
                    Json::usize_array(geometry.compute_region()),
                ),
                (
                    "tiles_per_dim",
                    Json::Arr(geometry.tiles_per_dim().map(int).collect()),
                ),
                ("thread_blocks", int(geometry.thread_blocks())),
                ("stream_blocks", int(geometry.stream_blocks())),
                ("total_thread_blocks", big(geometry.total_thread_blocks())),
            ]),
        ),
        (
            "resources",
            Json::obj(vec![
                ("registers_per_thread", int(resources.registers_per_thread)),
                ("shared_buffers", int(resources.shared_buffers)),
                (
                    "shared_bytes_per_block",
                    int(resources.shared_bytes_per_block),
                ),
            ]),
        ),
    ])
}

/// Response body for `/predict`.
#[must_use]
pub fn predict_response(prediction: &ModelPrediction) -> Json {
    Json::obj(vec![
        ("seconds", Json::Num(prediction.seconds)),
        ("gflops", Json::Num(prediction.gflops)),
        ("time_compute", Json::Num(prediction.time_compute)),
        ("time_global", Json::Num(prediction.time_global)),
        ("time_shared", Json::Num(prediction.time_shared)),
        ("bottleneck", Json::Str(prediction.bottleneck.to_string())),
        ("eff_alu", Json::Num(prediction.eff_alu)),
        ("eff_sm", Json::Num(prediction.eff_sm)),
        ("total_gm_bytes", big(prediction.total_gm_bytes)),
        ("total_sm_bytes", big(prediction.total_sm_bytes)),
        ("total_flops", big(prediction.total_flops)),
    ])
}

/// Response body for `/tune`: the object the tune DB stores, so a result
/// read back from the database renders to the bytes the fresh one did.
#[must_use]
pub fn tune_response(result: &TuningResult) -> Json {
    codec::result_to_json(result)
}

/// Response body for `/codegen`.
#[must_use]
pub fn codegen_response(code: &CudaCode) -> Json {
    Json::obj(vec![
        ("kernel_name", Json::str(&code.kernel_name)),
        ("kernel_source", Json::str(&code.kernel_source)),
        ("host_source", Json::str(&code.host_source)),
        ("total_lines", int(code.total_lines())),
    ])
}

fn counters_json(counters: &TrafficCounters) -> Json {
    Json::obj(vec![
        ("gm_reads", big(counters.gm_reads)),
        ("gm_writes", big(counters.gm_writes)),
        ("sm_reads", big(counters.sm_reads)),
        ("sm_writes", big(counters.sm_writes)),
        ("flops", big(counters.flops)),
        ("cell_updates", big(counters.cell_updates)),
        ("valid_updates", big(counters.valid_updates)),
        ("syncs", big(counters.syncs)),
        ("thread_blocks", big(counters.thread_blocks)),
        ("kernel_launches", big(counters.kernel_launches)),
    ])
}

/// Response body for `/execute`.
///
/// Deliberately excludes the per-call elapsed time: it is operational
/// metadata (visible in `/metrics`), and including it would break the
/// bit-identical-response guarantee.
#[must_use]
pub fn execute_response(outcome: &BatchOutcome) -> Json {
    Json::obj(vec![
        ("name", Json::str(&outcome.name)),
        ("checksum", Json::Num(outcome.checksum)),
        ("counters", counters_json(&outcome.counters)),
    ])
}

/// One profile of the `/devices` listing.
#[must_use]
pub(crate) fn device_json(id: &DeviceId, device: &GpuDevice) -> Json {
    Json::obj(vec![
        ("id", Json::Str(id.to_string())),
        ("name", Json::str(&device.name)),
        ("sm_count", int(device.sm_count)),
        ("peak_gflops_f32", Json::Num(device.peak_gflops_f32)),
        ("peak_gflops_f64", Json::Num(device.peak_gflops_f64)),
        ("peak_mem_bw", Json::Num(device.peak_mem_bw)),
        ("measured_mem_bw_f32", Json::Num(device.measured_mem_bw_f32)),
        ("measured_mem_bw_f64", Json::Num(device.measured_mem_bw_f64)),
        ("shared_mem_per_sm", int(device.shared_mem_per_sm)),
        ("max_threads_per_sm", int(device.max_threads_per_sm)),
        ("registers_per_sm", int(device.registers_per_sm)),
    ])
}

/// Response body for `/devices`: every registered profile, in id order,
/// plus the default the router uses for device-defaulting endpoints.
#[must_use]
pub(crate) fn devices_response(registry: &DeviceRegistry) -> Json {
    Json::obj(vec![
        ("default", Json::Str(registry.default_id().to_string())),
        (
            "devices",
            Json::Arr(
                registry
                    .devices()
                    .map(|(id, device)| device_json(id, device))
                    .collect(),
            ),
        ),
    ])
}

/// Most cells an `/execute` grid may hold, its boundary ring included
/// (2^26: 512 MiB per double-precision copy). Checked before anything
/// allocates, so an oversized interior is a 400 rather than an
/// allocation the process cannot survive.
pub(crate) const MAX_EXECUTE_CELLS: usize = 1 << 26;

/// Extract an `/execute` body into a [`BatchJob`] on the seeded
/// deterministic initial grid, planned under the body's `"scheme"`.
///
/// # Errors
///
/// Rejects whatever [`pipeline_from`], [`problem_from`], [`config_from`]
/// or [`seed_from`] rejects, and a padded grid of more than
/// [`MAX_EXECUTE_CELLS`] cells.
pub(crate) fn batch_job_from(spec: &Json) -> Result<BatchJob, ApiError> {
    let pipeline = pipeline_from(spec)?;
    let problem = problem_from(spec, &pipeline)?;
    let ring = 2 * pipeline.def().radius() as u128;
    let cells = problem.interior().iter().fold(1u128, |cells, &extent| {
        cells.saturating_mul(extent as u128 + ring)
    });
    if cells > MAX_EXECUTE_CELLS as u128 {
        return Err(ApiError::new(format!(
            "the grid of \"interior\" plus its boundary ring exceeds the \
             {MAX_EXECUTE_CELLS}-cell limit of /execute"
        )));
    }
    let config = config_from(spec)?;
    let seed = seed_from(spec)?;
    Ok(BatchJob::new(
        pipeline.def().clone(),
        problem.interior(),
        problem.time_steps(),
        config,
    )
    .with_init(GridInit::Hash { seed })
    .with_scheme(pipeline.scheme()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn pipeline_accepts_benchmark_or_source() {
        let by_name = parse(r#"{"benchmark":"j2d5pt"}"#).unwrap();
        assert_eq!(pipeline_from(&by_name).unwrap().def().name(), "j2d5pt");

        let source = an5d::An5d::benchmark("star2d1r").unwrap().c_source();
        let body = Json::obj(vec![
            ("source", Json::str(&source)),
            ("name", Json::str("star2d1r")),
        ]);
        assert_eq!(pipeline_from(&body).unwrap().def().radius(), 1);

        assert!(pipeline_from(&parse("{}").unwrap()).is_err());
        assert!(pipeline_from(&parse(r#"{"benchmark":"nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn config_extraction_round_trips() {
        let body =
            parse(r#"{"config":{"bt":4,"bs":[128],"hsn":256,"precision":"single"}}"#).unwrap();
        let config = config_from(&body).unwrap();
        assert_eq!(config.bt(), 4);
        assert_eq!(config.bs(), &[128]);
        assert_eq!(config.hsn(), Some(256));
        assert_eq!(
            codec::config_to_json(&config).render(),
            r#"{"bt":4,"bs":[128],"hsn":256,"precision":"single"}"#
        );

        let no_hsn = parse(r#"{"config":{"bt":1,"bs":[32],"precision":"double"}}"#).unwrap();
        assert_eq!(config_from(&no_hsn).unwrap().hsn(), None);

        let bad = parse(r#"{"config":{"bt":0,"bs":[32],"precision":"double"}}"#).unwrap();
        assert!(config_from(&bad).is_err());
    }

    #[test]
    fn device_and_space_defaults() {
        let registry = DeviceRegistry::standard();
        let empty = parse("{}").unwrap();
        assert_eq!(
            device_from(&empty, &registry).unwrap(),
            None,
            "no device → router decides"
        );
        for (spelling, id) in [
            ("p100", "p100"),
            ("Tesla_V100", "v100"),
            ("A100", "a100"),
            ("small", "small"),
        ] {
            let body = Json::obj(vec![("device", Json::str(spelling))]);
            assert_eq!(
                device_from(&body, &registry).unwrap(),
                Some(DeviceId::new(id))
            );
        }
        // Unknown names are rejected with the registry-generated set: the
        // message tracks registered profiles instead of a hardcoded pair.
        let err = device_from(&parse(r#"{"device":"h100"}"#).unwrap(), &registry).unwrap_err();
        assert_eq!(
            err.message,
            format!("\"device\" must be one of {}", registry.accepted_names())
        );
        assert!(
            err.message.contains("\"a100\"") && err.message.contains("\"v100\""),
            "{err}"
        );
        assert!(device_from(&parse(r#"{"device":7}"#).unwrap(), &registry).is_err());

        let space = space_from(&empty, 2, Precision::Single).unwrap();
        assert!(!space.is_empty());
        assert!(space_from(&parse(r#"{"space":"huge"}"#).unwrap(), 2, Precision::Single).is_err());
    }

    #[test]
    fn devices_response_lists_the_fleet_in_id_order() {
        let registry = DeviceRegistry::standard();
        let rendered = devices_response(&registry).render();
        assert!(rendered.starts_with(r#"{"default":"v100""#), "{rendered}");
        let listing = &rendered[rendered.find("\"devices\"").unwrap()..];
        let positions: Vec<usize> = ["\"a100\"", "\"p100\"", "\"small\"", "\"v100\""]
            .iter()
            .map(|id| listing.find(id).unwrap_or_else(|| panic!("{id} missing")))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{rendered}");
        assert_eq!(
            devices_response(&registry).render(),
            rendered,
            "deterministic"
        );
    }

    #[test]
    fn responses_render_deterministically() {
        let pipeline = An5d::benchmark("j2d5pt").unwrap();
        let problem = pipeline.problem(&[64, 64], 8).unwrap();
        let config = BlockConfig::new(2, &[32], None, Precision::Double).unwrap();
        let plan = pipeline.plan(&problem, &config).unwrap();
        let a = plan_response(&plan).render();
        let b = plan_response(&plan).render();
        assert_eq!(a, b);
        assert!(a.contains("\"nthr\""));

        let device = GpuDevice::tesla_v100();
        let prediction = pipeline.predict(&problem, &config, &device).unwrap();
        assert_eq!(
            predict_response(&prediction).render(),
            predict_response(&prediction).render()
        );
    }

    /// `/plan` bodies byte for byte: the geometry's inline compute
    /// regions and tile counts render as the JSON arrays clients read.
    #[test]
    fn plan_bodies_are_pinned() {
        let body = |name: &str, interior: &[usize], bs: &[usize]| {
            let pipeline = An5d::benchmark(name).unwrap();
            let problem = pipeline.problem(interior, 100).unwrap();
            let config = BlockConfig::new(4, bs, Some(128), Precision::Double).unwrap();
            plan_response(&pipeline.plan(&problem, &config).unwrap()).render()
        };
        assert_eq!(
            body("j2d5pt", &[1000, 1000], &[256]),
            r#"{"stencil":"j2d5pt","scheme":"AN5D","kernel":"an5d_j2d5pt_bt4","config":{"bt":4,"bs":[256],"hsn":128,"precision":"double"},"geometry":{"nthr":256,"halo_per_side":4,"compute_region":[248],"tiles_per_dim":[5],"thread_blocks":5,"stream_blocks":8,"total_thread_blocks":40},"resources":{"registers_per_thread":58,"shared_buffers":2,"shared_bytes_per_block":4096}}"#
        );
        assert_eq!(
            body("star3d1r", &[200, 300, 250], &[32, 64]),
            r#"{"stencil":"star3d1r","scheme":"AN5D","kernel":"an5d_star3d1r_bt4","config":{"bt":4,"bs":[32,64],"hsn":128,"precision":"double"},"geometry":{"nthr":2048,"halo_per_side":4,"compute_region":[24,56],"tiles_per_dim":[13,5],"thread_blocks":65,"stream_blocks":2,"total_thread_blocks":130},"resources":{"registers_per_thread":58,"shared_buffers":2,"shared_bytes_per_block":32768}}"#
        );
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(error_body("boom \"x\""), r#"{"error":"boom \"x\""}"#);
    }
}
