//! JSON (de)serialisation of tune-DB keys and tuning results.
//!
//! The vendored `serde` is a derive shim with no real serialisation, so
//! the codec is explicit. Faithfulness matters more than prettiness:
//! every `f64` goes through the [`Json`] writer's shortest-round-trip
//! rendering, which parses back to the identical bit pattern — a stored
//! [`TuningResult`] must compare equal to the freshly-tuned one, and a
//! `/tune` response rendered from a decoded result must be byte-identical
//! to the cold response.

use crate::json::Json;
use an5d_gpusim::DeviceId;
use an5d_grid::Precision;
use an5d_plan::{BlockConfig, RegisterCap};
use an5d_stencil::{StencilDef, StencilProblem};
use an5d_tuner::{SearchSpace, TunedCandidate, TuningResult};

/// A malformed or semantically invalid persisted record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid tune-DB record: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(message: impl Into<String>) -> CodecError {
    CodecError(message.into())
}

/// The persistence key of one tuning result:
/// `(stencil fingerprint, problem descriptor, device)` plus the query
/// parameters the result depends on (precision, search space, scheme).
///
/// The stencil is identified by its canonical, order-insensitive
/// [`an5d_tuner::stencil_fingerprint`] — *not* its name — so renaming a
/// benchmark keeps its history; the device by its stable [`DeviceId`] —
/// not the profile's display name — so entries survive profile renames
/// and map 1:1 onto the per-device plan-cache shards.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TuneKey {
    /// Canonical stencil fingerprint ([`an5d_tuner::stencil_fingerprint`]).
    pub stencil: u64,
    /// Interior extents, streaming dimension first.
    pub interior: Vec<usize>,
    /// Time-step count.
    pub time_steps: usize,
    /// Stable device id the result was tuned for.
    pub device: DeviceId,
    /// Cell precision of the searched configurations.
    pub precision: Precision,
    /// Canonical search-space fingerprint ([`SearchSpace::fingerprint`]).
    pub space: u64,
    /// Canonical scheme id ([`an5d_plan::FrameworkScheme::canonical_name`]).
    pub scheme: String,
}

impl TuneKey {
    /// The key for one tuning query.
    #[must_use]
    pub fn for_query(
        def: &StencilDef,
        problem: &StencilProblem,
        device: &DeviceId,
        space: &SearchSpace,
        scheme: &str,
    ) -> Self {
        Self {
            stencil: an5d_tuner::stencil_fingerprint(def),
            interior: problem.interior().to_vec(),
            time_steps: problem.time_steps(),
            device: device.clone(),
            precision: space.precision(),
            space: space.fingerprint(),
            scheme: scheme.to_string(),
        }
    }
}

fn precision_str(precision: Precision) -> &'static str {
    match precision {
        Precision::Single => "single",
        Precision::Double => "double",
    }
}

fn precision_from(value: &Json) -> Result<Precision, CodecError> {
    match value.as_str() {
        Some("single") => Ok(Precision::Single),
        Some("double") => Ok(Precision::Double),
        _ => Err(bad("\"precision\" must be \"single\" or \"double\"")),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing field \"{key}\"")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, CodecError> {
    field(obj, key)?
        .as_usize()
        .ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, CodecError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("\"{key}\" must be a number")))
}

fn usize_list(value: &Json, key: &str) -> Result<Vec<usize>, CodecError> {
    value
        .as_array()
        .ok_or_else(|| bad(format!("\"{key}\" must be an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| bad(format!("\"{key}\" entries must be non-negative integers")))
        })
        .collect()
}

/// Fingerprints are stored as fixed-width hex strings: JSON readers that
/// coerce numbers to `f64` would silently mangle a raw `u64`.
fn hex_u64(value: u64) -> Json {
    Json::Str(format!("{value:016x}"))
}

fn hex_u64_from(value: &Json, key: &str) -> Result<u64, CodecError> {
    let text = value
        .as_str()
        .ok_or_else(|| bad(format!("\"{key}\" must be a hex string")))?;
    u64::from_str_radix(text, 16).map_err(|_| bad(format!("\"{key}\" is not valid hex")))
}

/// Render a key to its JSON object form.
#[must_use]
pub(crate) fn key_to_json(key: &TuneKey) -> Json {
    Json::obj(vec![
        ("stencil", hex_u64(key.stencil)),
        ("interior", Json::usize_array(&key.interior)),
        ("steps", Json::Int(key.time_steps as i128)),
        ("device", Json::Str(key.device.to_string())),
        ("precision", Json::str(precision_str(key.precision))),
        ("space", hex_u64(key.space)),
        ("scheme", Json::str(&key.scheme)),
    ])
}

/// Parse a key back from its JSON object form.
///
/// # Errors
///
/// Rejects missing or ill-typed fields.
pub(crate) fn key_from_json(value: &Json) -> Result<TuneKey, CodecError> {
    Ok(TuneKey {
        stencil: hex_u64_from(field(value, "stencil")?, "stencil")?,
        interior: usize_list(field(value, "interior")?, "interior")?,
        time_steps: usize_field(value, "steps")?,
        device: DeviceId::new(
            field(value, "device")?
                .as_str()
                .ok_or_else(|| bad("\"device\" must be a string"))?,
        ),
        precision: precision_from(field(value, "precision")?)?,
        space: hex_u64_from(field(value, "space")?, "space")?,
        scheme: field(value, "scheme")?
            .as_str()
            .ok_or_else(|| bad("\"scheme\" must be a string"))?
            .to_string(),
    })
}

/// Render a blocking configuration to its JSON object form (also the
/// `"config"` of the service's `/plan` response).
#[must_use]
pub fn config_to_json(config: &BlockConfig) -> Json {
    Json::obj(vec![
        ("bt", Json::Int(config.bt() as i128)),
        ("bs", Json::usize_array(config.bs())),
        (
            "hsn",
            config.hsn().map_or(Json::Null, |v| Json::Int(v as i128)),
        ),
        ("precision", Json::str(precision_str(config.precision()))),
    ])
}

fn config_from_json(value: &Json) -> Result<BlockConfig, CodecError> {
    let bt = usize_field(value, "bt")?;
    let bs = usize_list(field(value, "bs")?, "bs")?;
    let hsn = match value.get("hsn") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| bad("\"hsn\" must be an integer or null"))?,
        ),
    };
    let precision = precision_from(field(value, "precision")?)?;
    BlockConfig::new(bt, &bs, hsn, precision).map_err(|e| bad(e.to_string()))
}

fn candidate_to_json(candidate: &TunedCandidate) -> Json {
    Json::obj(vec![
        ("config", config_to_json(&candidate.config)),
        (
            "register_cap",
            match candidate.register_cap {
                RegisterCap::Limit(n) => Json::Int(n as i128),
                RegisterCap::Unlimited => Json::Null,
            },
        ),
        ("predicted_gflops", Json::Num(candidate.predicted_gflops)),
        ("measured_gflops", Json::Num(candidate.measured_gflops)),
        ("measured_gcells", Json::Num(candidate.measured_gcells)),
        ("seconds", Json::Num(candidate.seconds)),
    ])
}

fn candidate_from_json(value: &Json) -> Result<TunedCandidate, CodecError> {
    let register_cap = match field(value, "register_cap")? {
        Json::Null => RegisterCap::Unlimited,
        other => RegisterCap::Limit(
            other
                .as_usize()
                .ok_or_else(|| bad("\"register_cap\" must be an integer or null"))?,
        ),
    };
    Ok(TunedCandidate {
        config: config_from_json(field(value, "config")?)?,
        register_cap,
        predicted_gflops: f64_field(value, "predicted_gflops")?,
        measured_gflops: f64_field(value, "measured_gflops")?,
        measured_gcells: f64_field(value, "measured_gcells")?,
        seconds: f64_field(value, "seconds")?,
    })
}

/// Render a tuning result to its JSON object form.
#[must_use]
pub fn result_to_json(result: &TuningResult) -> Json {
    Json::obj(vec![
        ("best", candidate_to_json(&result.best)),
        (
            "measured",
            Json::Arr(result.measured.iter().map(candidate_to_json).collect()),
        ),
        (
            "ranked_candidates",
            Json::Int(result.ranked_candidates as i128),
        ),
        (
            "total_candidates",
            Json::Int(result.total_candidates as i128),
        ),
    ])
}

/// Parse a tuning result back from its JSON object form.
///
/// The `measured_on_backend` provenance flag is stored at the *record*
/// level (as the entry's `"measured"` key — the result object's own
/// `"measured"` key is the candidate list), so a bare result decodes with
/// the simulated default; [`Record::from_payload`] restores the stored
/// provenance.
///
/// # Errors
///
/// Rejects missing/ill-typed fields and configurations the planner
/// rejects outright.
pub(crate) fn result_from_json(value: &Json) -> Result<TuningResult, CodecError> {
    let measured = field(value, "measured")?
        .as_array()
        .ok_or_else(|| bad("\"measured\" must be an array"))?
        .iter()
        .map(candidate_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TuningResult {
        best: candidate_from_json(field(value, "best")?)?,
        measured,
        ranked_candidates: usize_field(value, "ranked_candidates")?,
        total_candidates: usize_field(value, "total_candidates")?,
        measured_on_backend: false,
    })
}

/// One persisted record: the key, the result, and a non-keying benchmark
/// name *hint*.
///
/// Nothing reads the hint any more (it named the suite stencil a
/// restarting server pre-built plans for; that warm-up is gone). It stays
/// because it is part of the on-disk record format — lookups go through
/// the fingerprint key alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The lookup key.
    pub key: TuneKey,
    /// Benchmark name the result was tuned under (`None` for stencils
    /// defined from raw DSL source); written and round-tripped, never read.
    pub hint: Option<String>,
    /// The stored tuning result.
    pub result: TuningResult,
}

impl Record {
    /// Serialise to the payload bytes of one log record.
    ///
    /// The entry carries a top-level `"measured"` provenance flag — `true`
    /// when the stored result was produced by real wall-clock backend
    /// runs, `false` for the simulated flow — so warm-start consumers can
    /// tell the two apart without decoding the whole result.
    #[must_use]
    pub(crate) fn to_payload(&self) -> Vec<u8> {
        Json::obj(vec![
            ("key", key_to_json(&self.key)),
            ("hint", self.hint.as_deref().map_or(Json::Null, Json::str)),
            ("measured", Json::Bool(self.result.measured_on_backend)),
            ("result", result_to_json(&self.result)),
        ])
        .render()
        .into_bytes()
    }

    /// Parse from the payload bytes of one log record.
    ///
    /// Records written before the `"measured"` provenance flag existed
    /// decode as simulated (`measured_on_backend = false`) — exactly what
    /// they were, since only the simulated flow existed then.
    ///
    /// # Errors
    ///
    /// Rejects payloads that are not UTF-8, not JSON, or not a record.
    pub(crate) fn from_payload(payload: &[u8]) -> Result<Record, CodecError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("record payload is not UTF-8"))?;
        let value = crate::json::parse(text).map_err(|e| bad(e.to_string()))?;
        let hint = match value.get("hint") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| bad("\"hint\" must be a string or null"))?
                    .to_string(),
            ),
        };
        let measured = match value.get("measured") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("\"measured\" must be a boolean"))?,
        };
        let mut result = result_from_json(field(&value, "result")?)?;
        result.measured_on_backend = measured;
        Ok(Record {
            key: key_from_json(field(&value, "key")?)?,
            hint,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_gpusim::GpuDevice;
    use an5d_stencil::suite;
    use an5d_tuner::Tuner;

    fn sample() -> Record {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let result = Tuner::new(GpuDevice::tesla_v100())
            .tune(&def, &problem, &space)
            .unwrap();
        Record {
            key: TuneKey::for_query(&def, &problem, &DeviceId::new("v100"), &space, "an5d"),
            hint: Some("j2d5pt".to_string()),
            result,
        }
    }

    #[test]
    fn records_round_trip_bit_identically() {
        let record = sample();
        let payload = record.to_payload();
        let decoded = Record::from_payload(&payload).unwrap();
        assert_eq!(decoded, record, "every f64 must survive exactly");
        // Idempotent: re-encoding the decoded record gives the same bytes.
        assert_eq!(decoded.to_payload(), payload);
    }

    #[test]
    fn backend_measured_provenance_round_trips() {
        let mut record = sample();
        record.result.measured_on_backend = true;
        let payload = record.to_payload();
        assert!(
            std::str::from_utf8(&payload)
                .unwrap()
                .contains("\"measured\":true"),
            "the entry-level flag must be visible without decoding the result"
        );
        let decoded = Record::from_payload(&payload).unwrap();
        assert!(decoded.result.measured_on_backend);
        assert_eq!(decoded, record, "bit-identical round trip");
        assert_eq!(decoded.to_payload(), payload, "re-encode is idempotent");
    }

    #[test]
    fn legacy_payloads_without_the_measured_flag_decode_as_simulated() {
        // A record written before the provenance flag existed: strip the
        // entry-level "measured" key and decode.
        let record = sample();
        let text = String::from_utf8(record.to_payload()).unwrap();
        let legacy = text.replace("\"measured\":false,", "");
        assert_ne!(legacy, text, "the flag must have been present");
        let decoded = Record::from_payload(legacy.as_bytes()).unwrap();
        assert!(!decoded.result.measured_on_backend);
        assert_eq!(decoded, record);
    }

    #[test]
    fn a_non_boolean_measured_flag_is_rejected() {
        let record = sample();
        let text = String::from_utf8(record.to_payload()).unwrap();
        let mangled = text.replace("\"measured\":false,", "\"measured\":1,");
        assert!(Record::from_payload(mangled.as_bytes()).is_err());
    }

    #[test]
    fn a_sourceless_record_round_trips_without_a_hint() {
        let mut record = sample();
        record.hint = None;
        let decoded = Record::from_payload(&record.to_payload()).unwrap();
        assert_eq!(decoded.hint, None);
        assert_eq!(decoded, record);
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        for bad_payload in [
            &b"\xff\xfe"[..],
            b"not json",
            b"{}",
            br#"{"key":{},"result":{}}"#,
            br#"{"key":{"stencil":"xyz"},"result":{}}"#,
        ] {
            assert!(
                Record::from_payload(bad_payload).is_err(),
                "{bad_payload:?}"
            );
        }
    }

    #[test]
    fn keys_separate_every_axis() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let base = TuneKey::for_query(&def, &problem, &DeviceId::new("v100"), &space, "an5d");

        let other_device =
            TuneKey::for_query(&def, &problem, &DeviceId::new("p100"), &space, "an5d");
        assert_ne!(base, other_device);

        let other_problem = StencilProblem::new(def.clone(), &[512, 512], 100).unwrap();
        let other_problem =
            TuneKey::for_query(&def, &other_problem, &DeviceId::new("v100"), &space, "an5d");
        assert_ne!(base, other_problem);

        let other_stencil = TuneKey::for_query(
            &suite::j2d9pt(),
            &StencilProblem::new(suite::j2d9pt(), &[512, 512], 50).unwrap(),
            &DeviceId::new("v100"),
            &space,
            "an5d",
        );
        assert_ne!(base.stencil, other_stencil.stencil);

        let other_scheme =
            TuneKey::for_query(&def, &problem, &DeviceId::new("v100"), &space, "stencilgen");
        assert_ne!(base, other_scheme);
    }
}
