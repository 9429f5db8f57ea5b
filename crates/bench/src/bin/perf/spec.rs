//! The benchmark definition, read from the repository's `BENCHMARK.json`
//! at compile time so metric names, units and regression bounds have a
//! single source.

use rb_obs::json::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric: its name, unit, direction and regression bound (a share
/// of the parent's median; end-to-end metrics only).
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key}: metric without string `{k}`"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!(
                    "{key}: `better` must be lower or higher, got {better}"
                ));
            }
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Parses a benchmark definition.
pub fn parse(text: &str) -> Result<BenchSpec, String> {
    let doc = parse_json(text)?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("`run_seconds` must be a whole number")?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("`workloads` must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload without a name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(BenchSpec {
        run_seconds,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// The definition compiled into this binary.
pub fn load() -> BenchSpec {
    parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the spec tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_definition_parses_and_bounds_every_e2e_metric() {
        let spec = load();
        assert!(spec.run_seconds >= 1);
        assert_eq!(
            spec.workloads,
            ["plan_cold", "adaptive_drift", "serve_fleet", "trace_replay"]
        );
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every e2e metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"run_seconds": 1, "workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "up"}], "per_layer": []}"#).is_err());
    }
}
