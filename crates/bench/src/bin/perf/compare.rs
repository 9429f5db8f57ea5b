//! `perf compare BASE.json NEW.json`: one row per workload × end-to-end
//! metric, classed against the metric's regression bound and the round
//! spread of both sides.

use crate::spec::BenchSpec;
use crate::stats::Summary;
use rb_obs::json::{parse_json, Json};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Better,
    Worse,
    Same,
    /// The rounds scatter wider than the bound and the two sides
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Better => "better",
            Class::Worse => "worse",
            Class::Same => "same",
            Class::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reported value and its
/// per-round values.
#[derive(Debug, Clone)]
pub struct Side {
    pub value: f64,
    pub rounds: Vec<f64>,
}

/// Classes `new` against `base`. Returns the class and the relative
/// change of the value, signed so that positive is worse.
///
/// A shift beyond `bound` is better or worse; within it, same. When
/// either side's rounds spread wider than `bound`, the shift counts only
/// if the two sides' round ranges do not overlap, otherwise it is
/// unresolved.
pub fn classify(base: &Side, new: &Side, bound: f64, higher_is_better: bool) -> (Class, f64) {
    let (b, n) = (Summary::of(&base.rounds), Summary::of(&new.rounds));
    let change = if base.value == 0.0 {
        0.0
    } else {
        (new.value - base.value) / base.value.abs()
    };
    let worse = if higher_is_better { -change } else { change };
    let disjoint = n.max < b.min || n.min > b.max;
    let class = if b.spread().max(n.spread()) > bound && !disjoint {
        Class::Unresolved
    } else if worse > bound {
        Class::Worse
    } else if worse < -bound {
        Class::Better
    } else {
        Class::Same
    };
    (class, worse)
}

/// The untraced run of `workload` in a results file.
fn find_run<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("traced").and_then(Json::as_bool) == Some(false)
    })
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        rounds: m
            .get("rounds")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?,
    })
}

fn failed_frac(run: &Json) -> f64 {
    let get = |k| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Compares two `perf run` results files. Returns the printed table and
/// whether the new side passes: every workload and end-to-end metric of
/// `spec` present and correct, nothing worse, no higher failure rate. A
/// workload or metric missing from the base side only is reported and
/// left uncompared.
///
/// # Errors
///
/// Unparsable files.
pub fn compare(base: &str, new: &str, spec: &BenchSpec) -> Result<(String, bool), String> {
    let base = parse_json(base).map_err(|e| format!("base: {e}"))?;
    let new = parse_json(new).map_err(|e| format!("new: {e}"))?;
    let mut out = format!(
        "{:<15} {:<12} {:>12} {:>12} {:>8} {:>6}  class\n",
        "workload", "metric", "base", "new", "worse%", "bound"
    );
    let mut ok = true;
    for w in &spec.workloads {
        let Some(n) = find_run(&new, w) else {
            ok = false;
            let _ = writeln!(out, "{w:<15} missing from NEW");
            continue;
        };
        if n.get("correct").and_then(Json::as_bool) != Some(true) {
            ok = false;
            let _ = writeln!(out, "{w:<15} NEW is not correct");
        }
        let Some(b) = find_run(&base, w) else {
            let _ = writeln!(out, "{w:<15} missing from BASE");
            continue;
        };
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let Some(nv) = side(n, &m.name) else {
                ok = false;
                let _ = writeln!(out, "{w:<15} {:<12} missing from NEW", m.name);
                continue;
            };
            let Some(bv) = side(b, &m.name) else {
                let _ = writeln!(out, "{w:<15} {:<12} missing from BASE", m.name);
                continue;
            };
            let (class, worse) = classify(&bv, &nv, bound, m.higher_is_better);
            ok &= class != Class::Worse;
            let _ = writeln!(
                out,
                "{w:<15} {:<12} {:>12.4} {:>12.4} {:>+8.1} {:>5.0}%  {}",
                m.name,
                bv.value,
                nv.value,
                worse * 100.0,
                bound * 100.0,
                class.label()
            );
        }
        let (bf, nf) = (failed_frac(b), failed_frac(n));
        if nf > bf {
            ok = false;
            let _ = writeln!(out, "{w:<15} failed_frac rose: {bf} -> {nf}");
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose value is the median of its rounds.
    fn side_of(rounds: &[f64]) -> Side {
        Side {
            value: Summary::of(rounds).median,
            rounds: rounds.to_vec(),
        }
    }

    fn class(base: &[f64], new: &[f64], higher_is_better: bool) -> Class {
        classify(&side_of(base), &side_of(new), 0.1, higher_is_better).0
    }

    #[test]
    fn classification_uses_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound: same.
        assert_eq!(
            class(&base, &[10.3, 10.2, 10.4, 10.3, 10.3], false),
            Class::Same
        );
        // Beyond the bound with tight rounds: worse, or better when
        // higher is better.
        let slow = [12.0, 12.1, 11.9, 12.0, 12.2];
        assert_eq!(class(&base, &slow, false), Class::Worse);
        assert_eq!(class(&base, &slow, true), Class::Better);
        let (_, worse) = classify(&side_of(&base), &side_of(&slow), 0.1, false);
        assert!((worse - 0.2).abs() < 1e-12);
        // Rounds scattered wider than the bound, overlapping: unresolved
        // even though the value moved past the bound.
        let noisy = [9.0, 12.5, 11.5, 14.0, 12.0];
        assert_eq!(class(&base, &noisy, false), Class::Unresolved);
        // Wide but disjoint ranges still resolve.
        let far = [15.0, 18.0, 16.5, 17.0, 19.0];
        assert_eq!(class(&base, &far, false), Class::Worse);
        // Single values (peak memory) compare by the bound alone.
        assert_eq!(class(&[100.0], &[105.0], false), Class::Same);
        assert_eq!(class(&[100.0], &[111.0], false), Class::Worse);
    }

    /// A results file with every workload and end-to-end metric of the
    /// definition except `drop`. plan_cold's `op_ms.p50` takes `p50` as
    /// its rounds; every other metric reads 1.
    fn results(p50: &[f64], failed: u64, drop: &str) -> String {
        let spec = crate::spec::load();
        let runs = spec.workloads.iter().filter(|w| *w != drop).map(|w| {
            let metrics = spec.end_to_end.iter().filter(|m| m.name != drop).map(|m| {
                let rounds = if w == "plan_cold" && m.name == "op_ms.p50" {
                    p50
                } else {
                    &[1.0][..]
                };
                let list = rounds.iter().map(f64::to_string).collect::<Vec<_>>();
                format!(
                    r#""{}": {{"value": {}, "rounds": [{}]}}"#,
                    m.name,
                    Summary::of(rounds).median,
                    list.join(", ")
                )
            });
            format!(
                r#"{{"workload": "{w}", "traced": false, "correct": {}, "attempted": 100,
                  "failed": {failed}, "metrics": {{{}}}}}"#,
                failed == 0,
                metrics.collect::<Vec<_>>().join(", ")
            )
        });
        format!(r#"{{"runs": [{}]}}"#, runs.collect::<Vec<_>>().join(", "))
    }

    #[test]
    fn compare_fails_on_worse_missing_incorrect_or_more_failures() {
        let spec = crate::spec::load();
        let base = results(&[1.0, 1.0, 1.01], 0, "");
        let check = |new: &str| compare(&base, new, &spec).unwrap();
        let (table, ok) = check(&results(&[1.02, 1.0, 1.01], 0, ""));
        assert!(ok, "{table}");
        assert!(table.contains("same") && !table.contains("missing"));
        let (table, ok) = check(&results(&[1.5, 1.5, 1.51], 0, ""));
        assert!(!ok && table.contains("worse"), "{table}");
        let (table, ok) = check(&results(&[1.0, 1.0, 1.01], 3, ""));
        assert!(!ok && table.contains("failed_frac"), "{table}");
        // A workload or metric the new side lacks fails; one the base
        // side lacks is only reported.
        for drop in ["serve_fleet", "setup_s"] {
            let (table, ok) = check(&results(&[1.0], 0, drop));
            assert!(!ok && table.contains("missing from NEW"), "{table}");
            let (table, ok) = compare(&results(&[1.0], 0, drop), &base, &spec).unwrap();
            assert!(ok && table.contains("missing from BASE"), "{table}");
        }
        // So does a new side that reports itself incorrect.
        let wrong = results(&[1.0], 0, "").replacen(r#""correct": true"#, r#""correct": false"#, 1);
        let (table, ok) = check(&wrong);
        assert!(!ok && table.contains("not correct"), "{table}");
    }
}
