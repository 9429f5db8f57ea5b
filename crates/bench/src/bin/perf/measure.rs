//! One workload in this process: set-up (several times), one verified
//! pass that fixes the reference digests, an untimed warm-up, then timed
//! rounds.
//!
//! The load generator is a single closed-loop client: it issues the next
//! operation only when the previous one returned, on one thread; the
//! engine under test uses its default thread count. Rounds split the
//! time budget evenly; a round runs whole passes, at least one, and stops
//! before a pass that would overrun its end, so every round sees the same
//! mix of inputs.
//!
//! Timings are per input: each input of the pass is repeated once per
//! pass, and the run keeps each input's fastest repetition. On a shared
//! host, interference from other tenants only ever adds time, so the
//! fastest repetition is the estimate of the program's own cost that
//! varies least between runs; `op_ms.p50`/`p90` are then percentiles
//! over the pass's inputs. The same statistics per round give the
//! spread `perf compare` weighs a change against.

use crate::spec::BenchSpec;
use crate::stats::{percentile, resolvable_tail, sorted, Fnv, Summary};
use crate::workloads::{self, Layers, Res, Workload};
use rb_obs::json::{write_json_f64, write_json_str};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Timed rounds per run.
const ROUNDS: usize = 9;
/// Untimed warm-up after the verified pass.
const WARMUP: Duration = Duration::from_secs(1);
/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Pass digests for [`DEFAULT_SEED`] at full size. Any change to what a
/// workload computes moves its digest; re-pin only for an intended
/// output change.
const PINNED: [(&str, u64); 4] = [
    ("plan_cold", 0xccbf_67a3_f33c_dc79),
    ("adaptive_drift", 0xc71e_5f19_c98f_a083),
    ("serve_fleet", 0xc69a_0f7a_40c9_4bab),
    ("trace_replay", 0x7935_22a0_2b92_ecb8),
];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny passes, one pass per round, one set-up: a smoke test.
    pub quick: bool,
}

/// One reported metric: the run's value, the same statistic per round
/// (or per set-up), and how many inputs or operations stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub rounds: Vec<f64>,
    pub samples: usize,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub opts: Opts,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub pass_len: usize,
    pub passes: usize,
    pub ops_per_round: Vec<usize>,
    pub digest: u64,
    pub pinned: Option<u64>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Every check passed, the pinned digest included.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts attempts and failures; keeps the first few error messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records one attempt; `Some(digest)` when it succeeded and matched
    /// `expect` (any digest when `expect` is `None`).
    fn check(&mut self, i: usize, got: Res<u64>, expect: Option<u64>) -> Option<u64> {
        self.attempted += 1;
        match got {
            Ok(d) if expect.map_or(true, |e| e == d) => Some(d),
            Ok(d) => {
                self.fail(format!(
                    "op {i}: digest {d:#018x} differs from the verified pass"
                ));
                None
            }
            Err(e) => {
                self.fail(format!("op {i}: {e}"));
                None
            }
        }
    }
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Checks the pass digest against [`PINNED`] when a pin applies (the
/// default seed at full size). The pin is one more check, counted like
/// any operation. Returns the pinned digest.
fn check_pinned(opts: &Opts, digest: u64, tally: &mut Tally) -> Option<u64> {
    let (_, pinned) = PINNED
        .iter()
        .find(|(w, _)| opts.seed == DEFAULT_SEED && !opts.quick && *w == opts.workload)?;
    tally.attempted += 1;
    if *pinned != digest {
        tally.fail(format!(
            "pass digest {digest:#018x} differs from the pinned {pinned:#018x}"
        ));
    }
    Some(*pinned)
}

/// One untraced pass: checks every operation against its reference
/// digest and lowers each input's fastest time in every `best` slice.
/// Returns the pass's total host nanoseconds.
fn run_pass(
    wl: &mut dyn Workload,
    reference: &[Option<u64>],
    tally: &mut Tally,
    best: &mut [&mut [u64]],
) -> u64 {
    let mut total = 0;
    for (i, &expect) in reference.iter().enumerate() {
        let op = wl.run(i);
        if let Ok(o) = &op {
            total += o.nanos;
            for b in best.iter_mut() {
                b[i] = b[i].min(o.nanos);
            }
        }
        tally.check(i, op.map(|o| o.digest), expect);
    }
    total
}

/// Percentiles (ms) and throughput over per-input fastest times;
/// inputs that never succeeded are left out.
struct Fastest {
    p50: f64,
    p90: f64,
    p99: f64,
    items_per_s: f64,
}

impl Fastest {
    fn of(best: &[u64], items_per_op: f64) -> Self {
        let done: Vec<u64> = best.iter().copied().filter(|&b| b != u64::MAX).collect();
        let lat = sorted(&done.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
        let total_s = done.iter().sum::<u64>().max(1) as f64 / 1e9;
        Fastest {
            p50: percentile(&lat, 0.5),
            p90: percentile(&lat, 0.9),
            p99: percentile(&lat, 0.99),
            items_per_s: done.len() as f64 * items_per_op / total_s,
        }
    }
}

/// Runs `opts.workload` and returns every metric `spec` defines for the
/// pass (end-to-end untraced, per-layer traced).
///
/// # Errors
///
/// Set-up failures; per-operation failures are counted, not returned.
pub fn measure(opts: &Opts, spec: &BenchSpec) -> Res<Outcome> {
    let setup = || -> Res<(Box<dyn Workload>, f64)> {
        let start = Instant::now();
        let wl = workloads::setup(&opts.workload, opts.seed, opts.quick)?;
        Ok((wl, start.elapsed().as_secs_f64()))
    };
    let (mut wl, first) = setup()?;
    let mut setup_s = vec![first];
    let pass = wl.pass_len();
    let mut tally = Tally::default();

    // The verified pass fixes every operation's reference digest.
    let reference: Vec<Option<u64>> = (0..pass)
        .map(|i| tally.check(i, wl.verify(i), None))
        .collect();
    let mut pass_digest = Fnv::default();
    for d in &reference {
        pass_digest.u64(d.unwrap_or(0));
    }

    // Untimed passes until allocator, caches and lazily built state have
    // settled; users of a long-running service see the settled state.
    let warm = Instant::now();
    while !opts.quick && warm.elapsed() < WARMUP {
        run_pass(&mut *wl, &reference, &mut tally, &mut []);
    }

    let rounds = if opts.quick { 2 } else { ROUNDS };
    let budget = Duration::from_secs_f64(opts.seconds / rounds as f64);
    let mut layers = Layers::default();
    let mut best = vec![u64::MAX; pass];
    let mut per_round = Vec::new();
    let mut overhead = Vec::new();
    let mut ops_per_round = Vec::new();
    let mut passes = 0;
    let run_start = Instant::now();
    for round in 1..=rounds {
        // One more set-up per round, so that `setup_s` samples the host
        // at as many moments as the rounds do.
        if !opts.quick {
            setup_s.push(setup()?.1);
        }
        let mut round_best = vec![u64::MAX; pass];
        let (mut untraced_ns, mut traced_ns, mut ops) = (0u64, 0u64, 0);
        loop {
            let pass_start = Instant::now();
            untraced_ns += run_pass(
                &mut *wl,
                &reference,
                &mut tally,
                &mut [&mut best, &mut round_best],
            );
            passes += 1;
            ops += pass;
            if opts.traced {
                for (i, &expect) in reference.iter().enumerate() {
                    let op = wl.run_traced(i, &mut layers);
                    if let Ok(o) = &op {
                        traced_ns += o.nanos;
                        layers.add("ops", 1.0);
                        layers.add("op_ns", o.nanos as f64);
                    }
                    tally.check(i, op.map(|o| o.digest), expect);
                }
            }
            // Round `k` ends at k/rounds of the run; stop before a pass
            // that would overrun that point.
            if opts.quick || run_start.elapsed() + pass_start.elapsed() > budget * round as u32 {
                break;
            }
        }
        per_round.push(Fastest::of(&round_best, wl.items_per_op()));
        overhead.push(traced_ns as f64 / untraced_ns.max(1) as f64);
        ops_per_round.push(ops);
    }

    let run = Fastest::of(&best, wl.items_per_op());
    let rounds_of = |f: fn(&Fastest) -> f64| per_round.iter().map(f).collect::<Vec<_>>();
    let mut values: Vec<(&str, f64, Vec<f64>, usize)> = Vec::new();
    if opts.traced {
        let ratio = Summary::of(&overhead).median;
        values.push(("trace_overhead", ratio, overhead, passes));
        values.push(("tail.op_ms.p99", run.p99, rounds_of(|f| f.p99), pass));
        for (name, v) in layers.metrics() {
            values.push((name, v, vec![v], layers.ops()));
        }
    } else {
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        values.push(("op_ms.p50", run.p50, rounds_of(|f| f.p50), pass));
        values.push(("op_ms.p90", run.p90, rounds_of(|f| f.p90), pass));
        values.push((
            "items_per_s",
            run.items_per_s,
            rounds_of(|f| f.items_per_s),
            pass,
        ));
        let setup = Summary::of(&setup_s).median;
        let setups = setup_s.len();
        values.push(("setup_s", setup, setup_s, setups));
        values.push(("peak_rss_mb", rss, vec![rss], 1));
    }
    let defs = if opts.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = defs
        .iter()
        .map(|d| {
            let (_, value, rounds, samples) = values
                .iter()
                .find(|v| v.0 == d.name)
                .ok_or_else(|| format!("workload produced no value for `{}`", d.name))?;
            Ok(Metric {
                name: d.name.clone(),
                unit: d.unit.clone(),
                value: *value,
                rounds: rounds.clone(),
                samples: *samples,
            })
        })
        .collect::<Res<Vec<_>>>()?;

    let digest = pass_digest.finish();
    let pinned = check_pinned(opts, digest, &mut tally);
    Ok(Outcome {
        opts: opts.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        pass_len: pass,
        passes,
        ops_per_round,
        digest,
        pinned,
        metrics,
    })
}

impl Outcome {
    /// The full record `perf run` collects: each metric's value, its
    /// per-round values with their median, min and max, and counts.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"workload\": ");
        write_json_str(&mut out, &self.opts.workload);
        let _ = write!(
            out,
            ", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"quick\": {}, \"nproc\": {}, \
             \"rounds\": {}, \"pass_len\": {}, \"passes\": {}, \"ops_per_round\": {:?}, \
             \"tail_resolvable\": ",
            self.opts.seed,
            self.opts.seconds,
            self.opts.traced,
            self.opts.quick,
            nproc(),
            self.ops_per_round.len(),
            self.pass_len,
            self.passes,
            self.ops_per_round,
        );
        write_json_f64(
            &mut out,
            resolvable_tail(self.pass_len, 10).unwrap_or(f64::NAN),
        );
        let _ = write!(
            out,
            ", \"digest\": \"{:#018x}\", \"pinned\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"errors\": [",
            self.digest,
            self.pinned
                .map_or("null".to_string(), |p| format!("\"{p:#018x}\"")),
            self.correct(),
            self.attempted,
            self.failed,
        );
        for (k, e) in self.errors.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            write_json_str(&mut out, e);
        }
        out.push_str("], \"metrics\": {");
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let s = Summary::of(&m.rounds);
            write_json_str(&mut out, &m.name);
            out.push_str(": {\"unit\": ");
            write_json_str(&mut out, &m.unit);
            for (key, v) in [
                ("value", m.value),
                ("median", s.median),
                ("min", s.min),
                ("max", s.max),
            ] {
                let _ = write!(out, ", \"{key}\": ");
                write_json_f64(&mut out, v);
            }
            let _ = write!(
                out,
                ", \"n\": {}, \"samples\": {}, \"rounds\": [",
                m.rounds.len(),
                m.samples
            );
            for (j, v) in m.rounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_f64(&mut out, *v);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and each
    /// metric's value with its unit.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            write_json_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            write_json_f64(&mut out, m.value);
            out.push_str(", \"unit\": ");
            write_json_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_obs::json::parse_json;

    fn quick(workload: &str, traced: bool) -> Outcome {
        let opts = Opts {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            traced,
            quick: true,
        };
        let out = measure(&opts, &crate::spec::load()).expect("quick run sets up");
        assert!(out.correct(), "{workload}: {:?}", out.errors);
        assert!(out.attempted > 0);
        out
    }

    /// Every workload at smoke size: untraced and traced passes agree
    /// on the outputs, and both print every metric the definition names.
    fn smoke(workload: &str) {
        let spec = crate::spec::load();
        let plain = quick(workload, false);
        let traced = quick(workload, true);
        assert_eq!(
            plain.digest, traced.digest,
            "{workload}: traced outputs differ"
        );
        for (out, defs) in [(&plain, &spec.end_to_end), (&traced, &spec.per_layer)] {
            let line = parse_json(&out.result_json()).expect("result line is JSON");
            let metrics = line.get("metrics").expect("metrics object");
            for d in defs {
                let m = metrics
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("missing {}", d.name));
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
            }
            parse_json(&out.detail_json()).expect("detail record is JSON");
        }
    }

    #[test]
    fn a_pinned_digest_mismatch_is_a_failed_check() {
        let opts = Opts {
            workload: "plan_cold".to_string(),
            seed: DEFAULT_SEED,
            seconds: 0.0,
            traced: false,
            quick: false,
        };
        let pin = PINNED[0].1;
        let mut tally = Tally::default();
        assert_eq!(check_pinned(&opts, pin, &mut tally), Some(pin));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        assert_eq!(check_pinned(&opts, pin ^ 1, &mut tally), Some(pin));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        // Other seeds and the smoke size carry no pin.
        for other in [
            Opts {
                seed: 2,
                ..opts.clone()
            },
            Opts {
                quick: true,
                ..opts.clone()
            },
        ] {
            assert_eq!(check_pinned(&other, 0, &mut tally), None);
        }
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn quick_plan_cold() {
        smoke("plan_cold");
    }

    #[test]
    fn quick_adaptive_drift() {
        smoke("adaptive_drift");
    }

    #[test]
    fn quick_serve_fleet() {
        smoke("serve_fleet");
    }

    #[test]
    fn quick_trace_replay() {
        smoke("trace_replay");
    }
}
