//! Search spaces and sampled configurations.
//!
//! A hyperparameter search space is a named collection of one-dimensional
//! distributions ([`Dim`]); sampling it yields a [`Config`] mapping each
//! hyperparameter name to a value. The paper expects the user to provide
//! the space and sampling method (§2); random sampling is implemented here.

use rb_core::{Prng, RbError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// One sampled hyperparameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// A continuous value (learning rate, weight decay, ...).
    Float(f64),
    /// An integer value (layer count, warm-up steps, ...).
    Int(i64),
    /// A categorical choice (optimizer name, schedule, ...).
    Choice(String),
}

impl ConfigValue {
    /// Returns the float value, converting integers; `None` for choices.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ConfigValue::Float(v) => Some(*v),
            ConfigValue::Int(v) => Some(*v as f64),
            ConfigValue::Choice(_) => None,
        }
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigValue::Float(v) => write!(f, "{v:.6}"),
            ConfigValue::Int(v) => write!(f, "{v}"),
            ConfigValue::Choice(s) => write!(f, "{s}"),
        }
    }
}

/// One dimension of a search space.
#[derive(Debug, Clone, PartialEq)]
pub enum Dim {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-uniform on `[lo, hi)`; the standard choice for learning rates.
    LogUniform {
        /// Inclusive lower bound (must be positive).
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Uniform on `[lo, hi)` rounded to the nearest multiple of `q`.
    QUniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// Quantum.
        q: f64,
    },
    /// Uniform integer on `[lo, hi]`.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Uniform choice over the listed options.
    Choice(Vec<String>),
}

impl Dim {
    fn validate(&self, name: &str) -> Result<()> {
        let bad = |msg: String| Err(RbError::InvalidConfig(format!("dim `{name}`: {msg}")));
        match self {
            Dim::Uniform { lo, hi } | Dim::QUniform { lo, hi, .. } if lo >= hi => {
                bad(format!("empty range [{lo}, {hi})"))
            }
            Dim::QUniform { q, .. } if *q <= 0.0 => bad(format!("non-positive quantum {q}")),
            Dim::LogUniform { lo, hi } if *lo <= 0.0 || lo >= hi => {
                bad(format!("log-uniform needs 0 < lo < hi, got [{lo}, {hi})"))
            }
            Dim::Int { lo, hi } if lo > hi => bad(format!("empty range [{lo}, {hi}]")),
            Dim::Choice(opts) if opts.is_empty() => bad("no options".into()),
            _ => Ok(()),
        }
    }

    fn sample(&self, rng: &mut Prng) -> ConfigValue {
        match self {
            Dim::Uniform { lo, hi } => ConfigValue::Float(rng.uniform(*lo, *hi)),
            Dim::LogUniform { lo, hi } => ConfigValue::Float(rng.uniform(lo.ln(), hi.ln()).exp()),
            Dim::QUniform { lo, hi, q } => {
                let v = rng.uniform(*lo, *hi);
                ConfigValue::Float((v / q).round() * q)
            }
            Dim::Int { lo, hi } => {
                ConfigValue::Int(lo + rng.next_below((hi - lo + 1) as u64) as i64)
            }
            Dim::Choice(opts) => {
                ConfigValue::Choice(opts[rng.next_below(opts.len() as u64) as usize].clone())
            }
        }
    }
}

/// A sampled hyperparameter configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    values: BTreeMap<String, ConfigValue>,
}

impl Config {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Config::default()
    }

    /// Sets a value, replacing any existing one.
    pub fn set(&mut self, name: impl Into<String>, value: ConfigValue) {
        self.values.insert(name.into(), value);
    }

    /// Builder-style [`Config::set`] for a float value.
    pub fn with_f64(mut self, name: impl Into<String>, v: f64) -> Self {
        self.set(name, ConfigValue::Float(v));
        self
    }

    /// Returns the raw value, if present.
    pub fn get(&self, name: &str) -> Option<&ConfigValue> {
        self.values.get(name)
    }

    /// Returns a numeric value, if present and numeric.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(ConfigValue::as_f64)
    }

    /// Returns a numeric value or `default` when absent.
    pub fn get_f64_or(&self, name: &str, default: f64) -> f64 {
        self.get_f64(name).unwrap_or(default)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ConfigValue)> {
        self.values.iter()
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A named collection of dimensions with validation and sampling.
///
/// # Examples
///
/// ```
/// use rb_hpo::space::{Dim, SearchSpace};
/// use rb_core::Prng;
///
/// let space = SearchSpace::new()
///     .add("lr", Dim::LogUniform { lo: 1e-4, hi: 1e-1 })
///     .add("momentum", Dim::Uniform { lo: 0.8, hi: 0.99 })
///     .build()
///     .unwrap();
/// let mut rng = Prng::seed_from_u64(0);
/// let cfg = space.sample(&mut rng);
/// assert!(cfg.get_f64("lr").unwrap() < 1e-1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    dims: Vec<(String, Dim)>,
}

/// Builder for [`SearchSpace`].
#[derive(Debug, Clone, Default)]
pub struct SearchSpaceBuilder {
    dims: Vec<(String, Dim)>,
}

impl SearchSpace {
    /// Starts building a space.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> SearchSpaceBuilder {
        SearchSpaceBuilder::default()
    }

    /// Samples one configuration.
    pub fn sample(&self, rng: &mut Prng) -> Config {
        let mut cfg = Config::new();
        for (name, dim) in &self.dims {
            cfg.set(name.clone(), dim.sample(rng));
        }
        cfg
    }

    /// Samples `n` configurations.
    pub fn sample_n(&self, n: usize, rng: &mut Prng) -> Vec<Config> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Iterates over `(name, dim)` pairs in definition order.
    pub fn dims(&self) -> impl Iterator<Item = (&str, &Dim)> {
        self.dims.iter().map(|(n, d)| (n.as_str(), d))
    }
}

impl SearchSpaceBuilder {
    /// Adds a dimension.
    pub fn add(mut self, name: impl Into<String>, dim: Dim) -> Self {
        self.dims.push((name.into(), dim));
        self
    }

    /// Validates and builds the space.
    ///
    /// # Errors
    ///
    /// Returns [`RbError::InvalidConfig`] on an empty space, duplicate
    /// names, or malformed dimension bounds.
    pub fn build(self) -> Result<SearchSpace> {
        if self.dims.is_empty() {
            return Err(RbError::InvalidConfig(
                "search space has no dimensions".into(),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, dim) in &self.dims {
            if !seen.insert(name.as_str()) {
                return Err(RbError::InvalidConfig(format!("duplicate dim `{name}`")));
            }
            dim.validate(name)?;
        }
        Ok(SearchSpace { dims: self.dims })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-5, hi: 1e-1 })
            .add("wd", Dim::Uniform { lo: 0.0, hi: 1e-3 })
            .add("layers", Dim::Int { lo: 2, hi: 6 })
            .add(
                "bs_mult",
                Dim::QUniform {
                    lo: 0.5,
                    hi: 4.0,
                    q: 0.5,
                },
            )
            .add("opt", Dim::Choice(vec!["sgd".into(), "adam".into()]))
            .build()
            .unwrap()
    }

    #[test]
    fn samples_respect_bounds() {
        let s = space();
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..1000 {
            let c = s.sample(&mut rng);
            let lr = c.get_f64("lr").unwrap();
            assert!((1e-5..1e-1).contains(&lr));
            let wd = c.get_f64("wd").unwrap();
            assert!((0.0..1e-3).contains(&wd));
            let layers = c.get_f64("layers").unwrap();
            assert!((2.0..=6.0).contains(&layers));
            let bm = c.get_f64("bs_mult").unwrap();
            assert!((bm / 0.5 - (bm / 0.5).round()).abs() < 1e-9, "quantized");
            match c.get("opt").unwrap() {
                ConfigValue::Choice(o) => assert!(o == "sgd" || o == "adam"),
                other => panic!("expected choice, got {other:?}"),
            }
        }
    }

    #[test]
    fn loguniform_covers_decades() {
        let s = SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-4, hi: 1e0 })
            .build()
            .unwrap();
        let mut rng = Prng::seed_from_u64(2);
        let mut decades = [0usize; 4];
        for _ in 0..4000 {
            let lr = s.sample(&mut rng).get_f64("lr").unwrap();
            let d = (-lr.log10()).ceil() as usize; // 1..=4
            decades[d.clamp(1, 4) - 1] += 1;
        }
        // Log-uniform spreads mass roughly evenly over decades.
        for (i, &count) in decades.iter().enumerate() {
            assert!(
                (800..1200).contains(&count),
                "decade {i} got {count} of 4000"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = space();
        let a = s.sample(&mut Prng::seed_from_u64(9));
        let b = s.sample(&mut Prng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_n_returns_distinct_configs() {
        let s = space();
        let mut rng = Prng::seed_from_u64(3);
        let cfgs = s.sample_n(8, &mut rng);
        assert_eq!(cfgs.len(), 8);
        assert_ne!(cfgs[0], cfgs[1]);
    }

    #[test]
    fn builder_rejects_bad_spaces() {
        assert!(SearchSpace::new().build().is_err());
        assert!(SearchSpace::new()
            .add("x", Dim::Uniform { lo: 1.0, hi: 1.0 })
            .build()
            .is_err());
        assert!(SearchSpace::new()
            .add("x", Dim::LogUniform { lo: 0.0, hi: 1.0 })
            .build()
            .is_err());
        assert!(SearchSpace::new()
            .add("x", Dim::Int { lo: 5, hi: 2 })
            .build()
            .is_err());
        assert!(SearchSpace::new()
            .add("x", Dim::Choice(vec![]))
            .build()
            .is_err());
        assert!(SearchSpace::new()
            .add("x", Dim::Uniform { lo: 0.0, hi: 1.0 })
            .add("x", Dim::Uniform { lo: 0.0, hi: 1.0 })
            .build()
            .is_err());
        assert!(SearchSpace::new()
            .add(
                "x",
                Dim::QUniform {
                    lo: 0.0,
                    hi: 1.0,
                    q: 0.0
                }
            )
            .build()
            .is_err());
    }

    #[test]
    fn config_accessors() {
        let mut c = Config::new();
        c.set("lr", ConfigValue::Float(0.1));
        c.set("opt", ConfigValue::Choice("sgd".into()));
        c.set("n", ConfigValue::Int(4));
        assert_eq!(c.get_f64("lr"), Some(0.1));
        assert_eq!(c.get_f64("n"), Some(4.0));
        assert_eq!(c.get_f64("opt"), None);
        assert_eq!(c.get_f64_or("missing", 7.0), 7.0);
        assert_eq!(c.iter().count(), 3);
        let shown = c.to_string();
        assert!(shown.contains("lr=0.1"));
        assert!(shown.contains("opt=sgd"));
    }

    #[test]
    fn with_f64_builder() {
        let c = Config::new().with_f64("lr", 0.05);
        assert_eq!(c.get_f64("lr"), Some(0.05));
    }
}
