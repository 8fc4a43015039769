//! SPICE-anchored calibration tables for the APE composition equations.
//!
//! The paper's closed-form L2/L3/L4 composition equations are fast but
//! only "within ±20 %" of simulation (Tables 2/3/5). This crate closes
//! that loop NEMESIS-style: audit sized designs with `ape-spice`, compute
//! est/sim ratios per composition equation and metric, and persist the
//! fitted correction factors as a [`Calibration`] table keyed by
//! technology fingerprint. `ape_core::graph` applies the corrections
//! inside estimation-graph nodes, folding the table's
//! [`fingerprint`](Calibration::fingerprint) into every memo key so
//! calibrated and uncalibrated results can never alias.
//!
//! A correction is a positive multiplicative `factor`, optionally shaped
//! by low-order response-surface `terms` in the equation's spec variables
//! (see [`ape_mos::eqid`]): the applied factor is
//! `factor · exp(Σ terms[i] · vars[i])`. The identity table (no entries)
//! is guaranteed bit-identical to uncalibrated estimation.
//!
//! Construction is validating — every path into a table
//! ([`Calibration::set`], [`Calibration::from_json`], [`fit`]) rejects
//! unknown equation ids, unknown metrics, non-finite or non-positive
//! factors, and wrong-arity term vectors with a typed [`CalibError`], so
//! a table that exists is a table that can be applied.
//!
//! Tables persist as JSON through `ape-json`, the codec the daemon's wire
//! protocol uses, so a table's floats survive [`Calibration::render`] and
//! [`Calibration::parse`] bit-exactly.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ape_json as json;
use ape_mos::eqid;
use ape_mos::fingerprint::Fingerprint;
use std::collections::BTreeMap;

/// Schema version of the persisted JSON form.
pub const CALIB_SCHEMA: u64 = 1;

/// The `kind` discriminator in the persisted JSON form.
pub const CALIB_KIND: &str = "ape-calibration";

/// Typed calibration errors. Every hostile input maps to one of these —
/// the calibration layer never panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CalibError {
    /// The equation id is not in the [`eqid`] registry.
    UnknownEquation(String),
    /// The metric name is not in [`eqid::METRICS`].
    UnknownMetric {
        /// Equation the bad metric was attached to.
        equation: String,
        /// The unknown metric name.
        metric: String,
    },
    /// A correction factor was NaN, infinite, zero or negative.
    BadFactor {
        /// Equation of the offending entry.
        equation: String,
        /// Metric of the offending entry.
        metric: String,
        /// The rejected factor value.
        factor: f64,
    },
    /// A response-surface term was NaN or infinite.
    NonFiniteTerm {
        /// Equation of the offending entry.
        equation: String,
        /// Metric of the offending entry.
        metric: String,
        /// Index of the bad term.
        index: usize,
    },
    /// The term vector's length matches neither zero nor the equation's
    /// registered arity.
    WrongArity {
        /// Equation of the offending entry.
        equation: String,
        /// Metric of the offending entry.
        metric: String,
        /// The arity the registry expects.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// Merging tables fitted for different technologies.
    TechnologyMismatch {
        /// Fingerprint of the receiving table's technology.
        expected: u64,
        /// Fingerprint carried by the incoming table.
        got: u64,
    },
    /// The persisted form failed to parse or was structurally invalid.
    Parse(String),
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::UnknownEquation(id) => write!(f, "unknown equation id `{id}`"),
            CalibError::UnknownMetric { equation, metric } => {
                write!(f, "unknown metric `{metric}` for equation `{equation}`")
            }
            CalibError::BadFactor {
                equation,
                metric,
                factor,
            } => write!(
                f,
                "factor for `{equation}`/`{metric}` must be finite and positive, got {factor}"
            ),
            CalibError::NonFiniteTerm {
                equation,
                metric,
                index,
            } => write!(f, "term {index} for `{equation}`/`{metric}` is not finite"),
            CalibError::WrongArity {
                equation,
                metric,
                expected,
                got,
            } => write!(
                f,
                "`{equation}`/`{metric}` takes {expected} response-surface terms, got {got}"
            ),
            CalibError::TechnologyMismatch { expected, got } => write!(
                f,
                "technology mismatch: table is for {got:016x}, expected {expected:016x}"
            ),
            CalibError::Parse(msg) => write!(f, "calibration parse error: {msg}"),
        }
    }
}

impl std::error::Error for CalibError {}

/// One fitted correction: a positive multiplicative factor plus optional
/// response-surface terms in the equation's spec variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    factor: f64,
    terms: Vec<f64>,
}

impl Correction {
    /// The constant multiplicative factor.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The response-surface coefficients (empty for a pure factor).
    #[must_use]
    pub fn terms(&self) -> &[f64] {
        &self.terms
    }

    /// Evaluates the applied factor at `vars`:
    /// `factor · exp(Σ terms[i] · vars[i])`.
    ///
    /// A caller supplying the wrong number of variables for a non-empty
    /// term vector gets NaN — the graph layer surfaces that as a typed
    /// non-finite error rather than silently mis-shaping the correction.
    #[must_use]
    pub fn apply(&self, vars: &[f64]) -> f64 {
        if self.terms.is_empty() {
            return self.factor;
        }
        if self.terms.len() != vars.len() {
            return f64::NAN;
        }
        let dot: f64 = self.terms.iter().zip(vars).map(|(t, v)| t * v).sum();
        self.factor * dot.exp()
    }
}

/// A per-technology table of composition-equation corrections.
///
/// Identity by default: a freshly created table has no entries and
/// [`factor`](Self::factor) returns `None` for every lookup, so applying
/// it is bit-identical to not applying anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    tech_fp: u64,
    label: String,
    entries: BTreeMap<(String, String), Correction>,
    fp: u64,
}

impl Calibration {
    /// Creates an empty (identity) table for the technology with
    /// fingerprint `tech_fp`.
    #[must_use]
    pub fn identity(tech_fp: u64, label: &str) -> Self {
        let mut c = Calibration {
            tech_fp,
            label: label.to_string(),
            entries: BTreeMap::new(),
            fp: 0,
        };
        c.fp = c.compute_fingerprint();
        c
    }

    /// Inserts (or replaces) the correction for `(equation, metric)`.
    ///
    /// # Errors
    ///
    /// Rejects unknown equations/metrics, non-finite or non-positive
    /// factors, non-finite terms, and term vectors whose length is
    /// neither zero nor the equation's registered arity.
    pub fn set(
        &mut self,
        equation: &str,
        metric: &str,
        factor: f64,
        terms: &[f64],
    ) -> Result<(), CalibError> {
        let eq = eqid::lookup(equation)
            .ok_or_else(|| CalibError::UnknownEquation(equation.to_string()))?;
        if !eqid::is_metric(metric) {
            return Err(CalibError::UnknownMetric {
                equation: equation.to_string(),
                metric: metric.to_string(),
            });
        }
        if !(factor.is_finite() && factor > 0.0) {
            return Err(CalibError::BadFactor {
                equation: equation.to_string(),
                metric: metric.to_string(),
                factor,
            });
        }
        if !terms.is_empty() && terms.len() != eq.arity() {
            return Err(CalibError::WrongArity {
                equation: equation.to_string(),
                metric: metric.to_string(),
                expected: eq.arity(),
                got: terms.len(),
            });
        }
        if let Some(index) = terms.iter().position(|t| !t.is_finite()) {
            return Err(CalibError::NonFiniteTerm {
                equation: equation.to_string(),
                metric: metric.to_string(),
                index,
            });
        }
        self.entries.insert(
            (equation.to_string(), metric.to_string()),
            Correction {
                factor,
                terms: terms.to_vec(),
            },
        );
        self.fp = self.compute_fingerprint();
        Ok(())
    }

    /// Fingerprint of the technology this table was fitted for.
    #[must_use]
    pub fn technology_fingerprint(&self) -> u64 {
        self.tech_fp
    }

    /// Content fingerprint of the whole table (technology, label and
    /// every entry, bit-exactly). Folds into estimation-graph memo keys.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Human-readable table label (provenance, not identity-bearing
    /// beyond its bytes folding into the fingerprint).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of corrections in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is the identity (no corrections).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The correction for `(equation, metric)`, if present.
    #[must_use]
    pub fn correction(&self, equation: &str, metric: &str) -> Option<&Correction> {
        self.entries
            .get(&(equation.to_string(), metric.to_string()))
    }

    /// The applied factor for `(equation, metric)` at `vars`, or `None`
    /// when the table holds no correction for that pair (identity —
    /// callers skip the multiplication entirely, preserving bit-identity).
    #[must_use]
    pub fn factor(&self, equation: &str, metric: &str, vars: &[f64]) -> Option<f64> {
        self.correction(equation, metric).map(|c| c.apply(vars))
    }

    /// Iterates entries in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &Correction)> {
        self.entries
            .iter()
            .map(|((e, m), c)| (e.as_str(), m.as_str(), c))
    }

    /// Merges `other`'s corrections into `self` (staged fitting: L2 pass,
    /// then L3, then L4). Later entries win on collision.
    ///
    /// # Errors
    ///
    /// [`CalibError::TechnologyMismatch`] when the tables were fitted for
    /// different technologies.
    pub fn merge(&mut self, other: &Calibration) -> Result<(), CalibError> {
        if other.tech_fp != self.tech_fp {
            return Err(CalibError::TechnologyMismatch {
                expected: self.tech_fp,
                got: other.tech_fp,
            });
        }
        for ((e, m), c) in &other.entries {
            self.entries.insert((e.clone(), m.clone()), c.clone());
        }
        self.fp = self.compute_fingerprint();
        Ok(())
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new()
            .str(CALIB_KIND)
            .u64(CALIB_SCHEMA)
            .u64(self.tech_fp)
            .str(&self.label)
            .u64(self.entries.len() as u64);
        for ((eq, metric), c) in &self.entries {
            f = f
                .str(eq)
                .str(metric)
                .f64(c.factor)
                .u64(c.terms.len() as u64);
            for t in &c.terms {
                f = f.f64(*t);
            }
        }
        f.finish()
    }

    /// The canonical persisted form (sorted keys, shortest-roundtrip
    /// floats — rendering then parsing recovers the table bit-exactly).
    #[must_use]
    pub fn to_json(&self) -> json::Value {
        let mut corrections: BTreeMap<String, BTreeMap<String, json::Value>> = BTreeMap::new();
        for ((eq, metric), c) in &self.entries {
            let entry = json::obj([
                ("factor", json::n(c.factor)),
                (
                    "terms",
                    json::Value::Arr(c.terms.iter().map(|t| json::n(*t)).collect()),
                ),
            ]);
            corrections
                .entry(eq.clone())
                .or_default()
                .insert(metric.clone(), entry);
        }
        json::obj([
            ("schema", json::n(CALIB_SCHEMA as f64)),
            ("kind", json::s(CALIB_KIND)),
            ("technology", json::s(&format!("{:016x}", self.tech_fp))),
            ("label", json::s(&self.label)),
            (
                "corrections",
                json::Value::Obj(
                    corrections
                        .into_iter()
                        .map(|(eq, metrics)| (eq, json::Value::Obj(metrics.into_iter().collect())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the canonical JSON string form.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Reconstructs a table from its JSON form, re-validating every entry.
    ///
    /// # Errors
    ///
    /// [`CalibError::Parse`] for structural problems; the same typed
    /// errors as [`set`](Self::set) for invalid entries.
    pub fn from_json(v: &json::Value) -> Result<Self, CalibError> {
        let schema = v
            .get("schema")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| CalibError::Parse("missing `schema`".to_string()))?;
        if schema != CALIB_SCHEMA as f64 {
            return Err(CalibError::Parse(format!(
                "unsupported schema {schema}, expected {CALIB_SCHEMA}"
            )));
        }
        let kind = v
            .get("kind")
            .and_then(json::Value::as_str)
            .ok_or_else(|| CalibError::Parse("missing `kind`".to_string()))?;
        if kind != CALIB_KIND {
            return Err(CalibError::Parse(format!(
                "kind `{kind}` is not `{CALIB_KIND}`"
            )));
        }
        let tech_hex = v
            .get("technology")
            .and_then(json::Value::as_str)
            .ok_or_else(|| CalibError::Parse("missing `technology`".to_string()))?;
        let tech_fp = u64::from_str_radix(tech_hex, 16)
            .map_err(|_| CalibError::Parse(format!("bad technology fingerprint `{tech_hex}`")))?;
        let label = v
            .get("label")
            .and_then(json::Value::as_str)
            .unwrap_or_default();
        let mut table = Calibration::identity(tech_fp, label);
        let corrections = match v.get("corrections") {
            None | Some(json::Value::Null) => return Ok(table),
            Some(json::Value::Obj(m)) => m,
            Some(_) => {
                return Err(CalibError::Parse(
                    "`corrections` must be an object".to_string(),
                ))
            }
        };
        for (eq, metrics) in corrections {
            let json::Value::Obj(metrics) = metrics else {
                return Err(CalibError::Parse(format!(
                    "corrections for `{eq}` must be an object"
                )));
            };
            for (metric, entry) in metrics {
                let factor = entry
                    .get("factor")
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| {
                        CalibError::Parse(format!("`{eq}`/`{metric}` is missing a numeric factor"))
                    })?;
                let terms: Vec<f64> = match entry.get("terms") {
                    None | Some(json::Value::Null) => Vec::new(),
                    Some(json::Value::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for (i, t) in items.iter().enumerate() {
                            out.push(t.as_f64().ok_or_else(|| {
                                CalibError::Parse(format!(
                                    "`{eq}`/`{metric}` term {i} is not a number"
                                ))
                            })?);
                        }
                        out
                    }
                    Some(_) => {
                        return Err(CalibError::Parse(format!(
                            "`{eq}`/`{metric}` terms must be an array"
                        )))
                    }
                };
                table.set(eq, metric, factor, &terms)?;
            }
        }
        Ok(table)
    }

    /// Parses the JSON string form.
    ///
    /// # Errors
    ///
    /// As [`from_json`](Self::from_json).
    pub fn parse(text: &str) -> Result<Self, CalibError> {
        let v = json::parse(text).map_err(CalibError::Parse)?;
        Self::from_json(&v)
    }
}

/// One est-vs-sim observation for the fitter.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Equation id from the [`eqid`] registry.
    pub equation: String,
    /// Metric name from [`eqid::METRICS`].
    pub metric: String,
    /// The estimator's value.
    pub est: f64,
    /// The simulator's value for the same sized design.
    pub sim: f64,
}

impl Sample {
    /// Convenience constructor.
    #[must_use]
    pub fn new(equation: &str, metric: &str, est: f64, sim: f64) -> Self {
        Sample {
            equation: equation.to_string(),
            metric: metric.to_string(),
            est,
            sim,
        }
    }
}

/// Metrics the fitter never emits corrections for, because they feed back
/// into design-selection logic (the op-amp attempt fold compares
/// `gate_area_m2` against the spec ceiling): correcting them would change
/// *which* design is produced, not just the reported estimate, breaking
/// the guarantee that a fitted table tightens est/sim error on the very
/// designs it was fitted on. Hand-authored tables may still target them.
pub const FIT_EXCLUDED_METRICS: &[&str] = &["gate_area_m2"];

/// Fits a constant-factor correction table from est/sim samples.
///
/// Per `(equation, metric)` group the fitter chooses the factor `f`
/// minimizing the worst relative error `max_i |f·est_i/sim_i − 1|`: with
/// ratios `r_i = sim_i/est_i` (magnitudes), the minimax solution is the
/// harmonic combination `f = 2·r_min·r_max / (r_min + r_max)`, which makes
/// the calibrated worst error `(r_max − r_min)/(r_max + r_min)` — never
/// worse than uncalibrated, and strictly better unless `f = 1` was
/// already optimal. Samples that are non-finite, zero, or whose est and
/// sim disagree in sign are skipped (no positive factor can help them),
/// as are metrics in [`FIT_EXCLUDED_METRICS`]. Near-identity factors are
/// dropped so the table stays sparse.
///
/// The fit is deterministic: grouping is sorted, and the result depends
/// only on the multiset of samples per group.
///
/// # Errors
///
/// Rejects samples naming unknown equations or metrics — the pipeline
/// constructs samples, so an unknown id is a bug, not data.
pub fn fit(tech_fp: u64, label: &str, samples: &[Sample]) -> Result<Calibration, CalibError> {
    let mut groups: BTreeMap<(String, String), (f64, f64)> = BTreeMap::new();
    for s in samples {
        if eqid::lookup(&s.equation).is_none() {
            return Err(CalibError::UnknownEquation(s.equation.clone()));
        }
        if !eqid::is_metric(&s.metric) {
            return Err(CalibError::UnknownMetric {
                equation: s.equation.clone(),
                metric: s.metric.clone(),
            });
        }
        if FIT_EXCLUDED_METRICS.contains(&s.metric.as_str()) {
            continue;
        }
        if !(s.est.is_finite() && s.sim.is_finite()) {
            continue;
        }
        if s.est == 0.0 || s.sim == 0.0 || (s.est < 0.0) != (s.sim < 0.0) {
            continue;
        }
        let r = s.sim.abs() / s.est.abs();
        if !(r.is_finite() && r > 0.0) {
            continue;
        }
        let entry = groups
            .entry((s.equation.clone(), s.metric.clone()))
            .or_insert((r, r));
        entry.0 = entry.0.min(r);
        entry.1 = entry.1.max(r);
    }
    let mut table = Calibration::identity(tech_fp, label);
    for ((eq, metric), (rmin, rmax)) in groups {
        let f = 2.0 * rmin * rmax / (rmin + rmax);
        if !(f.is_finite() && f > 0.0) || (f - 1.0).abs() <= 1e-12 {
            continue;
        }
        table.set(&eq, &metric, f, &[])?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_table_answers_none() {
        let t = Calibration::identity(42, "empty");
        assert!(t.is_empty());
        assert_eq!(t.factor("l2.diffpair", "dc_gain", &[]), None);
    }

    #[test]
    fn set_validates_everything() {
        let mut t = Calibration::identity(1, "v");
        assert!(matches!(
            t.set("l9.bogus", "dc_gain", 1.0, &[]),
            Err(CalibError::UnknownEquation(_))
        ));
        assert!(matches!(
            t.set("l2.diffpair", "dc-gain", 1.0, &[]),
            Err(CalibError::UnknownMetric { .. })
        ));
        for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
            assert!(matches!(
                t.set("l2.diffpair", "dc_gain", bad, &[]),
                Err(CalibError::BadFactor { .. })
            ));
        }
        assert!(matches!(
            t.set("l2.diffpair", "dc_gain", 1.1, &[0.1]),
            Err(CalibError::WrongArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            t.set("l2.diffpair", "dc_gain", 1.1, &[0.1, f64::NAN]),
            Err(CalibError::NonFiniteTerm { index: 1, .. })
        ));
        assert!(t.is_empty(), "failed sets must not leave entries behind");
        t.set("l2.diffpair", "dc_gain", 1.1, &[0.1, -0.2]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = Calibration::identity(7, "a");
        let empty_fp = a.fingerprint();
        a.set("l2.gain", "ugf_hz", 1.05, &[]).unwrap();
        assert_ne!(a.fingerprint(), empty_fp);
        let mut b = Calibration::identity(7, "a");
        b.set("l2.gain", "ugf_hz", 1.05, &[]).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set("l2.gain", "ugf_hz", 1.05 + 1e-15, &[]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint(), "bit-exact sensitivity");
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut t = Calibration::identity(0xDEAD_BEEF_0102_0304, "fit@seed1999 \u{1f600}");
        t.set("l2.diffpair", "dc_gain", 1.0 / 3.0, &[]).unwrap();
        t.set(
            "l3.opamp",
            "ugf_hz",
            1.234_567_890_123_456_7,
            &[0.01, -0.02],
        )
        .unwrap();
        let text = t.render();
        let back = Calibration::parse(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.fingerprint(), t.fingerprint());
        assert_eq!(back.render(), text, "canonical form is a fixed point");
        // Python's `json.dumps` spells the emoji as a UTF-16 surrogate pair.
        let ascii = text.replace('\u{1f600}', r"\ud83d\ude00");
        assert_eq!(Calibration::parse(&ascii).unwrap(), t);
    }

    #[test]
    fn hostile_json_is_typed_errors() {
        assert!(matches!(Calibration::parse("{"), Err(CalibError::Parse(_))));
        assert!(matches!(
            Calibration::parse(r#"{"schema":9,"kind":"ape-calibration","technology":"0"}"#),
            Err(CalibError::Parse(_))
        ));
        let bad_factor = r#"{"schema":1,"kind":"ape-calibration","technology":"7","label":"",
            "corrections":{"l2.gain":{"ugf_hz":{"factor":"NaN","terms":[]}}}}"#;
        assert!(Calibration::parse(bad_factor).is_err());
        let bad_arity = r#"{"schema":1,"kind":"ape-calibration","technology":"7","label":"",
            "corrections":{"l2.gain":{"ugf_hz":{"factor":1.1,"terms":[1,2,3]}}}}"#;
        assert!(matches!(
            Calibration::parse(bad_arity),
            Err(CalibError::WrongArity { .. })
        ));
        let bad_eq = r#"{"schema":1,"kind":"ape-calibration","technology":"7","label":"",
            "corrections":{"l7.warp":{"ugf_hz":{"factor":1.1,"terms":[]}}}}"#;
        assert!(matches!(
            Calibration::parse(bad_eq),
            Err(CalibError::UnknownEquation(_))
        ));
    }

    #[test]
    fn correction_apply_shapes() {
        let mut t = Calibration::identity(1, "");
        t.set("l2.gain", "ugf_hz", 2.0, &[]).unwrap();
        assert_eq!(t.factor("l2.gain", "ugf_hz", &[]), Some(2.0));
        // Extra vars are fine for a pure factor (terms empty).
        assert_eq!(t.factor("l2.gain", "ugf_hz", &[1.0, 2.0]), Some(2.0));
        t.set("l2.gain", "dc_gain", 1.5, &[0.0, 0.1]).unwrap();
        let f = t.factor("l2.gain", "dc_gain", &[100.0, 2.0]).unwrap();
        assert!((f - 1.5 * (0.2f64).exp()).abs() < 1e-12);
        // Arity mismatch at application time: NaN, caught by the graph.
        assert!(t.factor("l2.gain", "dc_gain", &[1.0]).unwrap().is_nan());
    }

    #[test]
    fn fit_is_minimax_and_never_worse() {
        // Ratios sim/est spanning [0.8, 1.25].
        let samples = vec![
            Sample::new("l2.diffpair", "dc_gain", 1.0, 0.8),
            Sample::new("l2.diffpair", "dc_gain", 2.0, 2.5),
            Sample::new("l2.diffpair", "dc_gain", -1.0, -1.0),
        ];
        let t = fit(123, "test", &samples).unwrap();
        let f = t.factor("l2.diffpair", "dc_gain", &[]).unwrap();
        let expect = 2.0 * 0.8 * 1.25 / (0.8 + 1.25);
        assert!((f - expect).abs() < 1e-12);
        let worst_before = samples
            .iter()
            .map(|s| (s.est / s.sim - 1.0).abs())
            .fold(0.0, f64::max);
        let worst_after = samples
            .iter()
            .map(|s| (f * s.est / s.sim - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(
            worst_after < worst_before,
            "{worst_after} !< {worst_before}"
        );
    }

    #[test]
    fn fit_skips_hopeless_and_excluded_samples() {
        let samples = vec![
            Sample::new("l2.gain", "dc_gain", 1.0, -1.0), // sign flip
            Sample::new("l2.gain", "ugf_hz", f64::NAN, 1.0),
            Sample::new("l2.gain", "power_w", 1.0, 0.0),
            Sample::new("l2.gain", "gate_area_m2", 1.0, 2.0), // excluded
            Sample::new("l2.gain", "zout_ohm", 1.0, 1.0),     // identity
        ];
        let t = fit(5, "sparse", &samples).unwrap();
        assert!(t.is_empty(), "{:?}", t);
    }

    #[test]
    fn fit_rejects_unknown_ids() {
        assert!(matches!(
            fit(1, "", &[Sample::new("l9.x", "dc_gain", 1.0, 2.0)]),
            Err(CalibError::UnknownEquation(_))
        ));
        assert!(matches!(
            fit(1, "", &[Sample::new("l2.gain", "dcgain", 1.0, 2.0)]),
            Err(CalibError::UnknownMetric { .. })
        ));
    }

    #[test]
    fn merge_requires_matching_technology() {
        let mut a = Calibration::identity(1, "a");
        a.set("l2.gain", "dc_gain", 1.1, &[]).unwrap();
        let mut b = Calibration::identity(1, "b");
        b.set("l2.gain", "dc_gain", 1.2, &[]).unwrap();
        b.set("l3.opamp", "ugf_hz", 0.9, &[]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.factor("l2.gain", "dc_gain", &[]), Some(1.2));
        assert_eq!(a.len(), 2);
        let c = Calibration::identity(2, "c");
        assert!(matches!(
            a.merge(&c),
            Err(CalibError::TechnologyMismatch { .. })
        ));
    }
}
