//! The closed-loop adaptation controller.
//!
//! [`AdaptiveController`] sits between the executor and the planner as a
//! [`BarrierHook`]: at every stage barrier it folds the observed stage
//! span into the [`DriftMonitor`], and when the smoothed drift factor
//! leaves the configured band — or the stage absorbed spot preemptions —
//! it re-plans the *residual* job: completed stages are frozen, survivors
//! carry their checkpointed progress (so the residual spec is just the
//! spec's suffix), and the remaining stages are re-optimized by the
//! warm-started greedy planner under the *dilated* residual deadline.
//!
//! Deadline dilation is the calibration trick: if reality runs
//! `drift_factor`× slower than the model, a model-feasible plan with
//! predicted JCT ≤ `(deadline − now) / drift_factor` will actually land
//! near the deadline. The controller never rescales the fitted profile;
//! it just tells the planner the truth about how much *model time* is
//! left.
//!
//! Plan changes are applied only through the executor's barrier splice —
//! every survivor is paused with a fresh checkpoint when the hook runs,
//! so no trial is ever stranded mid-stage on a reallocated cluster.

use crate::drift::{DriftConfig, DriftMonitor, DriftObservation};
use rb_cloud::catalog::PricingTier;
use rb_core::{Cost, Result, SimDuration, SimTime};
use rb_exec::{BarrierHook, BarrierSnapshot, SwitchDirective, UnitObservation, WatchdogSnapshot};
use rb_hpo::ExperimentSpec;
use rb_obs::Lane;
use rb_planner::{plan_residual, PlannerConfig, ResidualOutcome};
use rb_profile::{CapacityEvents, CloudProfile};
use rb_scaling::{refit_least_squares, LatencyObservation, RefitScaling};
use rb_sim::{AllocationPlan, Simulator};
use std::sync::Arc;

/// Intra-stage watchdog knobs.
///
/// The watchdog arms a virtual-time budget on every stage: the drifted
/// Monte-Carlo p90 envelope times a safety margin. A stage whose
/// training round overruns the budget is cut at the next unit
/// boundaries and re-planned mid-stage — the defence against a long
/// final stage silently blowing the deadline with no barrier left to
/// catch it.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Arm the watchdog (default: true).
    pub enabled: bool,
    /// Budget multiplier over the drift-corrected p90 stage span
    /// (default: 1.75). Below ~1.2 the watchdog fires on ordinary noise;
    /// large values approach barrier-only adaptation. No caller sets it
    /// yet; it stays settable as the knob a watchdog-sensitivity study
    /// varies, and because the `perf` benchmark builds this struct as
    /// `WatchdogConfig { enabled, ..WatchdogConfig::default() }`.
    pub margin: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            margin: 1.75,
        }
    }
}

/// Minimum relative change of either refit factor before a new fit
/// replaces the applied one. Suppresses churn from noise-level fit
/// wiggle.
const REFIT_MIN_CHANGE: f64 = 0.10;

/// The spot interruption rate an executed switch to spot hands the
/// executor for its future capacity, in preemptions per instance-hour.
/// No prediction reads an interruption rate, so it does not enter the
/// market comparison.
const ASSUMED_SPOT_RATE_PER_HOUR: f64 = 4.0;

/// Spot-aware residual planning knobs.
///
/// Every re-plan evaluates the residual under *both* markets — the
/// executing one and its alternative at the other tier's prices — and
/// records which market the Monte-Carlo simulator prefers: the feasible
/// one, then the cheaper one. The simulator does not price spot churn,
/// so the comparison weighs price and feasibility only. By default the
/// choice is advisory: the executor keeps its launch market, but the
/// preference is logged in [`ReplanEvent::market`] and emitted on the
/// bus, so a supervisor can act on it. With [`MarketConfig::execute`]
/// the controller acts on it itself: the preference becomes a
/// [`SwitchDirective`] the executor drains the fleet through at the
/// same safe point, and a degraded zone is abandoned for its neighbor
/// the same way.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Evaluate the alternative market at every re-plan (default: true).
    pub enabled: bool,
    /// Execute market/zone moves instead of only advising them (default:
    /// false — the advisory mode of earlier revisions, bit-identical).
    /// When set, every barrier additionally probes the market even with
    /// no other trigger, so a cheaper-and-feasible alternative is taken
    /// as soon as it appears rather than when something else breaks.
    pub execute: bool,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            enabled: true,
            execute: false,
        }
    }
}

/// Controller knobs: drift detection, the watchdog and market
/// evaluation.
#[derive(Debug, Clone, Default)]
pub struct ControllerConfig {
    /// Drift detection.
    pub drift: DriftConfig,
    /// Intra-stage watchdog.
    pub watchdog: WatchdogConfig,
    /// Spot-vs-on-demand residual evaluation.
    pub market: MarketConfig,
}

/// What made the controller re-plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// The smoothed drift factor left the configured band.
    Drift,
    /// The completed stage absorbed one or more spot preemptions.
    Preemption,
    /// A stage overran its watchdog budget mid-stage.
    Watchdog,
    /// The completed stage ran degraded: the provider stayed short of
    /// capacity after the executor's provisioning retries, so the stage
    /// ran on fewer instances than planned. The residual is re-planned
    /// so the remaining stages absorb the lost time.
    CapacityShortfall,
    /// The stage's provisioning window recorded zone trouble — denials,
    /// retries, or correlated outage kills on a multi-zone cloud. The
    /// residual is re-planned with the provisioning model risk-priced
    /// from the observed window, and in execute mode future capacity is
    /// moved out of the degraded zone.
    ZoneDegraded,
    /// Nothing was wrong, but the periodic market probe (execute mode
    /// only) found the alternative market feasible and cheaper, so the
    /// controller re-planned to take it.
    MarketSwitch,
}

/// The compute market a residual plan was priced for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketChoice {
    /// Reserved, uninterruptible capacity at list price.
    OnDemand,
    /// Preemptible capacity at the spot discount.
    Spot,
}

impl MarketChoice {
    fn of(tier: PricingTier) -> Self {
        match tier {
            PricingTier::Spot => MarketChoice::Spot,
            _ => MarketChoice::OnDemand,
        }
    }

    fn name(self) -> &'static str {
        match self {
            MarketChoice::OnDemand => "on_demand",
            MarketChoice::Spot => "spot",
        }
    }

    fn tier(self) -> PricingTier {
        match self {
            MarketChoice::OnDemand => PricingTier::OnDemand,
            MarketChoice::Spot => PricingTier::Spot,
        }
    }
}

/// One applied model refit.
#[derive(Debug, Clone, Copy)]
pub struct RefitEvent {
    /// The stage at which the refit was applied.
    pub stage: usize,
    /// Virtual time of the application.
    pub at: SimTime,
    /// Fitted compute-share factor α.
    pub compute_factor: f64,
    /// Fitted communication-share factor β.
    pub comm_factor: f64,
}

/// One re-planning decision, applied or not.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// The barrier (completed stage) at which the re-plan ran.
    pub stage: usize,
    /// Virtual time of the barrier.
    pub at: SimTime,
    /// What tripped it.
    pub trigger: ReplanTrigger,
    /// The smoothed drift factor at decision time.
    pub drift_factor: f64,
    /// The dilated deadline handed to the residual planner.
    pub residual_deadline: SimDuration,
    /// The incumbent plan's suffix for the remaining stages.
    pub old_suffix: Vec<u32>,
    /// The planner's choice for the remaining stages.
    pub new_suffix: Vec<u32>,
    /// Whether the new suffix was predicted to fit the dilated deadline.
    pub feasible: bool,
    /// Predicted residual JCT of the new suffix (model time).
    pub predicted_jct: SimDuration,
    /// Predicted residual cost of the new suffix.
    pub predicted_cost: Cost,
    /// True when the suffix differed from the incumbent and was spliced
    /// into the executing plan.
    pub applied: bool,
    /// The market the Monte-Carlo evaluation preferred for the residual.
    pub market: MarketChoice,
    /// True when the preferred market differs from the executing one.
    /// Advisory unless [`MarketConfig::execute`] is set.
    pub market_switched: bool,
    /// True when the decision produced a [`SwitchDirective`] the
    /// executor actually drained the fleet through (execute mode): a
    /// market flip, a zone move out of a degraded zone, or both.
    pub market_executed: bool,
}

/// The full adaptation record of one run.
#[derive(Debug, Clone, Default)]
pub struct AdaptationLog {
    /// Every re-planning decision, in barrier order.
    pub events: Vec<ReplanEvent>,
    /// Every drift reading, one per non-final barrier.
    pub observations: Vec<DriftObservation>,
    /// Every applied profile refit, in application order.
    pub refits: Vec<RefitEvent>,
}

impl AdaptationLog {
    /// Re-plans that actually changed the executing plan.
    pub fn applied(&self) -> usize {
        self.events.iter().filter(|e| e.applied).count()
    }

    /// Decisions that drained the fleet through an executed market/zone
    /// switch (zero outside execute mode).
    pub fn executed_switches(&self) -> usize {
        self.events.iter().filter(|e| e.market_executed).count()
    }
}

/// A [`BarrierHook`] that closes the loop between execution and planning.
#[derive(Debug)]
pub struct AdaptiveController {
    sim: Simulator,
    spec: ExperimentSpec,
    deadline: SimDuration,
    config: ControllerConfig,
    monitor: DriftMonitor,
    preemptions_seen: u32,
    events: Vec<ReplanEvent>,
    /// The pristine pre-job profile; refits are always expressed against
    /// it (never stacked on an earlier refit).
    base_model: rb_profile::ModelProfile,
    /// Accumulated per-allocation latency observations across the job.
    obs: Vec<LatencyObservation>,
    /// The `(α, β)` factors currently applied to the planner's model.
    refit: Option<(f64, f64)>,
    refits: Vec<RefitEvent>,
    /// Cumulative capacity-event tallies at the last decision point;
    /// diffing against the snapshot's totals yields the per-window
    /// distribution that risk-prices the residual plan.
    capacity_seen: CapacityEvents,
    /// A switch decided at the last callback, held for the executor's
    /// `pending_switch` poll at the same safe point.
    pending: Option<SwitchDirective>,
}

/// What a re-plan decision reads from its snapshot, the same at a
/// barrier and at a watchdog cut.
struct ReplanPoint<'a> {
    /// The completed (barrier) or interrupted (watchdog) stage.
    stage: usize,
    /// The first stage the residual covers: the next one at a barrier,
    /// the interrupted one itself at a watchdog cut.
    from: usize,
    now: SimTime,
    home_zone: u32,
    num_zones: u32,
    plan: &'a AllocationPlan,
}

impl AdaptiveController {
    /// Creates a controller for a job about to execute `plan` under
    /// `deadline`. `sim` must be the planner's view (fitted profile +
    /// cloud profile) — drift is measured against *its* predictions.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from computing the initial per-stage
    /// envelope (e.g. a plan that does not match the spec).
    pub fn new(
        sim: Simulator,
        spec: ExperimentSpec,
        plan: &AllocationPlan,
        deadline: SimDuration,
        config: ControllerConfig,
    ) -> Result<Self> {
        let envelope = sim.stage_quantiles(&spec, plan)?;
        let monitor = DriftMonitor::new(envelope, config.drift.clone());
        let base_model = sim.model().clone();
        Ok(AdaptiveController {
            sim,
            spec,
            deadline,
            config,
            monitor,
            preemptions_seen: 0,
            events: Vec::new(),
            base_model,
            obs: Vec::new(),
            refit: None,
            refits: Vec::new(),
            capacity_seen: CapacityEvents::default(),
            pending: None,
        })
    }

    /// The drift monitor's current state.
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Re-planning decisions so far.
    pub fn events(&self) -> &[ReplanEvent] {
        &self.events
    }

    /// Applied profile refits so far.
    pub fn refits(&self) -> &[RefitEvent] {
        &self.refits
    }

    /// Consumes the controller, returning its full adaptation record.
    pub fn into_log(self) -> AdaptationLog {
        AdaptationLog {
            events: self.events,
            observations: self.monitor.into_observations(),
            refits: self.refits,
        }
    }

    /// The residual deadline in model time: wall-clock time left, shrunk
    /// (or stretched) by the drift factor. Floored at one second — a
    /// blown deadline still needs *some* plan, and the planner's
    /// minimum-JCT fallback loses the least.
    fn dilated_residual_deadline(&self, now: SimTime) -> SimDuration {
        let elapsed = (now - SimTime::ZERO).as_secs_f64();
        let left = (self.deadline.as_secs_f64() - elapsed).max(1.0);
        SimDuration::from_secs_f64(left / self.monitor.drift_factor().max(1e-6))
    }

    /// Folds the executor's per-allocation unit observations into the
    /// refit sample set.
    fn push_observations(&mut self, unit_obs: &[UnitObservation]) {
        let steps = self.base_model.steps_per_iter as f64;
        if steps <= 0.0 {
            return;
        }
        for o in unit_obs {
            if o.units == 0 || !o.mean_secs.is_finite() || o.mean_secs <= 0.0 {
                continue;
            }
            self.obs.push(LatencyObservation {
                gpus: o.gpus,
                placement: o.placement,
                observed_iter_secs: o.mean_secs / steps,
                weight: o.units as f64,
            });
        }
    }

    /// A fresh simulator over `model` and `cloud` with this controller's
    /// Monte-Carlo configuration, no recorder and caches of its own —
    /// for a view whose stage columns differ from the planning
    /// simulator's (a refit model, risk-priced delays), and for the
    /// planning simulator that follows an executed market switch. The
    /// alternative market of a re-plan differs only in prices and is
    /// planned on [`Simulator::repriced`] instead, which shares the
    /// columns.
    fn sibling_sim(&self, model: rb_profile::ModelProfile, cloud: CloudProfile) -> Simulator {
        Simulator::new(model, cloud).with_config(self.sim.config().clone())
    }

    /// Emits the replan-trigger counter and instant for `trigger`. A
    /// watchdog cut passes its `(budget_secs, remaining_units)`, which
    /// the instant carries too.
    fn note_trigger(
        &self,
        trigger: ReplanTrigger,
        stage: usize,
        now: SimTime,
        cut: Option<(f64, u64)>,
    ) {
        let recorder = self.sim.recorder();
        recorder.counter_add("ctrl", "replans_triggered", 1);
        if recorder.enabled() {
            let mut args = vec![
                ("stage", stage.into()),
                (
                    "trigger",
                    match trigger {
                        ReplanTrigger::Drift => "drift",
                        ReplanTrigger::Preemption => "preemption",
                        ReplanTrigger::Watchdog => "watchdog",
                        ReplanTrigger::CapacityShortfall => "capacity_shortfall",
                        ReplanTrigger::ZoneDegraded => "zone_degraded",
                        ReplanTrigger::MarketSwitch => "market_switch",
                    }
                    .into(),
                ),
                ("drift_factor", self.monitor.drift_factor().into()),
            ];
            if let Some((budget_secs, remaining_units)) = cut {
                args.push(("budget_secs", budget_secs.into()));
                args.push(("remaining_units", remaining_units.into()));
            }
            recorder.instant(now, "ctrl", "replan.trigger", Lane::Controller, args);
        }
    }

    /// In execute mode, converts a decision into the [`SwitchDirective`]
    /// the executor will poll at this same safe point: the preferred
    /// market (with its interruption expectation for future capacity)
    /// and/or the neighbor zone when the capacity window on a multi-zone
    /// cloud was not calm, whatever the trigger. Returns whether a
    /// directive was armed.
    fn arm_switch(
        &mut self,
        market: MarketChoice,
        market_switched: bool,
        point: &ReplanPoint<'_>,
        window: &CapacityEvents,
    ) -> bool {
        if !self.config.market.execute {
            return false;
        }
        let mut directive = SwitchDirective::default();
        if market_switched {
            directive.market = Some(market.tier());
            directive.interruption_rate_per_hour = Some(match market {
                MarketChoice::Spot => ASSUMED_SPOT_RATE_PER_HOUR,
                MarketChoice::OnDemand => 0.0,
            });
        }
        if point.num_zones > 1 && !window.is_calm() {
            directive.zone = Some((point.home_zone + 1) % point.num_zones);
        }
        if directive.is_empty() {
            return false;
        }
        if let (Some(tier), Some(rate)) = (directive.market, directive.interruption_rate_per_hour) {
            // The planning view follows the executed market: without
            // this, every later barrier would score "current" against
            // the abandoned tier and re-advise the same switch forever.
            let mut cloud = self.sim.cloud().clone();
            cloud.pricing = cloud.pricing.with_tier(tier);
            cloud.spot_interruptions_per_hour = rate;
            self.sim = self
                .sibling_sim(self.sim.model().clone(), cloud)
                .with_recorder(self.sim.recorder().clone());
        }
        self.pending = Some(directive);
        true
    }

    /// Diffs the snapshot's cumulative capacity tallies against the last
    /// decision point, advancing the high-water mark. The returned
    /// window is what the stage just lived through — the distribution
    /// [`rb_profile::CloudProfile::risk_from_events`] folds into the
    /// provisioning model.
    fn capacity_window(&mut self, total: CapacityEvents) -> CapacityEvents {
        let seen = self.capacity_seen;
        self.capacity_seen = total;
        CapacityEvents {
            requests: total.requests.saturating_sub(seen.requests),
            denials: total.denials.saturating_sub(seen.denials),
            retries: total.retries.saturating_sub(seen.retries),
            outage_kills: total.outage_kills.saturating_sub(seen.outage_kills),
        }
    }

    /// Least-squares-refits the planner's scaling model against all
    /// latency observations so far and, when the fit moved by at least
    /// [`REFIT_MIN_CHANGE`], swaps the refit model into the planning
    /// simulator. Returns whether a new fit was applied.
    fn try_refit(&mut self, stage: usize, now: SimTime) -> bool {
        if self.obs.is_empty() {
            return false;
        }
        let Some((alpha, beta)) = refit_least_squares(self.base_model.scaling.as_ref(), &self.obs)
        else {
            return false;
        };
        let (cur_a, cur_b) = self.refit.unwrap_or((1.0, 1.0));
        let change = (alpha / cur_a - 1.0).abs().max((beta / cur_b - 1.0).abs());
        if change < REFIT_MIN_CHANGE {
            return false;
        }
        let mut model = self.base_model.clone();
        model.scaling = Arc::new(RefitScaling::new(
            self.base_model.scaling.clone(),
            alpha,
            beta,
        ));
        let recorder = self.sim.recorder().clone();
        self.sim = self
            .sibling_sim(model, self.sim.cloud().clone())
            .with_recorder(recorder.clone());
        self.refit = Some((alpha, beta));
        self.refits.push(RefitEvent {
            stage,
            at: now,
            compute_factor: alpha,
            comm_factor: beta,
        });
        // The refit model now carries the observed slowdown itself;
        // keeping the old drift factor would dilate the residual deadline
        // twice for the same cause.
        self.monitor.reset_factor(1.0);
        recorder.counter_add("ctrl", "refits_applied", 1);
        if recorder.enabled() {
            recorder.instant(
                now,
                "ctrl",
                "refit.apply",
                Lane::Controller,
                vec![
                    ("stage", stage.into()),
                    ("compute_factor", alpha.into()),
                    ("comm_factor", beta.into()),
                ],
            );
        }
        true
    }

    /// Plans the residual under the executing market and, when market
    /// evaluation is enabled, under the alternative market: one plan per
    /// market. A non-calm capacity window risk-prices *both* markets
    /// first: the provisioning-delay model is stretched by the observed
    /// denial/retry/outage distribution, so the planner stops assuming
    /// the calibrated steady state mid-storm. The alternative is planned
    /// on a [`Simulator::repriced`] copy of the executing market's
    /// simulator, so it reads the stage columns the first plan built.
    /// The markets compare on predicted cost and feasibility only: no
    /// prediction reads the spot interruption rate, so neither plan
    /// prices churn. Returns the authoritative outcome (from the
    /// executing market) plus the preferred market and whether it
    /// differs from the executing one.
    fn plan_residual_markets(
        &self,
        residual_spec: &ExperimentSpec,
        residual_deadline: SimDuration,
        warm: &AllocationPlan,
        point: &ReplanPoint<'_>,
        window: &CapacityEvents,
    ) -> Option<(ResidualOutcome, MarketChoice, bool)> {
        let risk_sim;
        let sim = if window.requests > 0 && !window.is_calm() {
            let risky = self.sim.cloud().risk_from_events(window);
            let recorder = self.sim.recorder();
            if recorder.enabled() {
                let stretch = if self.sim.cloud().provision_delay.mean() > 0.0 {
                    risky.provision_delay.mean() / self.sim.cloud().provision_delay.mean()
                } else {
                    1.0
                };
                recorder.instant(
                    point.now,
                    "ctrl",
                    "replan.risk_priced",
                    Lane::Controller,
                    vec![
                        ("requests", window.requests.into()),
                        ("denials", window.denials.into()),
                        ("retries", window.retries.into()),
                        ("outage_kills", window.outage_kills.into()),
                        ("provision_stretch", stretch.into()),
                    ],
                );
            }
            risk_sim = self.sibling_sim(self.sim.model().clone(), risky);
            &risk_sim
        } else {
            &self.sim
        };
        // Re-plans happen on the critical path, so candidates are
        // screened at 5 Monte-Carlo samples and only survivors are
        // re-scored in full.
        let config = PlannerConfig {
            exploration_samples: Some(5),
            ..PlannerConfig::default()
        };
        let plan =
            |sim: &Simulator| plan_residual(sim, residual_spec, residual_deadline, warm, &config);
        let out = plan(sim).ok()?;
        let current = MarketChoice::of(self.sim.cloud().pricing.tier);
        if !self.config.market.enabled {
            return Some((out, current, false));
        }

        let alt_market = match current {
            MarketChoice::OnDemand => MarketChoice::Spot,
            MarketChoice::Spot => MarketChoice::OnDemand,
        };
        let alt = plan(&sim.repriced(alt_market.tier())).ok();
        let switched = alt.as_ref().is_some_and(|alt| {
            (alt.feasible && !out.feasible)
                || (alt.feasible == out.feasible
                    && alt.prediction.cost.as_dollars() < out.prediction.cost.as_dollars())
        });
        let market = if switched { alt_market } else { current };
        if switched {
            let recorder = self.sim.recorder();
            recorder.counter_add("ctrl", "market_switches_advised", 1);
            if recorder.enabled() {
                let alt = alt.as_ref().expect("switched implies alt");
                recorder.instant(
                    point.now,
                    "ctrl",
                    "market.switch",
                    Lane::Controller,
                    vec![
                        ("market", market.name().into()),
                        ("feasible", alt.feasible.into()),
                        (
                            "predicted_cost_usd",
                            alt.prediction.cost.as_dollars().into(),
                        ),
                    ],
                );
            }
        }
        Some((out, market, switched))
    }

    /// The one re-plan decision behind both hook callbacks: refit the
    /// model, plan the residual under both markets, arm an executed
    /// switch, record the outcome, keep the drift envelope on the plan
    /// that will execute, and log the [`ReplanEvent`]. `trigger` is
    /// `None` only for an execute-mode market probe, which becomes a
    /// [`ReplanTrigger::MarketSwitch`] if the probe switches and is
    /// dropped otherwise. Returns the suffix to splice from
    /// `point.from` on, when it differs from the incumbent.
    fn settle(
        &mut self,
        point: &ReplanPoint<'_>,
        residual_spec: ExperimentSpec,
        trigger: Option<ReplanTrigger>,
        window: CapacityEvents,
    ) -> Option<Vec<u32>> {
        let drift_at_decision = self.monitor.drift_factor();
        let old_suffix = point.plan.as_slice()[point.from..].to_vec();
        let warm = AllocationPlan::new(old_suffix.clone());
        let cut = trigger == Some(ReplanTrigger::Watchdog);
        // Refit before planning so the residual is scored on the best
        // available model. At a barrier the envelope tracks the refit
        // view even if no new suffix is applied below; a watchdog cut
        // retargets only with an applied suffix. The probe-only path
        // skips the refit: with nothing wrong, swapping models on every
        // barrier would churn the envelope for no cause.
        if trigger.is_some() && self.try_refit(point.stage, point.now) && !cut {
            if let Ok(qs) = self.sim.stage_quantiles(&residual_spec, &warm) {
                self.monitor.retarget(point.from, qs);
            }
        }
        let residual_deadline = self.dilated_residual_deadline(point.now);
        // A planner failure must not kill the job; keep the incumbent.
        let (out, market, market_switched) =
            self.plan_residual_markets(&residual_spec, residual_deadline, &warm, point, &window)?;
        let trigger = match trigger {
            Some(t) => t,
            None if market_switched => {
                self.note_trigger(ReplanTrigger::MarketSwitch, point.stage, point.now, None);
                ReplanTrigger::MarketSwitch
            }
            None => return None,
        };
        let market_executed = self.arm_switch(market, market_switched, point, &window);

        let new_suffix = out.plan.as_slice().to_vec();
        let applied = new_suffix != old_suffix;
        let recorder = self.sim.recorder();
        recorder.counter_add(
            "ctrl",
            if applied {
                "replans_applied"
            } else {
                "replans_rejected"
            },
            1,
        );
        if recorder.enabled() {
            recorder.instant(
                point.now,
                "ctrl",
                if applied {
                    "replan.apply"
                } else {
                    "replan.reject"
                },
                Lane::Controller,
                vec![
                    ("stage", point.stage.into()),
                    ("feasible", out.feasible.into()),
                    (
                        "predicted_jct_secs",
                        out.prediction.jct.as_secs_f64().into(),
                    ),
                    (
                        "predicted_cost_usd",
                        out.prediction.cost.as_dollars().into(),
                    ),
                    ("market", market.name().into()),
                ],
            );
        }
        if applied {
            // The envelope must describe the plan actually executing.
            if let Ok(qs) = self.sim.stage_quantiles(&residual_spec, &out.plan) {
                self.monitor.retarget(point.from, qs);
            }
        }
        self.events.push(ReplanEvent {
            stage: point.stage,
            at: point.now,
            trigger,
            drift_factor: drift_at_decision,
            residual_deadline,
            old_suffix,
            new_suffix: new_suffix.clone(),
            feasible: out.feasible,
            predicted_jct: out.prediction.jct,
            predicted_cost: out.prediction.cost,
            applied,
            market,
            market_switched,
            market_executed,
        });
        applied.then_some(new_suffix)
    }
}

impl BarrierHook for AdaptiveController {
    fn at_barrier(&mut self, snap: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
        self.monitor.observe(snap.stage, snap.stage_span);
        self.push_observations(snap.unit_obs);
        // The drift-factor time series: one gauge per barrier, whether or
        // not the controller intervenes.
        self.sim.recorder().gauge(
            snap.now,
            "ctrl",
            "drift_factor",
            Lane::Controller,
            self.monitor.drift_factor(),
        );
        let fresh_preemptions = snap.preemptions.saturating_sub(self.preemptions_seen);
        self.preemptions_seen = snap.preemptions;
        let window = self.capacity_window(snap.capacity_events);

        let trigger = if snap.capacity_shortfall > 0 {
            // A degraded stage always warrants a fresh residual plan:
            // the deadline envelope was built for the full allocation.
            Some(ReplanTrigger::CapacityShortfall)
        } else if snap.num_zones > 1 && !window.is_calm() {
            // Correlated zone trouble outranks preemption noise: a
            // brownout/outage window degrades *future* provisioning, so
            // the residual must be risk-priced (and, in execute mode,
            // moved) even if the completed stage landed on time.
            Some(ReplanTrigger::ZoneDegraded)
        } else if fresh_preemptions > 0 {
            Some(ReplanTrigger::Preemption)
        } else if self.monitor.drifted() {
            Some(ReplanTrigger::Drift)
        } else if self.config.market.enabled && self.config.market.execute {
            // Execute mode probes the market at every barrier; the
            // trigger is declared only if the probe actually switches.
            None
        } else {
            return None;
        };
        if let Some(trigger) = trigger {
            self.note_trigger(trigger, snap.stage, snap.now, None);
        }
        // Residual job: the spec's suffix (survivor progress lives in
        // checkpoints), warm-started from the incumbent plan's suffix.
        let next = snap.stage + 1;
        let residual_spec = self.spec.suffix(next).ok()?;
        let point = ReplanPoint {
            stage: snap.stage,
            from: next,
            now: snap.now,
            home_zone: snap.home_zone,
            num_zones: snap.num_zones,
            plan: snap.plan,
        };
        self.settle(&point, residual_spec, trigger, window)
    }

    fn stage_budget_secs(&mut self, stage: usize) -> Option<f64> {
        if !self.config.watchdog.enabled {
            return None;
        }
        let q = self.monitor.expected().get(stage)?;
        if !(q.p90_secs.is_finite() && q.p90_secs > 0.0) {
            return None;
        }
        let budget =
            q.p90_secs * self.config.watchdog.margin * self.monitor.drift_factor().max(1.0);
        (budget.is_finite() && budget > 0.0).then_some(budget)
    }

    fn at_watchdog(&mut self, snap: &WatchdogSnapshot<'_>) -> Option<Vec<u32>> {
        // Fold the partial stage's evidence into the drift estimate: the
        // unit-weighted observed/predicted latency ratio. A watchdog
        // interruption is not a barrier span, so this goes through
        // `nudge` rather than `observe`.
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for o in snap.unit_obs {
            if o.units == 0 || !o.mean_secs.is_finite() || o.mean_secs <= 0.0 {
                continue;
            }
            let predicted = self.sim.model().unit_mean_secs(o.gpus, o.placement);
            if predicted.is_finite() && predicted > 0.0 {
                num += (o.mean_secs / predicted) * o.units as f64;
                den += o.units as f64;
            }
        }
        if den > 0.0 {
            self.monitor.nudge(num / den);
        }
        self.push_observations(snap.unit_obs);
        // Preemptions absorbed so far are part of this decision; don't
        // re-trigger on them at the next barrier.
        self.preemptions_seen = snap.preemptions;
        let window = self.capacity_window(snap.capacity_events);
        self.note_trigger(
            ReplanTrigger::Watchdog,
            snap.stage,
            snap.now,
            Some((snap.budget_secs, snap.max_remaining_units)),
        );

        // Residual spec: the interrupted stage's survivors with their
        // residual units, then the untouched tail of the original spec.
        let mut stages = (snap.stage..self.spec.num_stages())
            .map(|s| self.spec.get_stage(s))
            .collect::<Result<Vec<_>>>()
            .ok()?;
        stages[0].1 = snap.max_remaining_units.max(1);
        let residual_spec = ExperimentSpec::from_stages(&stages).ok()?;
        let point = ReplanPoint {
            stage: snap.stage,
            from: snap.stage,
            now: snap.now,
            home_zone: snap.home_zone,
            num_zones: snap.num_zones,
            plan: snap.plan,
        };
        let suffix = self.settle(&point, residual_spec, Some(ReplanTrigger::Watchdog), window);
        // Whatever was decided, this stage's eventual barrier span
        // includes the checkpoint/re-plan detour and must not be read as
        // drift again (a retarget above restored its envelope slot).
        self.monitor.invalidate(snap.stage);
        suffix
    }

    fn pending_switch(&mut self) -> Option<SwitchDirective> {
        self.pending.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_cloud::catalog::P3_8XLARGE;
    use rb_cloud::CloudPricing;
    use rb_core::Prng;
    use rb_exec::{ExecOptions, Executor};
    use rb_hpo::{Config, Dim, SearchSpace};
    use rb_obs::RecorderHandle;
    use rb_profile::{CloudProfile, ModelProfile};
    use rb_scaling::{AnalyticScaling, RescaledScaling};
    use rb_train::task::resnet101_cifar10;
    use rb_train::TaskModel;
    use std::sync::Arc;

    fn cloud() -> CloudProfile {
        CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
            .with_provision_delay(SimDuration::from_secs(15))
            .with_init_latency(SimDuration::from_secs(15))
    }

    /// Executor physics at `slowdown`× the nominal per-iteration latency.
    fn physics(task: &TaskModel, slowdown: f64) -> ModelProfile {
        let nominal = Arc::new(AnalyticScaling::for_arch(&task.arch, 1024, 4));
        let scaled = Arc::new(RescaledScaling::new(nominal, slowdown));
        let mut p =
            ModelProfile::from_scaling(task.name, scaled, task.steps_per_iter(1024), 2.0, 0.02);
        p.train_startup_secs = 2.0;
        p
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::from_stages(&[(8, 2), (4, 4), (2, 8), (1, 16)]).unwrap()
    }

    fn configs(n: usize, seed: u64) -> Vec<Config> {
        let space = SearchSpace::new()
            .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
            .add("weight_decay", Dim::LogUniform { lo: 1e-5, hi: 1e-2 })
            .build()
            .unwrap();
        space.sample_n(n, &mut Prng::seed_from_u64(seed))
    }

    fn executor(task: &TaskModel, plan: &AllocationPlan, slowdown: f64) -> Executor {
        Executor::new(
            spec(),
            plan.clone(),
            task.clone(),
            physics(task, slowdown),
            cloud(),
        )
        .unwrap()
        .with_options(ExecOptions {
            seed: 11,
            ..ExecOptions::default()
        })
    }

    /// The planner's view: the *nominal* model (slowdown 1.0).
    fn controller(
        plan: &AllocationPlan,
        deadline: SimDuration,
        config: ControllerConfig,
    ) -> AdaptiveController {
        let task = resnet101_cifar10();
        let sim = Simulator::new(physics(&task, 1.0), cloud());
        AdaptiveController::new(sim, spec(), plan, deadline, config).unwrap()
    }

    /// The market comparison plans each market once and prices no spot
    /// churn: on either tier, clouds that differ only in
    /// `spot_interruptions_per_hour` predict and re-plan bit for bit
    /// alike, because nothing in the simulator or the planner reads the
    /// rate (only the executor's cluster manager does). An observed-rate
    /// re-score of the executing market comes back only together with a
    /// simulator that reads the rate.
    #[test]
    fn predictions_and_residual_plans_ignore_the_spot_interruption_rate() {
        let task = resnet101_cifar10();
        let residual = spec().suffix(1).unwrap();
        let warm = AllocationPlan::new(vec![4, 2, 1]);
        let config = PlannerConfig {
            exploration_samples: Some(5),
            ..PlannerConfig::default()
        };
        for tier in [PricingTier::OnDemand, PricingTier::Spot] {
            let outcome = |rate: f64| {
                let mut cloud = cloud().with_spot_interruptions(rate);
                cloud.pricing = cloud.pricing.with_tier(tier);
                let sim = Simulator::new(physics(&task, 1.0), cloud);
                let preds: Vec<_> = [vec![8, 8, 8, 8], vec![16, 8, 4, 2], vec![8, 4, 2, 1]]
                    .into_iter()
                    .map(|gpus| sim.predict(&spec(), &AllocationPlan::new(gpus)).unwrap())
                    .collect();
                let out =
                    plan_residual(&sim, &residual, SimDuration::from_mins(20), &warm, &config)
                        .unwrap();
                format!("{preds:?} {out:?}")
            };
            let calm = outcome(0.0);
            for rate in [1.0, 8.0] {
                assert_eq!(outcome(rate), calm, "{tier:?} at {rate}/h");
            }
        }
    }

    #[test]
    fn no_drift_means_no_replans_and_identical_execution() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 8, 8]);
        let open = executor(&task, &plan, 1.0).run(&configs(8, 3)).unwrap();
        // Generous deadline, matched physics: the controller observes but
        // never intervenes, and the run is bit-identical to open loop.
        let mut ctrl = controller(
            &plan,
            SimDuration::from_hours(2),
            ControllerConfig::default(),
        );
        let adaptive = executor(&task, &plan, 1.0)
            .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
            .unwrap();
        let log = ctrl.into_log();
        assert_eq!(log.applied(), 0, "events: {:?}", log.events);
        assert_eq!(adaptive.jct, open.jct);
        assert_eq!(adaptive.compute_cost, open.compute_cost);
        assert_eq!(adaptive.best_accuracy, open.best_accuracy);
        assert_eq!(log.observations.len(), 3);
    }

    #[test]
    fn injected_slowdown_triggers_a_drift_replan_that_speeds_up_the_job() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 8, 8]);
        let slowdown = 1.6;
        let open = executor(&task, &plan, slowdown)
            .run(&configs(8, 3))
            .unwrap();
        // Deadline sized so the nominal plan would fit but the slowed
        // reality misses it: the controller must buy speed.
        let deadline = SimDuration::from_secs_f64(open.jct.as_secs_f64() * 0.85);
        let mut ctrl = controller(&plan, deadline, ControllerConfig::default());
        let adaptive = executor(&task, &plan, slowdown)
            .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
            .unwrap();
        let log = ctrl.into_log();
        assert!(log.applied() > 0, "no re-plan applied: {:?}", log.events);
        assert!(log.events.iter().any(|e| e.trigger == ReplanTrigger::Drift));
        assert!(
            adaptive.jct < open.jct,
            "adaptive {} !< open {}",
            adaptive.jct,
            open.jct
        );
        // The tuning outcome is preserved across the re-plan.
        assert_eq!(adaptive.best_accuracy, open.best_accuracy);
    }

    #[test]
    fn preemption_triggers_a_replan_even_without_drift() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 4, 4]);
        let mut c = cloud().with_spot_interruptions(40.0);
        c.pricing = c.pricing.with_spot();
        let exec = Executor::new(
            spec(),
            plan.clone(),
            task.clone(),
            physics(&task, 1.0),
            c.clone(),
        )
        .unwrap()
        .with_options(ExecOptions {
            seed: 11,
            ..ExecOptions::default()
        });
        // Drift detection effectively off and the watchdog disarmed (spot
        // recovery detours stretch stages past the p90 envelope, which
        // would legitimately fire it): only preemptions can trigger.
        let config = ControllerConfig {
            drift: DriftConfig {
                replan_threshold: 100.0,
            },
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            ..ControllerConfig::default()
        };
        let sim = Simulator::new(physics(&task, 1.0), c);
        let mut ctrl =
            AdaptiveController::new(sim, spec(), &plan, SimDuration::from_hours(2), config)
                .unwrap();
        let report = exec
            .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
            .unwrap();
        assert!(report.preemptions > 0, "rate 40/h produced no preemptions");
        let log = ctrl.into_log();
        assert!(
            log.events
                .iter()
                .all(|e| e.trigger == ReplanTrigger::Preemption),
            "{:?}",
            log.events
        );
        assert!(!log.events.is_empty());
    }

    /// Parallelism-dependent contention: communication runs `beta`× slow,
    /// compute is untouched. Tiny gangs barely notice; a 16-GPU gang is
    /// hit hard.
    fn comm_physics(task: &TaskModel, beta: f64) -> ModelProfile {
        let nominal = Arc::new(AnalyticScaling::for_arch(&task.arch, 1024, 4));
        let slowed = Arc::new(RefitScaling::new(nominal, 1.0, beta));
        let mut p =
            ModelProfile::from_scaling(task.name, slowed, task.steps_per_iter(1024), 2.0, 0.02);
        p.train_startup_secs = 2.0;
        p
    }

    /// Nominal physics except that communication runs 6× slow.
    fn contended_executor(task: &TaskModel, plan: &AllocationPlan) -> Executor {
        Executor::new(
            spec(),
            plan.clone(),
            task.clone(),
            comm_physics(task, 6.0),
            cloud(),
        )
        .unwrap()
        .with_options(ExecOptions {
            seed: 11,
            ..ExecOptions::default()
        })
    }

    #[test]
    fn watchdog_recovers_a_hidden_final_stage_slowdown() {
        let task = resnet101_cifar10();
        // Early stages run 2-GPU gangs (communication share ≈ 0) and stay
        // inside the drift band; the 16-GPU final stage is slowed hard by
        // the contention — and has no barrier after it, so barrier-only
        // adaptation structurally cannot react to it.
        let plan = AllocationPlan::new(vec![2, 2, 2, 16]);
        let run = |config: Option<ControllerConfig>| {
            let exec = contended_executor(&task, &plan);
            match config {
                None => (exec.run(&configs(8, 3)).unwrap(), None),
                Some(config) => {
                    let sim = Simulator::new(physics(&task, 1.0), cloud());
                    let mut ctrl = AdaptiveController::new(
                        sim,
                        spec(),
                        &plan,
                        SimDuration::from_hours(1),
                        config,
                    )
                    .unwrap();
                    let r = exec
                        .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
                        .unwrap();
                    (r, Some(ctrl.into_log()))
                }
            }
        };

        let (open, _) = run(None);
        // Barrier-only adaptation sees three calm barriers and never
        // intervenes: the hidden slowdown goes entirely undetected.
        let barrier_only = ControllerConfig {
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            ..ControllerConfig::default()
        };
        let (blind, blind_log) = run(Some(barrier_only));
        let blind_log = blind_log.unwrap();
        assert_eq!(blind_log.applied(), 0, "events: {:?}", blind_log.events);
        assert_eq!(blind.jct, open.jct, "no intervention must mean open-loop");

        // The armed watchdog cuts the overrunning final stage, refits the
        // model from the observed big-gang latency, and re-plans the
        // residual onto an allocation the contention doesn't punish.
        let (cut, cut_log) = run(Some(ControllerConfig::default()));
        let cut_log = cut_log.unwrap();
        let wd: Vec<_> = cut_log
            .events
            .iter()
            .filter(|e| e.trigger == ReplanTrigger::Watchdog)
            .collect();
        assert!(!wd.is_empty(), "watchdog never fired: {:?}", cut_log.events);
        assert!(
            wd.iter().any(|e| e.applied),
            "watchdog re-plan was never applied: {wd:?}"
        );
        assert!(
            !cut_log.refits.is_empty(),
            "the big-gang observation must produce a refit"
        );
        let refit = cut_log.refits.last().unwrap();
        assert!(
            refit.comm_factor > refit.compute_factor,
            "contention is communication-bound: α={} β={}",
            refit.compute_factor,
            refit.comm_factor
        );
        assert!(
            cut.jct < open.jct,
            "watchdog {} !< open {}",
            cut.jct,
            open.jct
        );
        assert_eq!(cut.best_accuracy, open.best_accuracy);
    }

    /// Two zones, the home zone dead from t = 60 s on, and a retry
    /// policy patient enough to keep asking it.
    fn zone_outage_executor(task: &TaskModel, plan: &AllocationPlan) -> Executor {
        use rb_cloud::{FaultPlan, ZonePlan, ZoneWindow};
        use rb_exec::RetryPolicy;
        let faults = FaultPlan {
            zones: ZonePlan {
                zones: 2,
                outage: Some(ZoneWindow {
                    zone: 0,
                    start_secs: 60.0,
                    duration_secs: 100_000.0,
                }),
                ..ZonePlan::none()
            },
            ..FaultPlan::none()
        };
        Executor::new(
            spec(),
            plan.clone(),
            task.clone(),
            physics(task, 1.0),
            cloud(),
        )
        .unwrap()
        .with_options(ExecOptions {
            seed: 11,
            faults,
            retry: Some(RetryPolicy {
                max_retries: 6,
                base_backoff_secs: 120.0,
                max_backoff_secs: 240.0,
                request_timeout_secs: 480.0,
            }),
            ..ExecOptions::default()
        })
    }

    /// Market comparison off, so a zone scenario isolates the zone
    /// behavior (the probe test covers market flips).
    fn zone_config(execute: bool) -> ControllerConfig {
        ControllerConfig {
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            market: MarketConfig {
                enabled: false,
                execute,
            },
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn zone_outage_executed_switch_beats_the_advisory_controller() {
        let task = resnet101_cifar10();
        // Scale-ups at stages 2 and 3 keep asking the (dead) home zone
        // for capacity.
        let plan = AllocationPlan::new(vec![4, 4, 8, 16]);
        let mk_exec = || zone_outage_executor(&task, &plan);
        let deadline = SimDuration::from_secs(27 * 60);
        let run = |execute: bool| {
            let sim = Simulator::new(physics(&task, 1.0), cloud());
            let mut ctrl =
                AdaptiveController::new(sim, spec(), &plan, deadline, zone_config(execute))
                    .unwrap();
            let r = mk_exec()
                .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
                .unwrap();
            (r, ctrl.into_log())
        };
        let open = mk_exec().run(&configs(8, 3)).unwrap();
        let (_, advisory_log) = run(false);
        let (executed, executed_log) = run(true);
        // Both controllers saw the degraded zone; only execute mode
        // moved capacity out of it.
        for log in [&advisory_log, &executed_log] {
            assert!(
                log.events
                    .iter()
                    .any(|e| e.trigger == ReplanTrigger::ZoneDegraded),
                "{:?}",
                log.events
            );
        }
        assert_eq!(advisory_log.executed_switches(), 0);
        assert!(executed_log.executed_switches() >= 1);
        // Open loop re-enters the dead home zone at every scale-up and
        // pays the denial + backoff each time, blowing the deadline; the
        // executed zone move escapes the zone for good and recovers it.
        assert!(
            open.jct > deadline,
            "open loop was supposed to miss: {} ≤ {deadline}",
            open.jct
        );
        assert!(
            executed.jct <= deadline,
            "executed switch missed the deadline: {} > {deadline}",
            executed.jct
        );
        assert_eq!(executed.best_accuracy, open.best_accuracy);
    }

    /// The drift trigger off and the watchdog disarmed: on a calm run
    /// only the execute-mode market probe can re-plan, and once the probe
    /// has moved the fleet onto spot, a stage that absorbs a preemption
    /// re-plans too.
    fn probe_config() -> ControllerConfig {
        ControllerConfig {
            drift: DriftConfig {
                replan_threshold: 100.0,
            },
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            market: MarketConfig {
                execute: true,
                ..MarketConfig::default()
            },
        }
    }

    #[test]
    fn market_probe_executes_a_switch_to_cheaper_spot_capacity() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 8, 8]);
        let open = executor(&task, &plan, 1.0).run(&configs(8, 3)).unwrap();
        // Calm run, generous deadline: nothing triggers except the
        // execute-mode market probe, which finds spot feasible and far
        // cheaper and drains the fleet onto it.
        let mut ctrl = controller(&plan, SimDuration::from_hours(4), probe_config());
        let switched = executor(&task, &plan, 1.0)
            .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
            .unwrap();
        let log = ctrl.into_log();
        let first = log
            .events
            .iter()
            .find(|e| e.market_executed)
            .expect("the probe never executed a switch");
        assert_eq!(first.trigger, ReplanTrigger::MarketSwitch);
        assert_eq!(first.market, MarketChoice::Spot);
        assert!(first.market_switched);
        // Once on spot, the probe stops re-advising the same move: the
        // planning view followed the executed market.
        assert_eq!(
            log.events
                .iter()
                .filter(|e| e.trigger == ReplanTrigger::MarketSwitch && e.market_executed)
                .count(),
            1,
            "{:?}",
            log.events
        );
        // The residual ran at the spot discount: cheaper than open loop
        // even after paying the drain + re-provision cycle.
        assert!(
            switched.compute_cost < open.compute_cost,
            "switched {} !< open {}",
            switched.compute_cost,
            open.compute_cost
        );
        assert_eq!(switched.best_accuracy, open.best_accuracy);
    }

    #[test]
    fn adaptive_execution_is_deterministic_per_seed() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 8, 8]);
        let run = || {
            let mut ctrl = controller(
                &plan,
                SimDuration::from_secs(1200),
                ControllerConfig::default(),
            );
            let r = executor(&task, &plan, 1.5)
                .run_observed(&configs(8, 3), &mut ctrl, RecorderHandle::noop())
                .unwrap();
            (r, ctrl.into_log())
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.compute_cost, b.compute_cost);
        assert_eq!(la.events.len(), lb.events.len());
        for (x, y) in la.events.iter().zip(&lb.events) {
            assert_eq!(x.new_suffix, y.new_suffix);
            assert_eq!(x.drift_factor, y.drift_factor);
        }
    }

    /// A snapshot-level observation: `slowdown`× the nominal unit
    /// latency on single-GPU packed gangs.
    fn slowed_units(ctrl: &AdaptiveController, slowdown: f64, units: u64) -> [UnitObservation; 1] {
        let nominal = ctrl
            .sim
            .model()
            .unit_mean_secs(1, rb_scaling::PlacementQuality::Packed);
        [UnitObservation {
            gpus: 1,
            placement: rb_scaling::PlacementQuality::Packed,
            mean_secs: nominal * slowdown,
            units,
        }]
    }

    fn barrier_at<'a>(
        stage: usize,
        unit_obs: &'a [UnitObservation],
        plan: &'a AllocationPlan,
    ) -> BarrierSnapshot<'a> {
        BarrierSnapshot {
            stage,
            num_stages: 4,
            now: SimTime::ZERO + SimDuration::from_secs(300),
            stage_span: SimDuration::from_secs(240),
            cost_to_date: Cost::ZERO,
            preemptions: 0,
            instances: 2,
            survivors: 4,
            gpus_per_trial: 1,
            unit_obs,
            capacity_shortfall: 0,
            capacity_events: CapacityEvents::default(),
            home_zone: 0,
            num_zones: 1,
            plan,
        }
    }

    fn p90s(ctrl: &AdaptiveController) -> Vec<f64> {
        ctrl.monitor()
            .expected()
            .iter()
            .map(|q| q.p90_secs)
            .collect()
    }

    /// A refit moves the envelope at a barrier even when the suffix is
    /// kept, but not at a watchdog cut: there the stages after the cut
    /// stay on the pre-refit envelope until a suffix is applied. Moving
    /// them changes the watchdog budgets of later stages, so this pins
    /// the current rule.
    #[test]
    fn refit_without_a_splice_retargets_at_a_barrier_but_not_at_a_watchdog() {
        let plan = AllocationPlan::new(vec![8, 4, 4, 4]);
        let mut cut = controller(
            &plan,
            SimDuration::from_hours(1),
            ControllerConfig::default(),
        );
        let before = p90s(&cut);
        let obs = slowed_units(&cut, 3.0, 8);
        let snap = WatchdogSnapshot {
            stage: 1,
            num_stages: 4,
            now: SimTime::ZERO + SimDuration::from_secs(300),
            stage_start: SimTime::ZERO + SimDuration::from_secs(100),
            budget_secs: 100.0,
            units: 4,
            max_remaining_units: 2,
            unit_obs: &obs,
            cost_to_date: Cost::ZERO,
            preemptions: 0,
            instances: 2,
            survivors: 4,
            capacity_events: CapacityEvents::default(),
            home_zone: 0,
            num_zones: 1,
            plan: &plan,
        };
        assert_eq!(cut.at_watchdog(&snap), None);
        assert_eq!(cut.refits().len(), 1);
        assert!(!cut.events()[0].applied);
        let refit_view = cut
            .sim
            .stage_quantiles(&spec().suffix(2).unwrap(), &AllocationPlan::new(vec![4, 4]))
            .unwrap();
        assert_eq!(p90s(&cut)[2..], before[2..]);
        assert!(refit_view[0].p90_secs > 2.0 * before[2]);

        // The residual planner keeps this incumbent's suffix too.
        let plan = AllocationPlan::new(vec![8, 8, 4, 4]);
        let mut barrier = controller(
            &plan,
            SimDuration::from_hours(1),
            ControllerConfig::default(),
        );
        let before = p90s(&barrier);
        let obs = slowed_units(&barrier, 3.0, 16);
        let snap = BarrierSnapshot {
            capacity_shortfall: 1,
            ..barrier_at(0, &obs, &plan)
        };
        assert_eq!(barrier.at_barrier(&snap), None);
        assert_eq!(barrier.refits().len(), 1);
        assert!(!barrier.events()[0].applied);
        let refit_view = barrier
            .sim
            .stage_quantiles(
                &spec().suffix(1).unwrap(),
                &AllocationPlan::new(vec![8, 4, 4]),
            )
            .unwrap();
        let moved = p90s(&barrier);
        assert!(moved[3] > 2.0 * before[3]);
        for q in &refit_view {
            assert_eq!(moved[1 + q.stage], q.p90_secs);
        }
    }

    /// In execute mode a troubled capacity window on a multi-zone cloud
    /// moves future capacity to the neighbor zone whatever the trigger
    /// was, a capacity shortfall included.
    #[test]
    fn a_shortfall_barrier_in_a_troubled_zone_moves_zones() {
        let plan = AllocationPlan::new(vec![8, 4, 4, 4]);
        let mut ctrl = controller(&plan, SimDuration::from_hours(1), zone_config(true));
        let snap = BarrierSnapshot {
            capacity_shortfall: 1,
            capacity_events: CapacityEvents {
                requests: 4,
                denials: 3,
                retries: 3,
                outage_kills: 0,
            },
            num_zones: 2,
            ..barrier_at(0, &[], &plan)
        };
        ctrl.at_barrier(&snap);
        let event = &ctrl.events()[0];
        assert_eq!(event.trigger, ReplanTrigger::CapacityShortfall);
        assert!(event.market_executed);
        let directive = ctrl.pending_switch().expect("a zone move was armed");
        assert_eq!(directive.zone, Some(1));
        assert_eq!(directive.market, None);
    }

    /// FNV-1a/64 of `bytes`.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs `exec` under a controller over the nominal model with one
    /// recorder on the executor and the planning simulator, and returns
    /// the digests of the JSONL export and of the adaptation log's
    /// `Debug` form.
    fn recorded_digests(
        exec: &Executor,
        plan: &AllocationPlan,
        deadline: SimDuration,
        config: ControllerConfig,
    ) -> (u64, u64) {
        let task = resnet101_cifar10();
        let sink = Arc::new(rb_obs::MemoryRecorder::new());
        let recorder = rb_obs::RecorderHandle::new(sink.clone());
        let sim = Simulator::new(physics(&task, 1.0), cloud()).with_recorder(recorder.clone());
        let mut ctrl = AdaptiveController::new(sim, spec(), plan, deadline, config).unwrap();
        exec.run_observed(&configs(8, 3), &mut ctrl, recorder)
            .unwrap();
        let jsonl = rb_obs::export::export_jsonl(&sink.finish());
        let log = format!("{:?}", ctrl.into_log());
        (fnv1a64(jsonl.as_bytes()), fnv1a64(log.as_bytes()))
    }

    /// Pins the bytes the controller and the executor write to the bus,
    /// and the adaptation log, for one scenario per re-plan route: a
    /// drift re-plan with a refit, a watchdog cut, an executed zone move
    /// and an executed market probe.
    #[test]
    fn controller_event_streams_are_pinned() {
        let task = resnet101_cifar10();
        let flat = AllocationPlan::new(vec![8, 8, 8, 8]);
        let slow = executor(&task, &flat, 1.6);
        let open = slow.run(&configs(8, 3)).unwrap();
        let drift_deadline = SimDuration::from_secs_f64(open.jct.as_secs_f64() * 0.85);
        let contended = AllocationPlan::new(vec![2, 2, 2, 16]);
        let zoned = AllocationPlan::new(vec![4, 4, 8, 16]);
        let got = [
            recorded_digests(&slow, &flat, drift_deadline, ControllerConfig::default()),
            recorded_digests(
                &contended_executor(&task, &contended),
                &contended,
                SimDuration::from_hours(1),
                ControllerConfig::default(),
            ),
            recorded_digests(
                &zone_outage_executor(&task, &zoned),
                &zoned,
                SimDuration::from_secs(27 * 60),
                zone_config(true),
            ),
            recorded_digests(
                &executor(&task, &flat, 1.0),
                &flat,
                SimDuration::from_hours(4),
                probe_config(),
            ),
        ];
        let pinned = [
            (0xb250_7aaa_046d_c65a, 0xd977_6a4f_77b4_bba4),
            (0xf640_38a0_da8e_32ac, 0x09e2_da8c_07ad_127d),
            (0xea6c_1035_2eb8_a27e, 0x0f19_a7b4_6921_c399),
            (0xffb0_e4d6_ead0_3f61, 0x5e71_1e31_8d06_b848),
        ];
        assert_eq!(got, pinned, "got {got:#x?}");
    }
}
