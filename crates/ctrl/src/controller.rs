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
use rb_profile::CapacityEvents;
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
    /// large values approach barrier-only adaptation.
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

/// Online profile-refitting knobs.
///
/// Instead of scaling the whole model by one drift factor, the
/// controller least-squares-refits the scaling model's compute and
/// communication components against the observed per-stage,
/// per-allocation latencies ([`RefitScaling`]) — which is what lets
/// `plan_residual` distinguish a uniform compute slowdown from
/// parallelism-dependent contention.
#[derive(Debug, Clone)]
pub struct RefitConfig {
    /// Refit the planner's model when a re-plan triggers (default: true).
    pub enabled: bool,
    /// Minimum relative change of either factor before a new fit
    /// replaces the applied one (default: 0.10). Suppresses churn from
    /// noise-level fit wiggle.
    pub min_change: f64,
}

impl Default for RefitConfig {
    fn default() -> Self {
        RefitConfig {
            enabled: true,
            min_change: 0.10,
        }
    }
}

/// Spot-aware residual planning knobs.
///
/// Every re-plan evaluates the residual under *both* markets — the
/// executing one and its alternative (spot priced with the observed
/// interruption rate, or on-demand with none) — and records which market
/// the Monte-Carlo simulator prefers. By default the choice is advisory:
/// the executor keeps its launch market, but the preference is logged in
/// [`ReplanEvent::market`] and emitted on the bus, so a supervisor can
/// act on it. With [`MarketConfig::execute`] the controller acts on it
/// itself: the preference becomes a [`SwitchDirective`] the executor
/// drains the fleet through at the same safe point, and a degraded zone
/// is abandoned for its neighbor the same way.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Evaluate the alternative market at every re-plan (default: true).
    pub enabled: bool,
    /// Interruption-rate prior for pricing the spot alternative while
    /// running on-demand, in preemptions per instance-hour (default:
    /// 4.0). Once the job runs on spot, the observed rate replaces it.
    pub assumed_spot_rate_per_hour: f64,
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
            assumed_spot_rate_per_hour: 4.0,
            execute: false,
        }
    }
}

/// Controller knobs: drift detection plus the re-planner's configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Drift detection.
    pub drift: DriftConfig,
    /// Configuration for mid-job residual re-planning. Defaults to the
    /// standard planner with a small exploration-sample budget — re-plans
    /// happen on the critical path, so candidates are screened at low
    /// fidelity and only survivors are re-scored in full.
    pub planner: PlannerConfig,
    /// Intra-stage watchdog.
    pub watchdog: WatchdogConfig,
    /// Online profile refitting.
    pub refit: RefitConfig,
    /// Spot-vs-on-demand residual evaluation.
    pub market: MarketConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            drift: DriftConfig::default(),
            planner: PlannerConfig {
                exploration_samples: Some(5),
                ..PlannerConfig::default()
            },
            watchdog: WatchdogConfig::default(),
            refit: RefitConfig::default(),
            market: MarketConfig::default(),
        }
    }
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

    /// A fresh simulator sharing this controller's model view and engine
    /// configuration but running over `cloud` — used to price the
    /// alternative market without touching the planning simulator.
    fn sibling_sim(&self, cloud: rb_profile::CloudProfile) -> Simulator {
        Simulator::new(self.sim.model().clone(), cloud)
            .with_config(self.sim.config().clone())
            .with_engine(*self.sim.engine())
    }

    /// Emits the replan-trigger counter and instant for `trigger`.
    fn note_trigger(
        &self,
        trigger: ReplanTrigger,
        stage: usize,
        now: SimTime,
        recorder: &rb_obs::RecorderHandle,
    ) {
        recorder.counter_add("ctrl", "replans_triggered", 1);
        if recorder.enabled() {
            recorder.instant(
                now,
                "ctrl",
                "replan.trigger",
                Lane::Controller,
                vec![
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
                ],
            );
        }
    }

    /// In execute mode, converts a decision into the [`SwitchDirective`]
    /// the executor will poll at this same safe point: the preferred
    /// market (with its interruption expectation for future capacity)
    /// and/or the neighbor zone when the home zone degraded. Returns
    /// whether a directive was armed.
    fn arm_switch(
        &mut self,
        market: MarketChoice,
        market_switched: bool,
        zone_move: bool,
        home_zone: u32,
        num_zones: u32,
    ) -> bool {
        if !self.config.market.execute {
            return false;
        }
        let mut directive = SwitchDirective::default();
        if market_switched {
            directive.market = Some(market.tier());
            directive.interruption_rate_per_hour = Some(match market {
                MarketChoice::Spot => self.config.market.assumed_spot_rate_per_hour,
                MarketChoice::OnDemand => 0.0,
            });
        }
        if zone_move && num_zones > 1 {
            directive.zone = Some((home_zone + 1) % num_zones);
        }
        if directive.is_empty() {
            return false;
        }
        if let (Some(tier), Some(rate)) = (directive.market, directive.interruption_rate_per_hour) {
            // The planning view follows the executed market: without
            // this, every later barrier would score "current" against
            // the abandoned tier and re-advise the same switch forever.
            let recorder = self.sim.recorder().clone();
            let mut cloud = self.sim.cloud().clone();
            cloud.pricing = cloud.pricing.with_tier(tier);
            cloud.spot_interruptions_per_hour = rate;
            self.sim = self.sibling_sim(cloud).with_recorder(recorder);
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
    /// `min_change`, swaps the refit model into the planning simulator.
    /// Returns whether a new fit was applied.
    fn try_refit(&mut self, stage: usize, now: SimTime) -> bool {
        if !self.config.refit.enabled || self.obs.is_empty() {
            return false;
        }
        let Some((alpha, beta)) = refit_least_squares(self.base_model.scaling.as_ref(), &self.obs)
        else {
            return false;
        };
        let (cur_a, cur_b) = self.refit.unwrap_or((1.0, 1.0));
        let change = (alpha / cur_a - 1.0).abs().max((beta / cur_b - 1.0).abs());
        if change < self.config.refit.min_change {
            return false;
        }
        let mut model = self.base_model.clone();
        model.scaling = Arc::new(RefitScaling::new(
            self.base_model.scaling.clone(),
            alpha,
            beta,
        ));
        let cloud = self.sim.cloud().clone();
        let sim_config = self.sim.config().clone();
        let engine = *self.sim.engine();
        let recorder = self.sim.recorder().clone();
        self.sim = Simulator::new(model, cloud)
            .with_config(sim_config)
            .with_engine(engine)
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

    /// Plans the residual under the executing market, and — when market
    /// evaluation is enabled — prices the same residual under the
    /// alternative market (spot at the observed/assumed interruption
    /// rate, or on-demand with none). A non-calm capacity window
    /// risk-prices *both* markets first: the provisioning-delay model is
    /// stretched by the observed denial/retry/outage distribution, so
    /// the planner stops assuming the calibrated steady state mid-storm.
    /// Returns the authoritative outcome (from the executing market)
    /// plus the preferred market and whether it differs from the
    /// executing one.
    #[allow(clippy::too_many_arguments)] // The residual problem plus the barrier and watchdog observations.
    fn plan_residual_markets(
        &mut self,
        residual_spec: &ExperimentSpec,
        residual_deadline: SimDuration,
        warm: &AllocationPlan,
        now: SimTime,
        preemptions: u32,
        instance_seconds: f64,
        window: &CapacityEvents,
    ) -> Option<(ResidualOutcome, MarketChoice, bool)> {
        let risky = window.requests > 0 && !window.is_calm();
        let base_cloud = self.sim.cloud().risk_from_events(window);
        if risky {
            let recorder = self.sim.recorder().clone();
            if recorder.enabled() {
                let stretch = if self.sim.cloud().provision_delay.mean() > 0.0 {
                    base_cloud.provision_delay.mean() / self.sim.cloud().provision_delay.mean()
                } else {
                    1.0
                };
                recorder.instant(
                    now,
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
        }
        let out = if risky {
            plan_residual(
                &self.sibling_sim(base_cloud.clone()),
                residual_spec,
                residual_deadline,
                warm,
                &self.config.planner,
            )
            .ok()?
        } else {
            plan_residual(
                &self.sim,
                residual_spec,
                residual_deadline,
                warm,
                &self.config.planner,
            )
            .ok()?
        };
        let current = MarketChoice::of(self.sim.cloud().pricing.tier);
        if !self.config.market.enabled {
            return Some((out, current, false));
        }

        // Score for the executing market. On spot with enough history the
        // observed interruption rate replaces the profile's configured
        // one, so the comparison reflects the churn actually seen.
        let mut cur_feasible = out.feasible;
        let mut cur_cost = out.prediction.cost.as_dollars();
        if current == MarketChoice::Spot && instance_seconds > 0.0 {
            let observed_rate = f64::from(preemptions) / (instance_seconds / 3600.0);
            if observed_rate.is_finite() {
                let mut cur_cloud = base_cloud.clone();
                cur_cloud.spot_interruptions_per_hour = observed_rate;
                if let Ok(cur) = plan_residual(
                    &self.sibling_sim(cur_cloud),
                    residual_spec,
                    residual_deadline,
                    warm,
                    &self.config.planner,
                ) {
                    cur_feasible = cur.feasible;
                    cur_cost = cur.prediction.cost.as_dollars();
                }
            }
        }

        let mut alt_cloud = base_cloud;
        let alt_market = match current {
            MarketChoice::OnDemand => {
                alt_cloud.pricing = alt_cloud.pricing.with_spot();
                // No spot history while on-demand: price interruptions at
                // the configured prior.
                alt_cloud.spot_interruptions_per_hour =
                    self.config.market.assumed_spot_rate_per_hour;
                MarketChoice::Spot
            }
            MarketChoice::Spot => {
                alt_cloud.pricing.tier = PricingTier::OnDemand;
                alt_cloud.spot_interruptions_per_hour = 0.0;
                MarketChoice::OnDemand
            }
        };
        let alt = plan_residual(
            &self.sibling_sim(alt_cloud),
            residual_spec,
            residual_deadline,
            warm,
            &self.config.planner,
        )
        .ok();
        let switched = alt.as_ref().is_some_and(|alt| {
            (alt.feasible && !cur_feasible)
                || (alt.feasible == cur_feasible && alt.prediction.cost.as_dollars() < cur_cost)
        });
        let market = if switched { alt_market } else { current };
        if switched {
            let recorder = self.sim.recorder().clone();
            recorder.counter_add("ctrl", "market_switches_advised", 1);
            if recorder.enabled() {
                let alt = alt.as_ref().expect("switched implies alt");
                recorder.instant(
                    now,
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
}

impl BarrierHook for AdaptiveController {
    fn at_barrier(&mut self, snap: &BarrierSnapshot<'_>) -> Option<Vec<u32>> {
        self.monitor.observe(snap.stage, snap.stage_span);
        self.push_observations(snap.unit_obs);
        let recorder = self.sim.recorder().clone();
        // The drift-factor time series: one gauge per barrier, whether or
        // not the controller intervenes.
        recorder.gauge(
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
        } else if self.config.drift.replan_on_preemption && fresh_preemptions > 0 {
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
            self.note_trigger(trigger, snap.stage, snap.now, &recorder);
        }
        let drift_at_decision = self.monitor.drift_factor();

        let next = snap.stage + 1;
        // Residual job: the spec's suffix (survivor progress lives in
        // checkpoints), warm-started from the incumbent plan's suffix.
        let residual_spec = self.spec.suffix(next).ok()?;
        let old_suffix = snap.plan.as_slice()[next..].to_vec();
        let warm = AllocationPlan::new(old_suffix.clone());
        // Refit before planning so the residual is scored on the best
        // available model; the envelope must track the refit view even if
        // no new suffix is applied below. The probe-only path skips the
        // refit: with nothing wrong, swapping models on every barrier
        // would churn the envelope for no cause.
        if trigger.is_some() && self.try_refit(snap.stage, snap.now) {
            if let Ok(qs) = self.sim.stage_quantiles(&residual_spec, &warm) {
                self.monitor.retarget(next, qs);
            }
        }
        let residual_deadline = self.dilated_residual_deadline(snap.now);
        // A planner failure must not kill the job; keep the incumbent.
        let (out, market, market_switched) = self.plan_residual_markets(
            &residual_spec,
            residual_deadline,
            &warm,
            snap.now,
            snap.preemptions,
            snap.instance_seconds,
            &window,
        )?;
        let trigger = match trigger {
            Some(t) => t,
            None => {
                if !market_switched {
                    return None;
                }
                self.note_trigger(ReplanTrigger::MarketSwitch, snap.stage, snap.now, &recorder);
                ReplanTrigger::MarketSwitch
            }
        };
        let market_executed = self.arm_switch(
            market,
            market_switched,
            trigger == ReplanTrigger::ZoneDegraded,
            snap.home_zone,
            snap.num_zones,
        );

        let new_suffix = out.plan.as_slice().to_vec();
        let applied = new_suffix != old_suffix;
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
                snap.now,
                "ctrl",
                if applied {
                    "replan.apply"
                } else {
                    "replan.reject"
                },
                Lane::Controller,
                vec![
                    ("stage", snap.stage.into()),
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
                self.monitor.retarget(next, qs);
            }
        }
        self.events.push(ReplanEvent {
            stage: snap.stage,
            at: snap.now,
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
        let recorder = self.sim.recorder().clone();
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

        recorder.counter_add("ctrl", "replans_triggered", 1);
        if recorder.enabled() {
            recorder.instant(
                snap.now,
                "ctrl",
                "replan.trigger",
                Lane::Controller,
                vec![
                    ("stage", snap.stage.into()),
                    ("trigger", "watchdog".into()),
                    ("drift_factor", self.monitor.drift_factor().into()),
                    ("budget_secs", snap.budget_secs.into()),
                    ("remaining_units", snap.max_remaining_units.into()),
                ],
            );
        }
        let drift_at_decision = self.monitor.drift_factor();

        // Residual spec: the interrupted stage's survivors with their
        // residual units, then the untouched tail of the original spec.
        let mut stages: Vec<(u32, u64)> = Vec::new();
        for s in snap.stage..self.spec.num_stages() {
            let (trials, units) = self.spec.get_stage(s).ok()?;
            stages.push(if s == snap.stage {
                (trials, snap.max_remaining_units.max(1))
            } else {
                (trials, units)
            });
        }
        let residual_spec = ExperimentSpec::from_stages(&stages).ok()?;
        let old_suffix = snap.plan.as_slice()[snap.stage..].to_vec();
        let warm = AllocationPlan::new(old_suffix.clone());
        self.try_refit(snap.stage, snap.now);
        let residual_deadline = self.dilated_residual_deadline(snap.now);
        let planned = self.plan_residual_markets(
            &residual_spec,
            residual_deadline,
            &warm,
            snap.now,
            snap.preemptions,
            snap.instance_seconds,
            &window,
        );
        // Whatever happens below, this stage's eventual barrier span
        // includes the checkpoint/re-plan detour and must not be read as
        // drift again.
        self.monitor.invalidate(snap.stage);
        let (out, market, market_switched) = planned?;
        let market_executed = self.arm_switch(
            market,
            market_switched,
            snap.num_zones > 1 && !window.is_calm(),
            snap.home_zone,
            snap.num_zones,
        );

        let new_suffix = out.plan.as_slice().to_vec();
        let applied = new_suffix != old_suffix;
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
                snap.now,
                "ctrl",
                if applied {
                    "replan.apply"
                } else {
                    "replan.reject"
                },
                Lane::Controller,
                vec![
                    ("stage", snap.stage.into()),
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
            if let Ok(qs) = self.sim.stage_quantiles(&residual_spec, &out.plan) {
                self.monitor.retarget(snap.stage, qs);
            }
            // Retargeting restored the interrupted stage's envelope slot;
            // its barrier span is still contaminated by the detour.
            self.monitor.invalidate(snap.stage);
        }
        self.events.push(ReplanEvent {
            stage: snap.stage,
            at: snap.now,
            trigger: ReplanTrigger::Watchdog,
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
            .run_hooked(&configs(8, 3), &mut ctrl)
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
            .run_hooked(&configs(8, 3), &mut ctrl)
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
                ..DriftConfig::default()
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
        let report = exec.run_hooked(&configs(8, 3), &mut ctrl).unwrap();
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

    #[test]
    fn watchdog_recovers_a_hidden_final_stage_slowdown() {
        let task = resnet101_cifar10();
        // Early stages run 2-GPU gangs (communication share ≈ 0) and stay
        // inside the drift band; the 16-GPU final stage is slowed hard by
        // the contention — and has no barrier after it, so barrier-only
        // adaptation structurally cannot react to it.
        let plan = AllocationPlan::new(vec![2, 2, 2, 16]);
        let run = |config: Option<ControllerConfig>| {
            let exec = Executor::new(
                spec(),
                plan.clone(),
                task.clone(),
                comm_physics(&task, 6.0),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 11,
                ..ExecOptions::default()
            });
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
                    let r = exec.run_hooked(&configs(8, 3), &mut ctrl).unwrap();
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

    #[test]
    fn zone_outage_executed_switch_beats_the_advisory_controller() {
        use rb_cloud::{FaultPlan, ZonePlan, ZoneWindow};
        use rb_exec::RetryPolicy;
        let task = resnet101_cifar10();
        // Scale-ups at stages 2 and 3 keep asking the (dead) home zone
        // for capacity.
        let plan = AllocationPlan::new(vec![4, 4, 8, 16]);
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
        let mk_exec = || {
            Executor::new(
                spec(),
                plan.clone(),
                task.clone(),
                physics(&task, 1.0),
                cloud(),
            )
            .unwrap()
            .with_options(ExecOptions {
                seed: 11,
                faults: faults.clone(),
                retry: Some(RetryPolicy {
                    max_retries: 6,
                    base_backoff_secs: 120.0,
                    max_backoff_secs: 240.0,
                    request_timeout_secs: 480.0,
                }),
                ..ExecOptions::default()
            })
        };
        let deadline = SimDuration::from_secs(27 * 60);
        let run = |execute: bool| {
            // Market comparison off: this test isolates the zone
            // behavior (the probe test below covers market flips).
            let config = ControllerConfig {
                watchdog: WatchdogConfig {
                    enabled: false,
                    ..WatchdogConfig::default()
                },
                market: MarketConfig {
                    enabled: false,
                    execute,
                    ..MarketConfig::default()
                },
                ..ControllerConfig::default()
            };
            let sim = Simulator::new(physics(&task, 1.0), cloud());
            let mut ctrl = AdaptiveController::new(sim, spec(), &plan, deadline, config).unwrap();
            let r = mk_exec().run_hooked(&configs(8, 3), &mut ctrl).unwrap();
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

    #[test]
    fn market_probe_executes_a_switch_to_cheaper_spot_capacity() {
        let task = resnet101_cifar10();
        let plan = AllocationPlan::new(vec![8, 8, 8, 8]);
        let open = executor(&task, &plan, 1.0).run(&configs(8, 3)).unwrap();
        // Calm run, generous deadline: nothing triggers except the
        // execute-mode market probe, which finds spot feasible and far
        // cheaper and drains the fleet onto it.
        let config = ControllerConfig {
            drift: DriftConfig {
                replan_threshold: 100.0,
                replan_on_preemption: false,
                ..DriftConfig::default()
            },
            watchdog: WatchdogConfig {
                enabled: false,
                ..WatchdogConfig::default()
            },
            market: MarketConfig {
                execute: true,
                ..MarketConfig::default()
            },
            ..ControllerConfig::default()
        };
        let mut ctrl = controller(&plan, SimDuration::from_hours(4), config);
        let switched = executor(&task, &plan, 1.0)
            .run_hooked(&configs(8, 3), &mut ctrl)
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
                .run_hooked(&configs(8, 3), &mut ctrl)
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
}
