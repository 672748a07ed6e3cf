//! The APPLE controller facade: one call from topology + traffic matrix to
//! a fully-programmed, policy-enforcing data plane.
//!
//! Mirrors the end-to-end flow of Fig. 1: classes are derived from traffic,
//! the Optimization Engine places instances, sub-classes realise the
//! fractional distribution, the Resource Orchestrator launches VMs, and the
//! Rule Generator programs switches and vSwitches.

use crate::classes::{ClassConfig, ClassSet};
use crate::engine::{EngineConfig, EngineError, OptimizationEngine, Placement};
use crate::failover::{DynamicHandler, FailoverError};
use crate::orchestrator::ResourceOrchestrator;
use crate::rules::{generate, DataPlaneProgram};
use crate::subclass::{SplitStrategy, SubclassPlan};
use apple_topology::Topology;
use apple_traffic::TrafficMatrix;

/// End-to-end configuration.
#[derive(Debug, Clone, Default)]
pub struct AppleConfig {
    /// Class construction knobs.
    pub classes: ClassConfig,
    /// Optimization Engine configuration. It has no settable values; the
    /// field stays for callers outside this workspace (ROADMAP item 9(a)).
    pub engine: EngineConfig,
}

/// CPU cores per APPLE host (the paper assumes 64).
const HOST_CORES: u32 = 64;

/// A planned APPLE deployment.
#[derive(Debug, Clone)]
pub struct Apple {
    classes: ClassSet,
    placement: Placement,
    plan: SubclassPlan,
    program: DataPlaneProgram,
    orchestrator: ResourceOrchestrator,
}

impl Apple {
    /// Plans a full deployment for one topology + traffic matrix.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when the optimisation fails (no classes, infeasible
    /// resources, or solver trouble). Rule generation cannot fail on its
    /// own here: a launch failure (which the engine's Eq. (6) precludes)
    /// reports as [`EngineError::Infeasible`].
    pub fn plan(
        topo: &Topology,
        tm: &TrafficMatrix,
        config: &AppleConfig,
    ) -> Result<Apple, EngineError> {
        Apple::plan_recorded(topo, tm, config, &apple_telemetry::NOOP)
    }

    /// [`Apple::plan`] with telemetry: classes / placement / sub-class /
    /// rule-generation stages run under `apple.classes`, `engine.*` (via
    /// [`OptimizationEngine::place_recorded`]), `apple.subclass` and
    /// `apple.rules` spans, and the resulting deployment's headline numbers
    /// are gauged (`apple.classes_built`, `tcam.rules_installed`,
    /// `tcam.reduction_ratio`).
    ///
    /// # Errors
    ///
    /// Same as [`Apple::plan`].
    pub fn plan_recorded(
        topo: &Topology,
        tm: &TrafficMatrix,
        config: &AppleConfig,
        rec: &dyn apple_telemetry::Recorder,
    ) -> Result<Apple, EngineError> {
        use apple_telemetry::RecorderExt;
        let classes = {
            let _s = rec.span("apple.classes");
            ClassSet::build(topo, tm, &config.classes)
        };
        rec.gauge("apple.classes_built", classes.len() as f64);
        let mut orchestrator = ResourceOrchestrator::with_uniform_hosts(topo, HOST_CORES);
        let engine = OptimizationEngine::new(config.engine.clone());
        let placement = engine.place_recorded(&classes, &orchestrator, rec)?;
        let plan = {
            let _s = rec.span("apple.subclass");
            SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit)
        };
        let _rules_span = rec.span("apple.rules");
        // The engine's Eq. (6) guarantees resources suffice; a launch
        // failure would mean the host model changed between place and
        // generate, which plan() precludes.
        let program = generate(topo, &classes, &plan, &placement, &mut orchestrator)
            .map_err(|_| EngineError::Infeasible)?;
        drop(_rules_span);
        rec.gauge("tcam.rules_installed", program.tcam.tagged_total as f64);
        rec.gauge("tcam.reduction_ratio", program.tcam.reduction_ratio());
        Ok(Apple {
            classes,
            placement,
            plan,
            program,
            orchestrator,
        })
    }

    /// The equivalence classes the deployment serves.
    pub fn classes(&self) -> &ClassSet {
        &self.classes
    }

    /// The Optimization Engine's placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The sub-class plan.
    pub fn subclasses(&self) -> &SubclassPlan {
        &self.plan
    }

    /// The programmed data plane (rule program, assignment, TCAM
    /// accounting).
    pub fn program(&self) -> &DataPlaneProgram {
        &self.program
    }

    /// The orchestrator with all launched instances.
    pub fn orchestrator(&self) -> &ResourceOrchestrator {
        &self.orchestrator
    }

    /// Mutable orchestrator access, for launching instances beyond the
    /// plan (an online placer) or driving a Dynamic Handler by hand.
    pub fn orchestrator_mut(&mut self) -> &mut ResourceOrchestrator {
        &mut self.orchestrator
    }

    /// Builds a Dynamic Handler initialised from this deployment.
    ///
    /// # Errors
    ///
    /// [`FailoverError::UnknownClass`] when the sub-class plan and class
    /// set disagree — impossible for a deployment built by [`Apple::plan`],
    /// but surfaced as an error rather than a panic.
    pub fn dynamic_handler(&self) -> Result<DynamicHandler, FailoverError> {
        DynamicHandler::from_assignment(&self.classes, &self.plan, &self.program.assignment)
    }

    /// Splits the deployment into the pieces the simulator needs to own.
    pub fn into_parts(
        self,
    ) -> (
        ClassSet,
        Placement,
        SubclassPlan,
        DataPlaneProgram,
        ResourceOrchestrator,
    ) {
        (
            self.classes,
            self.placement,
            self.plan,
            self.program,
            self.orchestrator,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_dataplane::packet::{HostTag, Packet};
    use apple_topology::zoo;
    use apple_traffic::{GravityModel, SeriesConfig, TmSeries};

    fn small_config() -> AppleConfig {
        AppleConfig {
            classes: ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn plan_end_to_end_on_internet2() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 41).base_matrix(&topo);
        let apple = Apple::plan(&topo, &tm, &small_config()).unwrap();
        assert!(apple.placement().total_instances() > 0);
        assert_eq!(
            apple.orchestrator().instance_count() as u32,
            apple.placement().total_instances()
        );
        assert!(apple.program().tcam.tagged_total > 0);
    }

    #[test]
    fn plan_from_series_mean() {
        let topo = zoo::internet2();
        let series = TmSeries::generate(&topo, &SeriesConfig::small(42));
        let apple = Apple::plan(&topo, &series.mean(), &small_config()).unwrap();
        // Every class's representative packet completes its chain.
        let walker = apple.program().rules.walker();
        for class in apple.classes() {
            let p = Packet::new(
                class.src_prefix.0 | 7,
                class.dst_prefix.0 | 9,
                50_000,
                443,
                6,
            );
            let rec = walker.walk(p, &class.path).unwrap();
            assert_eq!(rec.packet.host_tag, HostTag::Fin);
            assert_eq!(rec.instances.len(), class.chain.len());
        }
    }

    #[test]
    fn dynamic_handler_bootstraps_consistent() {
        let topo = zoo::geant();
        let tm = GravityModel::new(3_000.0, 43).base_matrix(&topo);
        let apple = Apple::plan(&topo, &tm, &small_config()).unwrap();
        let handler = apple.dynamic_handler().unwrap();
        assert!(handler.fractions_consistent());
        assert!(!handler.shares().is_empty());
    }

    #[test]
    fn into_parts_roundtrip() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(2_000.0, 44).base_matrix(&topo);
        let apple = Apple::plan(&topo, &tm, &small_config()).unwrap();
        let n = apple.placement().total_instances();
        let (classes, placement, plan, program, orch) = apple.into_parts();
        assert_eq!(placement.total_instances(), n);
        assert!(!classes.is_empty());
        assert!(!plan.is_empty());
        assert!(program.tcam.tagged_total > 0);
        assert_eq!(orch.instance_count() as u32, n);
    }
}
