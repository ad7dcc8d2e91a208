//! Protocol selection for the harness: the one place a [`Protocol`]
//! becomes a concrete agent factory and a driver run.

use std::sync::Arc;
use vdm_baselines::{BtpFactory, HmtpFactory, StarFactory};
use vdm_core::VdmFactory;
use vdm_netsim::{FaultPlan, HostId, RoutedUnderlay, Underlay};
use vdm_overlay::agent::{AgentConfig, AgentFactory};
use vdm_overlay::driver::{Driver, DriverConfig, RunOutput};
use vdm_overlay::scenario::Scenario;

/// The protocols under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// VDM with delay virtual distances (the paper's default).
    Vdm,
    /// VDM with loss virtual distances (Chapter 4); the probe noise
    /// comes from [`DriverConfig::loss_probe_noise`].
    VdmL,
    /// VDM-D plus periodic refinement (§5.4.5), period in seconds.
    VdmR(u64),
    /// HMTP with the given refinement period in seconds.
    Hmtp(u64),
    /// BTP (switch-trees) with the given switch period in seconds.
    Btp(u64),
    /// Unicast star.
    Star,
}

/// One simulated session, everything but the protocol: what
/// [`Protocol::run`] hands the driver.
pub struct Session<'a> {
    /// Latency/loss model the agents measure.
    pub underlay: Arc<dyn Underlay + Send + Sync>,
    /// The same underlay's routed view, when link stress is measurable.
    pub routed: Option<Arc<RoutedUnderlay>>,
    /// The streaming source.
    pub source: HostId,
    /// Joins, leaves, crashes and measurement points.
    pub scenario: &'a Scenario,
    /// Out-degree limit per host.
    pub limits: Vec<u32>,
    /// Stream and measurement settings.
    pub cfg: DriverConfig,
    /// Seeds every RNG stream of the run.
    pub seed: u64,
    /// Applied to the protocol's own agent config (identity unless a
    /// family hardens the control plane, e.g. [`AgentConfig::hardened`]).
    pub agent: &'a dyn Fn(AgentConfig) -> AgentConfig,
    /// Faults injected into the simulator before the run.
    pub faults: Option<FaultPlan>,
}

impl<'a> Session<'a> {
    /// A session with the protocol's own agent config and no faults.
    pub fn new(
        underlay: Arc<dyn Underlay + Send + Sync>,
        routed: Option<Arc<RoutedUnderlay>>,
        source: HostId,
        scenario: &'a Scenario,
        limits: Vec<u32>,
        cfg: DriverConfig,
        seed: u64,
    ) -> Self {
        Self {
            underlay,
            routed,
            source,
            scenario,
            limits,
            cfg,
            seed,
            agent: &std::convert::identity,
            faults: None,
        }
    }

    fn drive<F: AgentFactory>(
        self,
        mut factory: F,
        agent: fn(&mut F) -> &mut AgentConfig,
    ) -> RunOutput {
        let a = agent(&mut factory);
        *a = (self.agent)(*a);
        let mut driver = Driver::new(
            self.underlay,
            self.routed,
            self.source,
            factory,
            self.scenario,
            self.limits,
            self.cfg,
            self.seed,
        );
        if let Some(plan) = self.faults {
            driver.set_fault_plan(plan);
        }
        driver.run()
    }
}

impl Protocol {
    /// Display name for tables.
    pub fn name(self) -> String {
        match self {
            Protocol::Vdm => "VDM".into(),
            Protocol::VdmL => "VDM-L".into(),
            Protocol::VdmR(_) => "VDM-R".into(),
            Protocol::Hmtp(0) => "HMTP-NR".into(),
            Protocol::Hmtp(_) => "HMTP".into(),
            Protocol::Btp(_) => "BTP".into(),
            Protocol::Star => "Star".into(),
        }
    }

    /// Run `session` with this protocol's agent factory.
    pub fn run(self, session: Session<'_>) -> RunOutput {
        match self {
            Protocol::Vdm => session.drive(VdmFactory::delay_based(), |f| &mut f.agent),
            Protocol::VdmL => session.drive(VdmFactory::loss_based(), |f| &mut f.agent),
            Protocol::VdmR(p) => session.drive(VdmFactory::with_refinement(p), |f| &mut f.agent),
            Protocol::Hmtp(p) => {
                session.drive(HmtpFactory::with_refine_period(p), |f| &mut f.agent)
            }
            Protocol::Btp(p) => session.drive(BtpFactory::with_refine_period(p), |f| &mut f.agent),
            Protocol::Star => session.drive(StarFactory::default(), |f| &mut f.agent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ch3_setup, degree_limits_range};
    use vdm_overlay::scenario::ChurnConfig;

    #[test]
    fn every_protocol_builds_a_tree_on_the_ch3_testbed() {
        let s = ch3_setup(12, 0.0, 1);
        let scenario = Scenario::churn(
            &ChurnConfig {
                members: 12,
                warmup_s: 60.0,
                slot_s: 60.0,
                slots: 1,
                churn_pct: 0.0,
            },
            &s.candidates,
            1,
        );
        let mut limits = degree_limits_range(13, 2, 5, 1);
        limits[0] = 64; // the star needs an unconstrained source
        for proto in [
            Protocol::Vdm,
            Protocol::VdmL,
            Protocol::VdmR(120),
            Protocol::Hmtp(60),
            Protocol::Btp(60),
            Protocol::Star,
        ] {
            let out = proto.run(Session::new(
                s.underlay.clone(),
                Some(s.underlay.clone()),
                s.source,
                &scenario,
                limits.clone(),
                DriverConfig {
                    compute_stress: true,
                    ..DriverConfig::default()
                },
                7,
            ));
            let last = out.stats.measurements.last().unwrap();
            assert_eq!(last.connected, 12, "{proto:?} left members dark");
            assert_eq!(last.tree_errors, 0, "{proto:?} broke the tree");
            assert!(last.stress.is_some(), "{proto:?} missing stress");
        }
    }
}
