//! EC2 instance types and lifecycle.
//!
//! The catalog covers the memory-optimized `r` family the paper runs on (its testbed
//! is `r6a.4xlarge`: 16 vCPU / 128 GiB) plus general-purpose alternatives, with
//! eu-central-1-ballpark on-demand prices. Right-sizing (§III-A: "a much smaller
//! index allows us to use smaller and cheaper instances") selects from this catalog
//! by memory fit.

use crate::time::SimTime;
use crate::CloudError;

/// An EC2 instance type with its resources and price.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceType {
    /// API name, e.g. `"r6a.4xlarge"`.
    pub name: &'static str,
    /// vCPU count.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gib: f64,
    /// On-demand price in USD/hour.
    pub on_demand_hourly_usd: f64,
}

impl InstanceType {
    /// Look up a type by name in the built-in catalog.
    pub fn by_name(name: &str) -> Result<&'static InstanceType, CloudError> {
        INSTANCE_CATALOG
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| CloudError::UnknownInstanceType(name.to_string()))
    }

    /// The cheapest catalog type with at least `memory_gib` of RAM and `vcpus` cores.
    pub fn cheapest_fitting(memory_gib: f64, vcpus: u32) -> Option<&'static InstanceType> {
        INSTANCE_CATALOG
            .iter()
            .filter(|t| t.memory_gib >= memory_gib && t.vcpus >= vcpus)
            .min_by(|a, b| {
                a.on_demand_hourly_usd
                    .partial_cmp(&b.on_demand_hourly_usd)
                    .expect("catalog prices are finite")
            })
    }

    /// USD cost of running this type for `secs` seconds at the on-demand price.
    pub fn on_demand_cost(&self, secs: f64) -> f64 {
        self.on_demand_hourly_usd * secs / 3600.0
    }
}

/// Built-in instance catalog (subset of eu-central-1, 2024 ballpark prices).
pub const INSTANCE_CATALOG: &[InstanceType] = &[
    InstanceType { name: "r6a.xlarge", vcpus: 4, memory_gib: 32.0, on_demand_hourly_usd: 0.2724 },
    InstanceType { name: "r6a.2xlarge", vcpus: 8, memory_gib: 64.0, on_demand_hourly_usd: 0.5448 },
    InstanceType { name: "r6a.4xlarge", vcpus: 16, memory_gib: 128.0, on_demand_hourly_usd: 1.0896 },
    InstanceType { name: "r6a.8xlarge", vcpus: 32, memory_gib: 256.0, on_demand_hourly_usd: 2.1792 },
    InstanceType { name: "m6a.xlarge", vcpus: 4, memory_gib: 16.0, on_demand_hourly_usd: 0.2074 },
    InstanceType { name: "m6a.2xlarge", vcpus: 8, memory_gib: 32.0, on_demand_hourly_usd: 0.4147 },
    InstanceType { name: "m6a.4xlarge", vcpus: 16, memory_gib: 64.0, on_demand_hourly_usd: 0.8294 },
    InstanceType { name: "c6a.4xlarge", vcpus: 16, memory_gib: 32.0, on_demand_hourly_usd: 0.7344 },
    InstanceType { name: "c6a.8xlarge", vcpus: 32, memory_gib: 64.0, on_demand_hourly_usd: 1.4688 },
];

/// Unique id of a launched instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i-{:08x}", self.0)
    }
}

/// Lifecycle state of an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceState {
    /// Booting + running init (index download & load into shared memory).
    Initializing,
    /// Ready to poll work.
    Running,
    /// Received a spot interruption notice: the worker stops pulling work and
    /// hands back (or checkpoints) what it holds before the reclaim lands.
    Draining,
    /// Terminated (scale-in, spot reclaim, or campaign end).
    Terminated,
}

/// A launched instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Unique id.
    pub id: InstanceId,
    /// Its type (catalog entry).
    pub itype: &'static InstanceType,
    /// True when launched on the spot market.
    pub spot: bool,
    /// Launch timestamp.
    pub launched_at: SimTime,
    /// Current lifecycle state.
    pub state: InstanceState,
    /// Termination timestamp, once terminated.
    pub terminated_at: Option<SimTime>,
}

impl Instance {
    /// Launch a new instance (state starts at `Initializing`).
    pub fn launch(id: InstanceId, itype: &'static InstanceType, spot: bool, now: SimTime) -> Instance {
        Instance { id, itype, spot, launched_at: now, state: InstanceState::Initializing, terminated_at: None }
    }

    /// Mark initialization complete.
    pub fn mark_running(&mut self) -> Result<(), CloudError> {
        if self.state != InstanceState::Initializing {
            return Err(CloudError::InvalidState(format!(
                "{} cannot become Running from {:?}",
                self.id, self.state
            )));
        }
        self.state = InstanceState::Running;
        Ok(())
    }

    /// Begin draining after an interruption notice. Valid from `Initializing`
    /// or `Running`; idempotent from `Draining` (an instance can catch notices
    /// for both a market and a burst reclaim). A terminated instance cannot
    /// drain.
    pub fn mark_draining(&mut self) -> Result<(), CloudError> {
        match self.state {
            InstanceState::Initializing | InstanceState::Running | InstanceState::Draining => {
                self.state = InstanceState::Draining;
                Ok(())
            }
            InstanceState::Terminated => Err(CloudError::InvalidState(format!(
                "{} cannot drain after termination",
                self.id
            ))),
        }
    }

    /// Terminate (idempotent; records the first termination time).
    pub fn terminate(&mut self, now: SimTime) {
        if self.state != InstanceState::Terminated {
            self.state = InstanceState::Terminated;
            self.terminated_at = Some(now);
        }
    }

    /// Billable seconds as of `now` (until termination if terminated).
    pub fn billable_secs(&self, now: SimTime) -> f64 {
        let end = self.terminated_at.unwrap_or(now);
        (end - self.launched_at).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_the_papers_testbed() {
        let t = InstanceType::by_name("r6a.4xlarge").unwrap();
        assert_eq!(t.vcpus, 16);
        assert_eq!(t.memory_gib, 128.0);
        assert!(InstanceType::by_name("z99.mega").is_err());
    }

    #[test]
    fn catalog_prices_scale_with_size_within_family() {
        let x = InstanceType::by_name("r6a.xlarge").unwrap();
        let x4 = InstanceType::by_name("r6a.4xlarge").unwrap();
        assert!((x4.on_demand_hourly_usd / x.on_demand_hourly_usd - 4.0).abs() < 0.01);
    }

    #[test]
    fn cheapest_fitting_picks_by_price() {
        // 100 GiB requirement (release-108-sized index): needs r6a.4xlarge.
        let t = InstanceType::cheapest_fitting(100.0, 4).unwrap();
        assert_eq!(t.name, "r6a.4xlarge");
        // 30 GiB (release-111-sized): r6a.xlarge (32 GiB) is the cheapest fit — a
        // quarter of the 4xlarge's price, the right-sizing saving of §III-A.
        let t = InstanceType::cheapest_fitting(30.0, 4).unwrap();
        assert_eq!(t.name, "r6a.xlarge");
        // Impossible requirement.
        assert!(InstanceType::cheapest_fitting(10_000.0, 4).is_none());
    }

    #[test]
    fn lifecycle_transitions() {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let mut i = Instance::launch(InstanceId(1), t, true, SimTime::from_secs(100.0));
        assert_eq!(i.state, InstanceState::Initializing);
        i.mark_running().unwrap();
        assert_eq!(i.state, InstanceState::Running);
        assert!(i.mark_running().is_err(), "double transition rejected");
        i.terminate(SimTime::from_secs(4100.0));
        assert_eq!(i.state, InstanceState::Terminated);
        assert_eq!(i.billable_secs(SimTime::from_secs(9999.0)), 4000.0);
        // Idempotent terminate keeps the first timestamp.
        i.terminate(SimTime::from_secs(8000.0));
        assert_eq!(i.terminated_at, Some(SimTime::from_secs(4100.0)));
    }

    #[test]
    fn draining_lifecycle() {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let mut i = Instance::launch(InstanceId(3), t, true, SimTime::ZERO);
        // Draining straight from Initializing (notice during init) is legal.
        i.mark_draining().unwrap();
        assert_eq!(i.state, InstanceState::Draining);
        // Idempotent: a second notice (market + burst) re-drains harmlessly.
        i.mark_draining().unwrap();
        // A draining instance cannot go back to Running.
        assert!(i.mark_running().is_err());
        // Reclaim lands: normal termination, still billed until then.
        i.terminate(SimTime::from_secs(300.0));
        assert_eq!(i.state, InstanceState::Terminated);
        assert_eq!(i.billable_secs(SimTime::from_secs(999.0)), 300.0);
        assert!(i.mark_draining().is_err(), "terminated instances cannot drain");

        let mut r = Instance::launch(InstanceId(4), t, true, SimTime::ZERO);
        r.mark_running().unwrap();
        r.mark_draining().unwrap();
        assert_eq!(r.state, InstanceState::Draining);
    }

    #[test]
    fn billable_time_of_running_instance_uses_now() {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let i = Instance::launch(InstanceId(2), t, false, SimTime::from_secs(0.0));
        assert_eq!(i.billable_secs(SimTime::from_secs(1800.0)), 1800.0);
    }

    #[test]
    fn on_demand_cost_is_hourly_rate() {
        let t = InstanceType::by_name("r6a.4xlarge").unwrap();
        assert!((t.on_demand_cost(3600.0) - 1.0896).abs() < 1e-9);
        assert!((t.on_demand_cost(1800.0) - 0.5448).abs() < 1e-9);
    }

    #[test]
    fn instance_id_display() {
        assert_eq!(InstanceId(0xAB).to_string(), "i-000000ab");
    }
}
