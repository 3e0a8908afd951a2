//! Cloud cost accounting.
//!
//! "Minimization of cloud costs" is one of the paper's three stated goals; every
//! experiment that claims savings (right-sizing, early stopping, spot) settles in
//! USD here. Costs accrue per instance: billable seconds × (on-demand or spot)
//! hourly price.

use crate::instance::Instance;
use crate::spot::SpotMarket;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Aggregated cost report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostReport {
    /// USD per instance type.
    pub by_type: BTreeMap<String, f64>,
    /// Total instance-hours per type.
    pub hours_by_type: BTreeMap<String, f64>,
    /// Total USD.
    pub total_usd: f64,
    /// Total instance-hours.
    pub total_hours: f64,
    /// Instance-hours spent on work that was thrown away (crashed jobs, duplicate
    /// completions, results whose upload failed). Subset of `total_hours`.
    pub wasted_hours: f64,
    /// USD attributed to that wasted work. Subset of `total_usd`.
    pub wasted_usd: f64,
}

impl CostReport {
    /// Fraction of total spend that bought discarded work (0 when nothing accrued).
    pub fn wasted_fraction(&self) -> f64 {
        if self.total_usd > 0.0 {
            self.wasted_usd / self.total_usd
        } else {
            0.0
        }
    }
}

/// The tracker: finalizes instances into the report.
#[derive(Clone, Debug, Default)]
pub struct CostTracker {
    spot: Option<SpotMarket>,
    report: CostReport,
}

impl CostTracker {
    /// A tracker with on-demand pricing only.
    pub fn on_demand() -> CostTracker {
        CostTracker::default()
    }

    /// A tracker that prices spot instances through `market`.
    pub fn with_spot(market: SpotMarket) -> CostTracker {
        CostTracker { spot: Some(market), report: CostReport::default() }
    }

    /// The effective hourly USD rate this tracker bills `itype` at: the spot
    /// market price when `spot` and a market is configured, the on-demand price
    /// otherwise. The single pricing point shared by [`Self::charge`],
    /// [`Self::attribute_waste`], and the per-accession attribution ledger —
    /// every dollar in a campaign report is this rate times some seconds.
    pub fn hourly_rate(&self, itype: &crate::instance::InstanceType, spot: bool) -> f64 {
        if spot {
            match &self.spot {
                Some(m) => m.hourly_price(itype.on_demand_hourly_usd),
                None => itype.on_demand_hourly_usd,
            }
        } else {
            itype.on_demand_hourly_usd
        }
    }

    /// Charge one instance's lifetime as of `now` (terminated instances are charged
    /// to their termination time).
    pub fn charge(&mut self, instance: &Instance, now: SimTime) {
        let secs = instance.billable_secs(now);
        let hourly = self.hourly_rate(instance.itype, instance.spot);
        let usd = hourly * secs / 3600.0;
        let hours = secs / 3600.0;
        *self.report.by_type.entry(instance.itype.name.to_string()).or_default() += usd;
        *self.report.hours_by_type.entry(instance.itype.name.to_string()).or_default() += hours;
        self.report.total_usd += usd;
        self.report.total_hours += hours;
    }

    /// Attribute `secs` of one instance-type's time as wasted work (redone after a
    /// crash, duplicated by a redelivery, or lost to a failed upload). This does not
    /// add to the totals — the instance time is already charged by [`Self::charge`];
    /// it labels a slice of it.
    pub fn attribute_waste(&mut self, itype: &crate::instance::InstanceType, spot: bool, secs: f64) {
        let hourly = self.hourly_rate(itype, spot);
        self.report.wasted_hours += secs / 3600.0;
        self.report.wasted_usd += hourly * secs / 3600.0;
    }

    /// The report so far.
    pub fn report(&self) -> &CostReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceId, InstanceType};

    fn instance(spot: bool, hours: f64) -> Instance {
        let t = InstanceType::by_name("r6a.4xlarge").unwrap();
        let mut i = Instance::launch(InstanceId(1), t, spot, SimTime::ZERO);
        i.terminate(SimTime::from_secs(hours * 3600.0));
        i
    }

    #[test]
    fn on_demand_charge_is_hourly_times_hours() {
        let mut c = CostTracker::on_demand();
        c.charge(&instance(false, 2.0), SimTime::from_secs(1e6));
        let r = c.report();
        assert!((r.total_usd - 2.0 * 1.0896).abs() < 1e-9);
        assert!((r.total_hours - 2.0).abs() < 1e-12);
        assert!((r.by_type["r6a.4xlarge"] - r.total_usd).abs() < 1e-12);
    }

    #[test]
    fn spot_instances_get_the_discount() {
        let market = SpotMarket { price_factor: 0.3, ..SpotMarket::default() };
        let mut c = CostTracker::with_spot(market);
        c.charge(&instance(true, 1.0), SimTime::from_secs(1e6));
        assert!((c.report().total_usd - 0.3 * 1.0896).abs() < 1e-9);
    }

    #[test]
    fn spot_without_market_falls_back_to_on_demand() {
        let mut c = CostTracker::on_demand();
        c.charge(&instance(true, 1.0), SimTime::from_secs(1e6));
        assert!((c.report().total_usd - 1.0896).abs() < 1e-9);
    }

    #[test]
    fn running_instances_charge_to_now() {
        let t = InstanceType::by_name("m6a.xlarge").unwrap();
        let i = Instance::launch(InstanceId(2), t, false, SimTime::ZERO);
        let mut c = CostTracker::on_demand();
        c.charge(&i, SimTime::from_secs(1800.0));
        assert!((c.report().total_usd - t.on_demand_hourly_usd / 2.0).abs() < 1e-9);
    }

    #[test]
    fn waste_attribution_labels_without_double_charging() {
        let market = SpotMarket { price_factor: 0.5, ..SpotMarket::default() };
        let mut c = CostTracker::with_spot(market);
        c.charge(&instance(true, 2.0), SimTime::from_secs(1e6));
        let t = InstanceType::by_name("r6a.4xlarge").unwrap();
        c.attribute_waste(t, true, 1800.0);
        let r = c.report();
        assert!((r.wasted_hours - 0.5).abs() < 1e-12);
        assert!((r.wasted_usd - 0.5 * 1.0896 * 0.5).abs() < 1e-9);
        assert!((r.total_usd - 2.0 * 0.5 * 1.0896).abs() < 1e-9, "totals unchanged by waste");
        assert!((r.wasted_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn hourly_rate_is_the_single_pricing_point() {
        let t = InstanceType::by_name("r6a.4xlarge").unwrap();
        let od = CostTracker::on_demand();
        assert_eq!(od.hourly_rate(t, false), t.on_demand_hourly_usd);
        assert_eq!(od.hourly_rate(t, true), t.on_demand_hourly_usd, "no market: on-demand");
        let market = SpotMarket { price_factor: 0.3, ..SpotMarket::default() };
        let sp = CostTracker::with_spot(market);
        assert!((sp.hourly_rate(t, true) - 0.3 * t.on_demand_hourly_usd).abs() < 1e-12);
        assert_eq!(sp.hourly_rate(t, false), t.on_demand_hourly_usd);
    }

    #[test]
    fn multiple_types_accumulate_separately() {
        let mut c = CostTracker::on_demand();
        c.charge(&instance(false, 1.0), SimTime::ZERO + crate::SimDuration::from_hours(1.0));
        let t2 = InstanceType::by_name("m6a.2xlarge").unwrap();
        let mut i2 = Instance::launch(InstanceId(3), t2, false, SimTime::ZERO);
        i2.terminate(SimTime::from_secs(3600.0));
        c.charge(&i2, SimTime::from_secs(1e6));
        let r = c.report();
        assert_eq!(r.by_type.len(), 2);
        assert!((r.total_usd - (1.0896 + 0.4147)).abs() < 1e-9);
        assert!((r.total_hours - 2.0).abs() < 1e-12);
    }
}
