//! Cloud cost accounting.
//!
//! "Minimization of cloud costs" is one of the paper's three stated goals; every
//! experiment that claims savings (right-sizing, early stopping, spot) settles in
//! USD here. The report only sums: billable seconds × an hourly rate the caller
//! priced (a campaign prices its fleet once, from its instance type and spot
//! market).

/// Aggregated cost report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostReport {
    /// Total USD.
    pub total_usd: f64,
    /// Total instance-hours.
    pub total_hours: f64,
    /// USD spent on work that was thrown away (crashed jobs, duplicate
    /// completions, results whose upload failed). Subset of `total_usd`.
    pub wasted_usd: f64,
}

impl CostReport {
    /// Charge `secs` billable instance-seconds at `usd_per_hour`.
    pub fn charge(&mut self, usd_per_hour: f64, secs: f64) {
        self.total_usd += usd_per_hour * secs / 3600.0;
        self.total_hours += secs / 3600.0;
    }

    /// Label `secs` of already-charged instance time at `usd_per_hour` as wasted
    /// work (redone after a crash, duplicated by a redelivery, or lost to a failed
    /// upload). This does not add to the totals; it labels a slice of them.
    pub fn attribute_waste(&mut self, usd_per_hour: f64, secs: f64) {
        self.wasted_usd += usd_per_hour * secs / 3600.0;
    }

    /// Fraction of total spend that bought discarded work (0 when nothing accrued).
    pub fn wasted_fraction(&self) -> f64 {
        if self.total_usd > 0.0 {
            self.wasted_usd / self.total_usd
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, InstanceId, InstanceType};
    use crate::spot::SpotMarket;
    use crate::time::SimTime;

    /// Billable seconds of an instance that ran `hours` before terminating.
    fn billed_secs(hours: f64) -> f64 {
        let mut i = Instance::launch(InstanceId(1), SimTime::ZERO);
        i.terminate(SimTime::from_secs(hours * 3600.0));
        i.billable_secs(SimTime::from_secs(1e6))
    }

    fn r6a_4xlarge() -> f64 {
        InstanceType::by_name("r6a.4xlarge").unwrap().on_demand_hourly_usd
    }

    #[test]
    fn on_demand_charge_is_hourly_times_hours() {
        let mut r = CostReport::default();
        r.charge(r6a_4xlarge(), billed_secs(2.0));
        assert!((r.total_usd - 2.0 * 1.0896).abs() < 1e-9);
        assert!((r.total_hours - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spot_instances_get_the_discount() {
        let market = SpotMarket { price_factor: 0.3, ..SpotMarket::default() };
        let mut r = CostReport::default();
        r.charge(market.hourly_price(r6a_4xlarge()), billed_secs(1.0));
        assert!((r.total_usd - 0.3 * 1.0896).abs() < 1e-9);
    }

    #[test]
    fn running_instances_charge_to_now() {
        let t = InstanceType::by_name("m6a.xlarge").unwrap();
        let i = Instance::launch(InstanceId(2), SimTime::ZERO);
        let mut r = CostReport::default();
        r.charge(t.on_demand_hourly_usd, i.billable_secs(SimTime::from_secs(1800.0)));
        assert!((r.total_usd - t.on_demand_hourly_usd / 2.0).abs() < 1e-9);
    }

    #[test]
    fn waste_attribution_labels_without_double_charging() {
        let market = SpotMarket { price_factor: 0.5, ..SpotMarket::default() };
        let rate = market.hourly_price(r6a_4xlarge());
        let mut r = CostReport::default();
        r.charge(rate, billed_secs(2.0));
        r.attribute_waste(rate, 1800.0);
        assert!((r.wasted_usd - 0.5 * 1.0896 * 0.5).abs() < 1e-9);
        assert!((r.total_usd - 2.0 * 0.5 * 1.0896).abs() < 1e-9, "totals unchanged by waste");
        assert!((r.wasted_fraction() - 0.25).abs() < 1e-9);
    }
}
