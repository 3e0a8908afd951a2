//! AutoScalingGroup: queue-depth-driven fleet sizing.
//!
//! The paper scales its EC2 fleet with an AutoScalingGroup fed from the SQS backlog
//! (the standard "backlog per instance" pattern): desired capacity =
//! `ceil(pending_messages / target_backlog_per_instance)`, clamped to `[min, max]`.
//! The group only *decides* sizes; the orchestrator launches/terminates instances and
//! charges their cost.
//!
//! Fleet bookkeeping is kernel-grade: instance lookup is O(1) (ids are dense serials
//! into the launch vector), the active count is a maintained counter, and the live
//! set is an ordered `BTreeSet` keyed `(newest-first launch time, id)` so a scale-in
//! decision reads the victims straight off the set — no scan, no sort, and no hash
//! iteration anywhere near scheduling order.

use crate::instance::{Instance, InstanceId, InstanceState};
use crate::time::SimTime;
use crate::CloudError;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Scaling policy parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPolicy {
    /// Minimum instances.
    pub min_size: u32,
    /// Maximum instances.
    pub max_size: u32,
    /// Target queue backlog per instance (messages).
    pub target_backlog_per_instance: u32,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        ScalingPolicy { min_size: 0, max_size: 16, target_backlog_per_instance: 4 }
    }
}

impl ScalingPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<(), CloudError> {
        if self.min_size > self.max_size {
            return Err(CloudError::InvalidParams("min_size > max_size".into()));
        }
        if self.target_backlog_per_instance == 0 {
            return Err(CloudError::InvalidParams("target backlog must be positive".into()));
        }
        Ok(())
    }

    /// Desired capacity for a backlog of `pending` messages.
    pub fn desired_capacity(&self, pending: usize) -> u32 {
        let need = (pending as u32).div_ceil(self.target_backlog_per_instance);
        need.clamp(self.min_size, self.max_size)
    }
}

/// The group: policy + fleet bookkeeping.
#[derive(Debug)]
pub struct AutoScalingGroup {
    policy: ScalingPolicy,
    instances: Vec<Instance>,
    next_id: u64,
    /// Non-terminated instances ordered newest-first (launch-time ties break on
    /// id, matching the stable sort the scan-based implementation used).
    live: BTreeSet<(Reverse<SimTime>, InstanceId)>,
}

/// A scaling decision: how many instances to launch, and which to terminate.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ScaleDecision {
    /// Number of new instances to launch.
    pub launch: u32,
    /// Ids to terminate (newest-first, i.e. cheapest to lose).
    pub terminate: Vec<InstanceId>,
}

impl AutoScalingGroup {
    /// Create a group sized by `policy`.
    pub fn new(policy: ScalingPolicy) -> Result<AutoScalingGroup, CloudError> {
        policy.validate()?;
        Ok(AutoScalingGroup { policy, instances: Vec::new(), next_id: 1, live: BTreeSet::new() })
    }

    /// All instances ever launched (including terminated), for cost accounting.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Instance lookup by id. O(1): ids are dense serials into the launch vector.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        let inst = self.instances.get(id.0.checked_sub(1)? as usize)?;
        debug_assert_eq!(inst.id, id);
        Some(inst)
    }

    /// Mutable instance lookup by id. O(1). Use this for state transitions that
    /// keep the instance active (`mark_running`); terminations must go through
    /// [`AutoScalingGroup::terminate`] so the group's live set stays consistent.
    pub fn instance_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        let inst = self.instances.get_mut(id.0.checked_sub(1)? as usize)?;
        debug_assert_eq!(inst.id, id);
        Some(inst)
    }

    /// Instances not yet terminated. O(1).
    pub fn active_count(&self) -> usize {
        self.live.len()
    }

    /// Evaluate the policy against the backlog and return what to do. The caller
    /// applies the decision via [`AutoScalingGroup::launch`] /
    /// [`AutoScalingGroup::terminate`] so that it can schedule the corresponding
    /// events.
    pub fn evaluate(&self, pending_messages: usize) -> ScaleDecision {
        let desired = self.policy.desired_capacity(pending_messages);
        let active = self.active_count() as u32;
        if desired > active {
            ScaleDecision { launch: desired - active, terminate: Vec::new() }
        } else if desired < active {
            // Scale in newest-first (shortest-lived instances lose least state):
            // the live set is already in that order.
            ScaleDecision {
                launch: 0,
                terminate: self
                    .live
                    .iter()
                    .take((active - desired) as usize)
                    .map(|&(_, id)| id)
                    .collect(),
            }
        } else {
            ScaleDecision::default()
        }
    }

    /// Launch one instance now; returns its id.
    pub fn launch(&mut self, now: SimTime) -> InstanceId {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.instances.push(Instance::launch(id, now));
        self.live.insert((Reverse(now), id));
        id
    }

    /// Terminate an instance, removing it from the live set. Idempotent (a spot
    /// interruption can race a scale-in decision); returns whether this call did
    /// the termination. `Err` only for an id the group never issued.
    pub fn terminate(&mut self, id: InstanceId, now: SimTime) -> Result<bool, CloudError> {
        let key = {
            let inst = self
                .instance(id)
                .ok_or_else(|| CloudError::InvalidState(format!("{id} was never launched")))?;
            if inst.state == InstanceState::Terminated {
                return Ok(false);
            }
            (Reverse(inst.launched_at), id)
        };
        let removed = self.live.remove(&key);
        debug_assert!(removed, "live set out of sync with instance state");
        self.instance_mut(id).expect("checked above").terminate(now);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> AutoScalingGroup {
        let policy = ScalingPolicy { min_size: 1, max_size: 8, target_backlog_per_instance: 10 };
        AutoScalingGroup::new(policy).unwrap()
    }

    #[test]
    fn desired_capacity_is_backlog_over_target_clamped() {
        let p = ScalingPolicy { min_size: 1, max_size: 8, target_backlog_per_instance: 10 };
        assert_eq!(p.desired_capacity(0), 1, "min floor");
        assert_eq!(p.desired_capacity(10), 1);
        assert_eq!(p.desired_capacity(11), 2);
        assert_eq!(p.desired_capacity(75), 8);
        assert_eq!(p.desired_capacity(1000), 8, "max ceiling");
    }

    #[test]
    fn evaluate_scales_out_then_in() {
        let mut g = group();
        let d = g.evaluate(35);
        assert_eq!(d.launch, 4);
        assert!(d.terminate.is_empty());
        for _ in 0..4 {
            g.launch(SimTime::from_secs(0.0));
        }
        assert_eq!(g.active_count(), 4);
        // Backlog drains → scale in to 1.
        let d = g.evaluate(5);
        assert_eq!(d.launch, 0);
        assert_eq!(d.terminate.len(), 3);
        // No-op at steady state.
        for id in d.terminate {
            assert!(g.terminate(id, SimTime::from_secs(100.0)).unwrap());
        }
        assert_eq!(g.evaluate(5), ScaleDecision::default());
    }

    #[test]
    fn scale_in_prefers_newest_instances() {
        let mut g = group();
        let old = g.launch(SimTime::from_secs(0.0));
        let newer = g.launch(SimTime::from_secs(100.0));
        let newest = g.launch(SimTime::from_secs(200.0));
        let d = g.evaluate(0); // desired = min = 1 → terminate 2
        assert_eq!(d.terminate, vec![newest, newer]);
        assert!(!d.terminate.contains(&old));
    }

    #[test]
    fn scale_in_ties_break_on_launch_order() {
        // Several instances launched the same instant (one ScaleTick burst): the
        // decision must list them in launch order, exactly like the legacy stable
        // sort did — this pins the tie-break the differential harness depends on.
        let policy = ScalingPolicy { min_size: 0, max_size: 8, target_backlog_per_instance: 10 };
        let mut g = AutoScalingGroup::new(policy).unwrap();
        let a = g.launch(SimTime::from_secs(50.0));
        let b = g.launch(SimTime::from_secs(50.0));
        let c = g.launch(SimTime::from_secs(50.0));
        let older = g.launch(SimTime::from_secs(10.0));
        // All four live; desired 0 → everything terminates, same-time trio in
        // id order before the older straggler.
        assert_eq!(g.evaluate(0).terminate, vec![a, b, c, older]);
        // Partial scale-in takes a prefix of that order.
        assert_eq!(g.evaluate(25).terminate, vec![a]);
    }

    #[test]
    fn terminate_is_idempotent_and_updates_active_count() {
        let mut g = group();
        let id = g.launch(SimTime::from_secs(0.0));
        assert_eq!(g.active_count(), 1);
        assert!(g.terminate(id, SimTime::from_secs(5.0)).unwrap());
        assert_eq!(g.active_count(), 0);
        assert!(!g.terminate(id, SimTime::from_secs(9.0)).unwrap(), "second call is a no-op");
        assert_eq!(g.instance(id).unwrap().terminated_at, Some(SimTime::from_secs(5.0)));
        assert!(g.terminate(InstanceId(99), SimTime::ZERO).is_err(), "unknown id rejected");
    }

    #[test]
    fn invalid_policy_rejected() {
        let p = ScalingPolicy { min_size: 5, max_size: 2, target_backlog_per_instance: 1 };
        assert!(p.validate().is_err());
        let p = ScalingPolicy { min_size: 0, max_size: 2, target_backlog_per_instance: 0 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn launched_instances_record_id_state_and_launch_time() {
        let mut g = group();
        let id = g.launch(SimTime::from_secs(7.0));
        let inst = g.instance_mut(id).unwrap();
        assert_eq!(inst.id, id);
        assert_eq!(inst.state, InstanceState::Initializing);
        assert_eq!(inst.launched_at, SimTime::from_secs(7.0));
    }
}
