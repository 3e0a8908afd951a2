//! Discrete-event cloud simulator.
//!
//! Models the AWS services the paper's architecture (Fig. 2) is built from, at the
//! level of detail its claims depend on:
//!
//! * [`time`] — simulated clock types ([`time::SimTime`], [`time::SimDuration`]).
//! * [`devent`] — the discrete-event kernel every simulation is driven by.
//! * [`instance`] — EC2 instance-type catalog (vCPU / memory / hourly price, incl.
//!   the paper's `r6a.4xlarge` testbed) and instance lifecycle.
//! * [`spot`] — spot pricing discount and a Poisson interruption process.
//! * [`faults`] — deterministic fault injection: seeded chaos plans for S3/SQS
//!   errors, duplicate deliveries, worker crashes, and spot bursts, replayable
//!   bit-for-bit.
//! * [`retry`] — capped exponential backoff with deterministic jitter (the AWS-SDK
//!   retry machinery the paper's architecture silently assumes).
//! * [`sqs`] — the work queue: visibility timeouts, at-least-once redelivery —
//!   exactly the property that makes the architecture resilient to spot reclaims.
//! * [`s3`] — the transfer-cost model of the index-manifest GET and result PUTs.
//! * [`asg`] — AutoScalingGroup sizing instances from queue backlog.
//! * [`cost`] — instance-seconds × price accounting (the "minimize cloud costs"
//!   goal the paper optimizes for).
//!
//! Nothing here sleeps or talks to a network: time advances only through the event
//! queue, so campaigns over thousands of accessions simulate in milliseconds.

#![forbid(unsafe_code)]

pub mod asg;
pub mod cost;
pub mod devent;
pub mod error;
pub mod faults;
pub mod instance;
pub mod retry;
pub mod s3;
pub mod spot;
pub mod sqs;
pub mod time;

pub use asg::{AutoScalingGroup, ScalingPolicy};
pub use cost::CostTracker;
pub use devent::Kernel;
pub use error::CloudError;
pub use faults::{FaultCounters, FaultInjector, FaultOp, FaultPlan, SpotBurst};
pub use instance::{Instance, InstanceId, InstanceState, InstanceType, INSTANCE_CATALOG};
pub use retry::RetryPolicy;
pub use spot::{Reclaim, ReclaimSource, SpotMarket};
pub use sqs::SqsQueue;
pub use time::{SimDuration, SimTime};
