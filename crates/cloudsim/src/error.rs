//! Error type for the cloud simulation layer.

use std::fmt;

/// Errors from simulated cloud operations.
#[derive(Debug)]
pub enum CloudError {
    /// Unknown instance type name.
    UnknownInstanceType(String),
    /// Operation on an instance in the wrong state.
    InvalidState(String),
    /// Inconsistent configuration.
    InvalidParams(String),
    /// SQS receipt handle is stale (message redelivered or deleted).
    StaleReceipt(String),
    /// Injected transient service failure (retryable).
    ServiceUnavailable(String),
    /// A retried operation failed on every attempt of its policy.
    RetriesExhausted(String),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::UnknownInstanceType(t) => write!(f, "unknown instance type: {t}"),
            CloudError::InvalidState(m) => write!(f, "invalid state: {m}"),
            CloudError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            CloudError::StaleReceipt(m) => write!(f, "stale receipt: {m}"),
            CloudError::ServiceUnavailable(m) => write!(f, "service unavailable: {m}"),
            CloudError::RetriesExhausted(m) => write!(f, "retries exhausted: {m}"),
        }
    }
}

impl std::error::Error for CloudError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CloudError::StaleReceipt("receipt-7".into()).to_string().contains("receipt-7"));
        assert!(CloudError::UnknownInstanceType("z9.mega".into()).to_string().contains("z9.mega"));
    }
}
