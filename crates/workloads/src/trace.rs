//! Requests and traces.
//!
//! The request type emitted here IS the session request type of the `dsg`
//! crate ([`dsg::Request`]): a generated trace feeds
//! [`DsgSession::submit_batch`](dsg::DsgSession::submit_batch) verbatim,
//! with no conversion layer between trace generation and execution. The
//! generators of this crate only ever produce the
//! [`Request::Communicate`] variant; membership churn (`Join` / `Leave`)
//! and clock control (`Tick`) can be spliced into a trace by the caller.

pub use dsg::Request;

/// A sequence of requests.
pub type Trace = Vec<Request>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_the_session_vocabulary() {
        let r = Request::communicate(9, 2);
        assert_eq!(r.to_string(), "9→2");
        assert_eq!(r.unordered(), Some((2, 9)));
        let r2: Request = (1u64, 5u64).into();
        assert_eq!(r2.pair(), (1, 5));
    }
}
