//! The synchronous round-driven simulator.

use crate::error::CongestError;
use crate::message::{Envelope, MessageSize};
use crate::topology::Topology;
use crate::NodeProtocol;

/// Configuration for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Maximum size of a single message, in bits (the CONGEST `O(log n)`
    /// budget).
    pub max_message_bits: usize,
    /// Maximum number of rounds before the run is aborted with
    /// [`CongestError::RoundLimitExceeded`].
    pub max_rounds: usize,
}

impl SimConfig {
    /// A budget appropriate for an `n`-node system: `c · ⌈log₂ n⌉` bits per
    /// message with the customary constant `c = 8` (enough for a key, a
    /// value and a few control bits), floored at 80 bits because the
    /// reference protocols carry one 64-bit machine word plus a tag, and a
    /// generous `n²` round limit.
    pub fn for_n(n: usize) -> Self {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        SimConfig {
            max_message_bits: (8 * log_n.max(1)).max(80),
            max_rounds: (n * n).max(1024),
        }
    }

    /// Overrides the round limit.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }
}

/// Statistics describing a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Number of rounds executed until every node halted.
    pub rounds: usize,
    /// Total number of messages delivered.
    pub messages: usize,
    /// Total number of bits delivered.
    pub bits: usize,
    /// Size of the largest single message observed, in bits.
    pub max_message_bits: usize,
}

/// The outgoing message buffer handed to protocol callbacks.
#[derive(Debug)]
pub struct Outbox<M> {
    to_send: Vec<(usize, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Outbox { to_send: Vec::new() }
    }

    /// Queues `payload` for delivery to `neighbor` at the beginning of the
    /// next round. Sending more than one message to the same neighbour in a
    /// round, sending to a non-neighbour, or exceeding the bit budget is
    /// reported as an error by the simulator when the round is committed.
    pub fn send(&mut self, neighbor: usize, payload: M) {
        self.to_send.push((neighbor, payload));
    }

    /// Number of messages queued so far this round.
    pub fn queued(&self) -> usize {
        self.to_send.len()
    }
}

/// The synchronous simulator: drives a set of per-node protocol instances
/// over a topology, enforcing the CONGEST constraints.
#[derive(Debug)]
pub struct Simulator<P: NodeProtocol> {
    topology: Topology,
    nodes: Vec<P>,
    config: SimConfig,
    /// Messages to be delivered at the beginning of the next round.
    in_flight: Vec<Vec<Envelope<P::Message>>>,
    report: RunReport,
    started: bool,
}

impl<P: NodeProtocol> Simulator<P> {
    /// Creates a simulator over `topology` with one protocol instance per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if the number of protocol instances differs from the topology
    /// size.
    pub fn new(topology: Topology, nodes: Vec<P>, config: SimConfig) -> Self {
        assert_eq!(
            topology.len(),
            nodes.len(),
            "one protocol instance per node is required"
        );
        let n = nodes.len();
        Simulator {
            topology,
            nodes,
            config,
            in_flight: vec![Vec::new(); n],
            report: RunReport::default(),
            started: false,
        }
    }

    /// Read access to the per-node protocol instances (e.g. to extract
    /// results after the run).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The simulation statistics accumulated so far.
    pub fn report(&self) -> RunReport {
        self.report
    }

    /// Runs `on_start` on every node (idempotent; called automatically by
    /// [`Simulator::step`] if needed).
    ///
    /// # Errors
    ///
    /// Returns an error if a start-up message violates a CONGEST constraint.
    pub fn start(&mut self) -> Result<(), CongestError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        let n = self.nodes.len();
        for me in 0..n {
            let mut outbox = Outbox::new();
            self.nodes[me].on_start(me, &mut outbox);
            self.commit_outbox(me, 0, outbox)?;
        }
        Ok(())
    }

    /// Executes one synchronous round: delivers all in-flight messages and
    /// invokes `on_round` on every node.
    ///
    /// # Errors
    ///
    /// Returns an error if any node violates the CONGEST constraints.
    pub fn step(&mut self) -> Result<(), CongestError> {
        self.start()?;
        let round = self.report.rounds;
        let n = self.nodes.len();
        let delivered: Vec<Vec<Envelope<P::Message>>> = self
            .in_flight
            .iter_mut()
            .map(std::mem::take)
            .collect();
        for (me, inbox) in delivered.iter().enumerate().take(n) {
            let mut outbox = Outbox::new();
            self.nodes[me].on_round(me, round, inbox, &mut outbox);
            self.commit_outbox(me, round, outbox)?;
        }
        self.report.rounds += 1;
        Ok(())
    }

    /// Runs rounds until every node reports [`NodeProtocol::is_halted`] and
    /// no messages are in flight, or the round limit is hit.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::RoundLimitExceeded`] if the protocol does not
    /// terminate, or any constraint violation encountered along the way.
    pub fn run_to_completion(&mut self) -> Result<RunReport, CongestError> {
        self.start()?;
        while !self.is_quiescent() {
            if self.report.rounds >= self.config.max_rounds {
                return Err(CongestError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                });
            }
            self.step()?;
        }
        Ok(self.report)
    }

    /// Returns `true` when every node has halted and no messages are in
    /// flight.
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(NodeProtocol::is_halted)
            && self.in_flight.iter().all(Vec::is_empty)
    }

    fn commit_outbox(
        &mut self,
        from: usize,
        round: usize,
        outbox: Outbox<P::Message>,
    ) -> Result<(), CongestError> {
        let mut seen: Vec<usize> = Vec::new();
        for (to, payload) in outbox.to_send {
            if to >= self.nodes.len() {
                return Err(CongestError::UnknownNode(to));
            }
            if !self.topology.has_link(from, to) {
                return Err(CongestError::NoSuchLink { from, to });
            }
            if seen.contains(&to) {
                return Err(CongestError::LinkCapacityExceeded { from, to, round });
            }
            seen.push(to);
            let bits = payload.size_bits();
            if bits > self.config.max_message_bits {
                return Err(CongestError::MessageTooLarge {
                    from,
                    to,
                    bits,
                    limit: self.config.max_message_bits,
                });
            }
            self.report.messages += 1;
            self.report.bits += bits;
            self.report.max_message_bits = self.report.max_message_bits.max(bits);
            self.in_flight[to].push(Envelope { from, payload });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: node 0 sends a token rightward along a path; each
    /// node forwards it once and halts.
    #[derive(Debug)]
    struct TokenPass {
        n: usize,
        done: bool,
    }

    impl NodeProtocol for TokenPass {
        type Message = u64;

        fn on_start(&mut self, me: usize, outbox: &mut Outbox<u64>) {
            if me == 0 {
                outbox.send(1, 42);
                self.done = true;
            }
        }

        fn on_round(
            &mut self,
            me: usize,
            _round: usize,
            inbox: &[Envelope<u64>],
            outbox: &mut Outbox<u64>,
        ) {
            if self.done {
                return;
            }
            if let Some(env) = inbox.first() {
                if me + 1 < self.n {
                    outbox.send(me + 1, env.payload);
                }
                self.done = true;
            }
        }

        fn is_halted(&self) -> bool {
            self.done
        }
    }

    fn token_nodes(n: usize) -> Vec<TokenPass> {
        (0..n).map(|_| TokenPass { n, done: false }).collect()
    }

    #[test]
    fn token_traverses_the_path_in_n_minus_one_rounds() {
        let n = 10;
        let mut sim = Simulator::new(Topology::path(n), token_nodes(n), SimConfig::for_n(n));
        let report = sim.run_to_completion().unwrap();
        assert_eq!(report.messages, n - 1);
        // The token needs n - 1 hops; each hop is delivered in its own
        // round, plus the final round in which the last node halts.
        assert!(report.rounds >= n - 1);
        assert_eq!(report.max_message_bits, 64);
    }

    #[test]
    fn sending_without_a_link_is_rejected() {
        #[derive(Debug)]
        struct Bad;
        impl NodeProtocol for Bad {
            type Message = u64;
            fn on_start(&mut self, me: usize, outbox: &mut Outbox<u64>) {
                if me == 0 {
                    outbox.send(2, 1); // nodes 0 and 2 are not adjacent on a path
                }
            }
            fn on_round(&mut self, _: usize, _: usize, _: &[Envelope<u64>], _: &mut Outbox<u64>) {}
            fn is_halted(&self) -> bool {
                true
            }
        }
        let mut sim = Simulator::new(
            Topology::path(3),
            vec![Bad, Bad, Bad],
            SimConfig::for_n(3),
        );
        assert!(matches!(
            sim.run_to_completion(),
            Err(CongestError::NoSuchLink { from: 0, to: 2 })
        ));
    }

    #[test]
    fn double_send_on_one_link_is_rejected() {
        #[derive(Debug)]
        struct Chatty;
        impl NodeProtocol for Chatty {
            type Message = u64;
            fn on_start(&mut self, me: usize, outbox: &mut Outbox<u64>) {
                if me == 0 {
                    outbox.send(1, 1);
                    outbox.send(1, 2);
                }
            }
            fn on_round(&mut self, _: usize, _: usize, _: &[Envelope<u64>], _: &mut Outbox<u64>) {}
            fn is_halted(&self) -> bool {
                true
            }
        }
        let mut sim = Simulator::new(Topology::path(2), vec![Chatty, Chatty], SimConfig::for_n(2));
        assert!(matches!(
            sim.run_to_completion(),
            Err(CongestError::LinkCapacityExceeded { .. })
        ));
    }

    #[test]
    fn oversized_messages_are_rejected() {
        #[derive(Debug, Clone)]
        struct Huge;
        impl MessageSize for Huge {
            fn size_bits(&self) -> usize {
                1 << 20
            }
        }
        #[derive(Debug)]
        struct Sender;
        impl NodeProtocol for Sender {
            type Message = Huge;
            fn on_start(&mut self, me: usize, outbox: &mut Outbox<Huge>) {
                if me == 0 {
                    outbox.send(1, Huge);
                }
            }
            fn on_round(&mut self, _: usize, _: usize, _: &[Envelope<Huge>], _: &mut Outbox<Huge>) {}
            fn is_halted(&self) -> bool {
                true
            }
        }
        let mut sim = Simulator::new(Topology::path(2), vec![Sender, Sender], SimConfig::for_n(2));
        assert!(matches!(
            sim.run_to_completion(),
            Err(CongestError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn non_terminating_protocols_hit_the_round_limit() {
        #[derive(Debug)]
        struct Forever;
        impl NodeProtocol for Forever {
            type Message = u64;
            fn on_start(&mut self, _: usize, _: &mut Outbox<u64>) {}
            fn on_round(&mut self, _: usize, _: usize, _: &[Envelope<u64>], _: &mut Outbox<u64>) {}
            fn is_halted(&self) -> bool {
                false
            }
        }
        let config = SimConfig::for_n(2).with_max_rounds(10);
        let mut sim = Simulator::new(Topology::path(2), vec![Forever, Forever], config);
        assert!(matches!(
            sim.run_to_completion(),
            Err(CongestError::RoundLimitExceeded { limit: 10 })
        ));
    }

    #[test]
    fn config_for_n_scales_with_log_n() {
        let small = SimConfig::for_n(4);
        let large = SimConfig::for_n(1 << 20);
        assert!(large.max_message_bits > small.max_message_bits);
        assert_eq!(small.max_message_bits, 80);
        assert_eq!(large.max_message_bits, 8 * 20);
    }
}
