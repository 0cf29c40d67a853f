//! The Theorem 3 distributed decoder (the paper's Process `A`).
//!
//! Every node runs the same program, driven purely by the global round
//! schedule (computable from `n`), its advice string, and the messages it
//! receives:
//!
//! * during a phase's **convergecast window** every non-root node repeatedly
//!   sends its current structured report (own unconsumed advice bits +
//!   ordered child reports) to its fragment-tree parent;
//! * at the end of the window each fragment **root** reassembles `A(F)` from
//!   the first bits of the BFS-ordered report, decides whether its fragment
//!   is active (it can count the fragment's size from the report), and
//!   answers with a **map** telling every node how many bits were consumed
//!   and telling the choosing node what edge to select;
//! * in the **notify round** a choosing node whose selected edge is *down*
//!   sends the 1-bit "I am your parent" message across it (step 7 of the
//!   paper's algorithm); an *up* selection makes the choosing node (the
//!   fragment root) record its own parent port (step 6);
//! * the **final phase** collects the per-node final bits of the first
//!   `⌈log n⌉` BFS positions of each remaining fragment so its root can
//!   decode the rank of its parent edge (steps 8–9).
//!
//! # State and sends
//!
//! Every node borrows the run's one [`Schedule`], its advice and its levels.
//! Per run it computes its `(weight, port)` order once and allocates one
//! slot per port.  Per phase (and again for the final phase) a slot holds
//! the latest report of the child behind that port, refreshed in place, and
//! in the level variant the neighbour's level; the node also keeps the map
//! it received or built, whose children's entries it forwards once, and the
//! chooser payload it was handed.  Every phase starts by emptying all of
//! that, keeping the buffers.  A node sends straight into the round's sink
//! ([`NodeAlgorithm::round_into`]), so a node-round allocates only for the
//! messages it sends.

use super::messages::{ChooserPayload, ConstMsg, MapEntry, Report};
use super::schedule::{PhaseWindow, Schedule};
use super::ConstantVariant;
use crate::bits::BitString;
use lma_graph::Port;
use lma_mst::verify::UpwardOutput;
use lma_sim::{collect_outbox, LocalView, MsgSink, NodeAlgorithm, Outbox};

/// What one port delivered in the current phase.
#[derive(Default)]
struct Slot {
    /// The latest report of the child behind the port; empty when none.
    report: Report,
    /// The neighbour's fragment level (paper-literal level variant only).
    level: Option<u8>,
}

/// The per-node program of the constant-advice scheme.
pub struct ConstantDecoder<'a> {
    variant: ConstantVariant,
    schedule: &'a Schedule,
    /// Advice prefix holding the packed phase strings (everything except the
    /// trailing final segment).
    phase_bits: &'a [bool],
    /// The trailing final-phase segment: exactly one bit in the paper's
    /// Theorem 3 scheme, and `⌈log n / 2^P⌉` bits in the tradeoff scheme
    /// that stops the packed phases after phase `P` (see
    /// [`crate::tradeoff`]).
    final_bits: &'a [bool],
    /// How many BFS positions of each remaining fragment the final
    /// collection must gather (`⌈log n / |final_bits|⌉`).
    final_limit: usize,
    /// Idealized per-phase fragment levels (paper-literal level variant
    /// only; empty for the index variant).  `my_levels[i - 1]` is this node's
    /// fragment level at phase `i`.
    my_levels: &'a [u8],

    // --- per run ---
    /// Ports in `(weight, port)` order: the paper's local rank order and
    /// the child order of reports and maps.
    port_order: Vec<Port>,
    /// One slot per port.
    slots: Vec<Slot>,
    cons: usize,
    parent_port: Option<Port>,
    output: Option<UpwardOutput>,

    // --- per phase ---
    /// The map entry received from the parent (or, at a root, built) this
    /// phase.
    map: MapEntry,
    /// Whether `map`'s children still await their entries.
    map_pending: bool,
    chooser: Option<ChooserPayload>,
}

impl<'a> ConstantDecoder<'a> {
    /// Creates the program for one node whose advice ends in a final-phase
    /// segment of `final_width` bits (one in the paper's Theorem 3, and
    /// `⌈log n / 2^P⌉` in the tradeoff scheme that stops after phase `P`).
    #[must_use]
    pub fn new(
        variant: ConstantVariant,
        schedule: &'a Schedule,
        advice: &'a BitString,
        my_levels: &'a [u8],
        final_width: usize,
    ) -> Self {
        let all = advice.as_slice();
        let width = final_width.max(1).min(all.len());
        let (phase_bits, final_bits) = all.split_at(all.len() - width);
        let l = super::schedule::log_n(schedule.n);
        let final_limit = l.div_ceil(final_width.max(1)).max(1);
        Self {
            variant,
            schedule,
            phase_bits,
            final_bits,
            final_limit,
            my_levels,
            port_order: Vec::new(),
            slots: Vec::new(),
            cons: 0,
            parent_port: None,
            output: None,
            map: MapEntry::default(),
            map_pending: false,
            chooser: None,
        }
    }

    /// This node's still-unconsumed phase-advice bits.
    fn unconsumed(&self) -> &'a [bool] {
        &self.phase_bits[self.cons.min(self.phase_bits.len())..]
    }

    /// This node's report: `bits` above the children's latest reports in
    /// `(weight, port)` order — the order the paper's BFS uses — truncated
    /// to the first `limit` BFS nodes.
    fn report(&self, bits: &[bool], limit: usize) -> Report {
        let children = self.port_order.iter().map(|&p| &self.slots[p].report);
        Report::join(bits, children).into_truncated(limit.max(1))
    }

    /// The ports that delivered a report this phase, in `(weight, port)`
    /// order: the child order of this node's report and map.
    fn child_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.port_order
            .iter()
            .copied()
            .filter(|&p| self.slots[p].report.node_count() > 0)
    }

    /// Empties every slot, keeping its buffers.
    fn clear_slots(&mut self) {
        for slot in &mut self.slots {
            slot.report.clear();
            slot.level = None;
        }
    }

    /// Resolves the local rank `r` (1-based, in `(weight, port)` order) to a
    /// port.
    fn port_of_rank(&self, rank: usize) -> Option<Port> {
        self.port_order.get(rank.checked_sub(1)?).copied()
    }

    /// The fragment root's work at the end of a convergecast window:
    /// reassemble `A(F)`, decide activity, and prepare the downward map.
    fn root_assemble(&mut self, view: &LocalView, window: &PhaseWindow) {
        let i = window.phase;
        let threshold = 1usize << i.min(60);
        let report = self.report(self.unconsumed(), threshold);
        let count = report.node_count();
        if count >= threshold || count == view.n {
            // Passive fragment (or the whole graph): nothing to decode.
            return;
        }
        let needed = super::encoder::fragment_string_len(self.variant, i);
        let bits = report.bfs_bits();
        if bits.len() < needed {
            return; // corrupted advice; verification will flag the outputs
        }
        let a_f = &bits[..needed];
        let up = a_f[0];
        let (j, payload) = match self.variant {
            ConstantVariant::Level => {
                let target_level = u8::from(a_f[1]);
                let j = 1 + bits_to_uint(&a_f[2..2 + i]);
                (j, ChooserPayload::Level { up, target_level })
            }
            ConstantVariant::Index => {
                let j = 1 + bits_to_uint(&a_f[1..1 + i]);
                let rank = 1 + bits_to_uint(&a_f[1 + i..1 + 2 * i]);
                (
                    j,
                    ChooserPayload::Index {
                        up,
                        rank: rank as usize,
                    },
                )
            }
        };
        // Greedy consumption along the BFS order.
        let lengths = report.bfs_lengths();
        let mut consume = vec![0usize; count];
        let mut remaining = needed;
        for (k, &len) in lengths.iter().enumerate() {
            let take = len.min(remaining);
            consume[k] = take;
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        self.map = build_map(&report, &consume, j as usize, payload);
        self.apply_map();
    }

    /// Applies this node's own entry of `self.map` and queues its children's
    /// entries for the next broadcast round.
    fn apply_map(&mut self) {
        self.cons = (self.cons + self.map.consume()).min(self.phase_bits.len());
        if let Some(chooser) = self.map.chooser() {
            self.chooser = Some(chooser);
        }
        self.map_pending = true;
    }

    /// The choosing node's action, producing the optional notify message.
    fn resolve_chooser(&mut self) -> Option<(Port, ConstMsg)> {
        let payload = self.chooser.take()?;
        let (up, port) = match payload {
            ChooserPayload::Index { up, rank } => (up, self.port_of_rank(rank)?),
            ChooserPayload::Level { up, target_level } => {
                let port = self
                    .port_order
                    .iter()
                    .copied()
                    .find(|&p| self.slots[p].level == Some(target_level))?;
                (up, port)
            }
        };
        if up {
            if self.parent_port.is_none() {
                self.parent_port = Some(port);
            }
            None
        } else {
            Some((port, ConstMsg::Parent))
        }
    }

    /// Handles everything delivered in round `r`.
    fn process(&mut self, view: &LocalView, r: usize, inbox: &[(Port, ConstMsg)]) {
        let schedule = self.schedule;
        if let Some(window) = schedule.phase_of_round(r) {
            for (port, msg) in inbox {
                match msg {
                    ConstMsg::Level(l) if Some(r) == window.level_round => {
                        self.slots[*port].level = Some(*l);
                    }
                    ConstMsg::Report(rep)
                        if (window.converge_start..=window.converge_end).contains(&r) =>
                    {
                        self.slots[*port].report.clone_from(rep);
                    }
                    ConstMsg::Map(entry)
                        if (window.broadcast_start..=window.broadcast_end).contains(&r)
                            && Some(*port) == self.parent_port =>
                    {
                        self.map.clone_from(entry);
                        self.apply_map();
                    }
                    ConstMsg::Parent if r == window.notify_round && self.parent_port.is_none() => {
                        self.parent_port = Some(*port);
                    }
                    _ => {}
                }
            }
            if r == window.converge_end && self.parent_port.is_none() {
                self.root_assemble(view, window);
            }
        } else if schedule.is_final_round(r) {
            for (port, msg) in inbox {
                if let ConstMsg::Report(rep) = msg {
                    self.slots[*port].report.clone_from(rep);
                }
            }
        }
    }

    /// Sends the messages of round `next` into `out`.
    fn emit(&mut self, view: &LocalView, next: usize, out: &mut MsgSink<'_, ConstMsg>) {
        let schedule = self.schedule;
        if let Some(window) = schedule.phase_of_round(next) {
            let phase_start = window.level_round.unwrap_or(window.converge_start);
            if next == phase_start {
                // A new phase begins: reset the per-phase state.
                self.clear_slots();
                self.map_pending = false;
                self.chooser = None;
            }
            if Some(next) == window.level_round {
                let level = self.my_levels.get(window.phase - 1).copied().unwrap_or(0);
                for p in 0..view.degree() {
                    out.send(p, ConstMsg::Level(level));
                }
            }
            if (window.converge_start..=window.converge_end).contains(&next) {
                if let Some(parent) = self.parent_port {
                    let limit = 1usize << window.phase.min(60);
                    out.send(
                        parent,
                        ConstMsg::Report(self.report(self.unconsumed(), limit)),
                    );
                }
            }
            if (window.broadcast_start..=window.broadcast_end).contains(&next)
                && std::mem::take(&mut self.map_pending)
            {
                for (entry, port) in self.map.children().zip(self.child_ports()) {
                    out.send(port, ConstMsg::Map(entry));
                }
            }
            if next == window.notify_round {
                if let Some((port, msg)) = self.resolve_chooser() {
                    out.send(port, msg);
                }
            }
        } else if schedule.is_final_round(next) {
            if next == schedule.final_start {
                self.clear_slots();
            }
            if let Some(parent) = self.parent_port {
                out.send(
                    parent,
                    ConstMsg::Report(self.report(self.final_bits, self.final_limit)),
                );
            }
        }
    }

    /// Computes the node's final output after the last round.
    fn finalize(&mut self, view: &LocalView) {
        let out = if let Some(port) = self.parent_port {
            UpwardOutput::Parent(port)
        } else {
            let l = super::schedule::log_n(view.n);
            let bits = self.report(self.final_bits, self.final_limit).bfs_bits();
            let take = bits.len().min(l);
            let value = bits_to_uint(&bits[..take]);
            if value == 0 {
                UpwardOutput::Root
            } else {
                match self.port_of_rank(value as usize) {
                    Some(p) => UpwardOutput::Parent(p),
                    None => UpwardOutput::Root,
                }
            }
        };
        self.output = Some(out);
    }
}

/// Interprets a big-endian bit slice as an unsigned integer.
fn bits_to_uint(bits: &[bool]) -> u64 {
    bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b))
}

/// Builds the map tree parallel to a report tree: the node at BFS position
/// `k` consumes `consume[k]` bits, and the node at 1-based BFS position
/// `chooser_pos` receives `payload`.
pub(super) fn build_map(
    report: &Report,
    consume: &[usize],
    chooser_pos: usize,
    payload: ChooserPayload,
) -> MapEntry {
    MapEntry::shaped_like(report, |k| {
        let chooser = (k + 1 == chooser_pos).then_some(payload);
        (consume.get(k).copied().unwrap_or(0), chooser)
    })
}

impl NodeAlgorithm for ConstantDecoder<'_> {
    type Msg = ConstMsg;
    type Output = UpwardOutput;

    fn init(&mut self, view: &LocalView) -> Outbox<ConstMsg> {
        collect_outbox(|out| self.init_into(view, out))
    }

    fn round(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, ConstMsg)],
    ) -> Outbox<ConstMsg> {
        collect_outbox(|out| self.round_into(view, round, inbox, out))
    }

    fn init_into(&mut self, view: &LocalView, out: &mut MsgSink<'_, ConstMsg>) {
        self.port_order = view.ports_by_weight();
        self.slots.resize_with(view.degree(), Slot::default);
        if self.schedule.total_rounds() == 0 {
            self.finalize(view);
            return;
        }
        self.emit(view, 1, out);
    }

    fn round_into(
        &mut self,
        view: &LocalView,
        round: usize,
        inbox: &[(Port, ConstMsg)],
        out: &mut MsgSink<'_, ConstMsg>,
    ) {
        self.process(view, round, inbox);
        if round >= self.schedule.total_rounds() {
            self.finalize(view);
            return;
        }
        self.emit(view, round + 1, out);
    }

    fn is_done(&self) -> bool {
        self.output.is_some()
    }

    fn output(&self) -> Option<UpwardOutput> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_to_uint_works() {
        assert_eq!(bits_to_uint(&[]), 0);
        assert_eq!(bits_to_uint(&[true]), 1);
        assert_eq!(bits_to_uint(&[true, false, true]), 5);
        assert_eq!(bits_to_uint(&[false, false, true, true]), 3);
    }

    #[test]
    fn build_map_marks_the_right_bfs_position() {
        // Report: root with two children, second child has one child.
        let second = Report::join(&[true], [&Report::leaf(&[false, false])]);
        let report = Report::join(&[true, true], [&Report::leaf(&[false]), &second]);
        let consume = vec![2, 1, 0, 0];
        let payload = ChooserPayload::Index { up: true, rank: 3 };
        let map = build_map(&report, &consume, 3, payload);
        assert_eq!(map.consume(), 2);
        assert!(map.chooser().is_none());
        let children: Vec<MapEntry> = map.children().collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].consume(), 1);
        assert!(children[0].chooser().is_none());
        // BFS position 3 is the second child of the root.
        assert_eq!(children[1].chooser(), Some(payload));
        let grandchildren: Vec<MapEntry> = children[1].children().collect();
        assert_eq!(grandchildren.len(), 1);
        assert!(grandchildren[0].chooser().is_none());
    }
}
