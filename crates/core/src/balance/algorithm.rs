//! The Algorithm 1 driver: metrics → tree → ordered transfers → plan.

use crate::balance::power::{compute_metrics, LoadMetrics};
use crate::balance::transfer::select_transfer_scored;
use crate::balance::tree::build_forest_weighted;
use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::SdId;
use nlheat_netmodel::{CommCost, N_LINK_CLASSES};
use nlheat_partition::SdGraph;

/// Per-SD migration payload sizes (wire bytes, payload + framing).
///
/// The historical planner carried one scalar `sd_bytes` — every tile the
/// same size — which kept costs constant across a transfer frontier. A
/// per-SD lookup lets costs and memory footprints differentiate *within*
/// one frontier (heterogeneous tiles, refined meshes); the
/// [`SdBytes::Uniform`] variant preserves the scalar behaviour exactly,
/// so `u64` call sites (via `From`) stay byte-identical by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdBytes {
    /// Every SD tile ships the same number of wire bytes.
    Uniform(u64),
    /// Per-SD wire bytes, indexed by [`SdId`]. Shared, not copied — the
    /// substrate builds the table once per run.
    PerSd(std::sync::Arc<Vec<u64>>),
}

impl SdBytes {
    /// Wire bytes of `sd`'s migrating tile.
    ///
    /// # Panics
    /// Panics when a [`SdBytes::PerSd`] table does not cover `sd`.
    pub fn get(&self, sd: SdId) -> u64 {
        match self {
            SdBytes::Uniform(b) => *b,
            SdBytes::PerSd(table) => table[sd as usize],
        }
    }

    /// A representative per-tile size for SD-independent estimates (node
    /// ordering weights, neighbour sorts): the uniform value, or the mean
    /// of the per-SD table. Never used where an exact per-SD size is
    /// available.
    pub fn nominal(&self) -> u64 {
        match self {
            SdBytes::Uniform(b) => *b,
            SdBytes::PerSd(table) if table.is_empty() => 0,
            SdBytes::PerSd(table) => table.iter().sum::<u64>() / table.len() as u64,
        }
    }

    /// Per-SD sizes from an owned table.
    pub fn per_sd(table: Vec<u64>) -> Self {
        SdBytes::PerSd(std::sync::Arc::new(table))
    }
}

impl From<u64> for SdBytes {
    fn from(b: u64) -> Self {
        SdBytes::Uniform(b)
    }
}

impl From<Vec<u64>> for SdBytes {
    fn from(table: Vec<u64>) -> Self {
        SdBytes::per_sd(table)
    }
}

/// One SD migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The migrating sub-domain.
    pub sd: SdId,
    /// Current owner.
    pub from: NodeId,
    /// New owner.
    pub to: NodeId,
}

/// Communication-cost parameters of a cost-aware planning pass.
///
/// `λ = 0` (or a free [`CommCost`]) degenerates to the paper's count-based
/// Algorithm 1 — byte-identical plans, because every cost term vanishes
/// and every cost-aware ordering falls back to the count-based
/// tie-breaks. With `λ > 0` a candidate transfer only happens when its
/// per-SD busy-time relief (in seconds) exceeds `λ ×` the estimated
/// transfer seconds of one SD tile over the `src → dst` link, so
/// imbalance settles over cheap links and expensive (e.g. inter-rack)
/// migrations need to earn their bytes. Busy times must be in **seconds**
/// for the comparison to be meaningful.
///
/// `μ` weighs the **recurring** cost of a move — the change in
/// steady-state ghost-exchange seconds per timestep that reassigning the
/// SD causes (its edge-cut delta over the [`SdGraph`], each cut edge
/// priced by its link class). λ prices the one-off migration, μ prices
/// what the ownership costs *every step afterwards*; `μ = 0` (the
/// default, and any plan without an [`SdGraph`]) is pinned byte-identical
/// to the μ-less planner.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Transfer-cost estimate derived from the active network spec.
    pub comm: CommCost,
    /// Weight of communication cost against busy-time relief.
    pub lambda: f64,
    /// Wire bytes of each migrating SD tile (payload + framing).
    pub sd_bytes: SdBytes,
    /// Weight of the per-SD ghost-traffic (edge-cut) delta against
    /// busy-time relief; 0 disables the term.
    pub mu: f64,
}

impl CostParams {
    /// Free network, λ = μ = 0: the count-based planner.
    pub fn free() -> Self {
        CostParams {
            comm: CommCost::free(),
            lambda: 0.0,
            sd_bytes: SdBytes::Uniform(0),
            mu: 0.0,
        }
    }

    pub fn new(comm: CommCost, lambda: f64, sd_bytes: impl Into<SdBytes>) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be finite and non-negative, got {lambda}"
        );
        CostParams {
            comm,
            lambda,
            sd_bytes: sd_bytes.into(),
            mu: 0.0,
        }
    }

    /// Weigh the steady-state ghost-traffic delta of each candidate move
    /// by `mu`.
    ///
    /// # Panics
    /// Panics on negative or non-finite `mu`.
    pub fn with_mu(mut self, mu: f64) -> Self {
        validate_mu(mu);
        self.mu = mu;
        self
    }

    /// True when λ-weighted cost terms can affect the plan.
    fn is_active(&self) -> bool {
        self.lambda > 0.0 && !self.comm.is_free()
    }

    /// The ghost graph, iff the μ term can affect the plan — `None`
    /// otherwise, so the degenerate case takes exactly the μ-less code
    /// path (byte-identical plans, no float dust).
    fn ghost_graph<'g>(&self, ghost: Option<&'g SdGraph>) -> Option<&'g SdGraph> {
        if mu_active(self.mu, &self.comm) {
            ghost
        } else {
            None
        }
    }

    /// λ-weighted cost (seconds) of migrating one *nominal* SD tile
    /// `src` → `dst` — the SD-independent estimate used for node ordering
    /// (forest growth, neighbour sorts); exactly 0 when inactive so the
    /// degenerate case cannot drift from the count-based planner through
    /// float noise. With uniform tiles this equals [`Self::move_cost`]
    /// for every SD.
    fn edge_weight(&self, src: NodeId, dst: NodeId) -> f64 {
        if self.is_active() {
            self.lambda * self.comm.seconds(src, dst, self.sd_bytes.nominal())
        } else {
            0.0
        }
    }

    /// λ-weighted cost (seconds) of migrating `sd`'s actual tile
    /// `src` → `dst`; exactly 0 when inactive (see [`Self::edge_weight`]).
    fn move_cost(&self, src: NodeId, dst: NodeId, sd: SdId) -> f64 {
        if self.is_active() {
            self.lambda * self.comm.seconds(src, dst, self.sd_bytes.get(sd))
        } else {
            0.0
        }
    }
}

/// The one copy of the μ invariant, shared by [`CostParams::with_mu`]
/// and the `LbSpec` builders/validation in [`crate::balance::policy`].
///
/// # Panics
/// Panics on negative or non-finite `mu`.
pub(crate) fn validate_mu(mu: f64) {
    assert!(
        mu >= 0.0 && mu.is_finite(),
        "mu must be finite and non-negative, got {mu}"
    );
}

/// The one copy of the μ-activity predicate: the ghost term can affect a
/// plan only with a positive weight over a non-free network. Shared by
/// [`CostParams`] (the tree planner's gate) and `LbNetwork::ghost_graph`
/// (every other policy's gate), so the policies can never disagree on
/// when ghost machinery engages.
pub(crate) fn mu_active(mu: f64, comm: &CommCost) -> bool {
    mu > 0.0 && !comm.is_free()
}

/// Change in steady-state ghost-exchange seconds per timestep if `sd`
/// were reassigned from its current owner to `to` — the [`SdGraph`]
/// edge-cut delta of the move, each affected edge priced by the link
/// class of its (new or vanished) owner pair. Same-node exchanges cost
/// nothing: no message is sent, exactly as both substrates behave.
/// Positive: the move adds recurring traffic; negative: the move heals
/// the partition (the SD moves toward its ghost neighbours).
pub fn ghost_delta_seconds(
    comm: &CommCost,
    graph: &SdGraph,
    owners: &[NodeId],
    sd: SdId,
    to: NodeId,
) -> f64 {
    let from = owners[sd as usize];
    if from == to {
        return 0.0;
    }
    let mut delta = 0.0;
    for (nb, bytes) in graph.neighbours(sd) {
        let o = owners[nb as usize];
        if o != from {
            delta -= comm.seconds(from, o, bytes); // this cut edge vanishes
        }
        if o != to {
            delta += comm.seconds(to, o, bytes); // this cut edge appears
        }
    }
    delta
}

/// Communication summary of a [`MigrationPlan`]: what shipping it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanComm {
    /// Total migration payload bytes.
    pub total_bytes: u64,
    /// Migration bytes by [`nlheat_netmodel::LinkClass`] (indexed by the
    /// enum discriminant: intra-node, intra-rack, inter-rack).
    pub bytes_by_class: [u64; N_LINK_CLASSES],
}

impl PlanComm {
    /// Bytes crossing rack boundaries — the traffic cost-aware planning
    /// exists to shrink.
    pub fn inter_rack_bytes(&self) -> u64 {
        self.bytes_by_class[nlheat_netmodel::LinkClass::InterRack as usize]
    }
}

/// The outcome of one load-balancing iteration.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// SD migrations in application order.
    pub moves: Vec<Move>,
    /// The metrics (eqs. 8–10) the plan was derived from.
    pub metrics: LoadMetrics,
    /// The ownership after applying `moves`.
    pub new_ownership: Ownership,
    /// Migration traffic summary (all zero when planned with
    /// [`CostParams::free`], whose `sd_bytes` is 0).
    pub comm: PlanComm,
    /// Estimated seconds to ship the plan's tiles, per [`CommCost`].
    pub est_migration_seconds: f64,
}

impl MigrationPlan {
    /// True when the iteration found nothing to move.
    pub fn is_noop(&self) -> bool {
        self.moves.is_empty()
    }
}

/// One iteration of Algorithm 1 — the count-based planner, i.e.
/// [`plan_rebalance_ghost_aware`] with a free network and no SD graph.
///
/// `busy` are the per-node busy times (any consistent unit) accumulated
/// since the previous iteration's counter reset.
pub fn plan_rebalance(own: &Ownership, busy: &[f64]) -> MigrationPlan {
    plan_rebalance_ghost_aware(
        own,
        compute_metrics(&own.counts(), busy),
        &CostParams::free(),
        None,
    )
}

/// One iteration of Algorithm 1 from precomputed eqs. 8–10 metrics,
/// weighing migrations by network cost and, with an SD graph attached,
/// by the ghost traffic they add or remove. This is the entry point of
/// the tree policy in the pluggable [`crate::balance::policy`] layer,
/// where every policy receives the same [`LoadMetrics`].
///
/// Sign conventions follow eq. 9 (`imbalance = expected − count`, positive
/// = node should *gain* SDs). Each node in topological order settles its
/// imbalance against its not-yet-visited adjacent nodes, `imbalance/L`
/// each with the remainder spread deterministically; transfers are
/// realized immediately by frontier ring growth, and unrealizable
/// residuals (exhausted frontiers) simply remain for the next iteration —
/// the algorithm is iterative by design (the paper's Fig. 14 converges in
/// three iterations).
///
/// Communication awareness enters at three points, all degenerating to
/// the count-based behaviour at `λ = 0`:
/// * the dependency forest expands cheap links first, so the topological
///   order settles imbalance within racks before crossing them;
/// * within one node's settlement, the remainder of `imbalance/L` is
///   given to the cheapest-linked neighbours first;
/// * a transfer is realized only when its per-SD busy-time relief
///   (`busy[src]/count[src]`, seconds) exceeds the λ-weighted estimated
///   transfer seconds of one tile — gated via the per-SD score of
///   [`select_transfer_scored`]. Gated imbalance stays put and is settled
///   over cheaper links on later iterations.
///
/// With the graph attached every candidate transfer is scored
/// `relief − λ·migration_seconds − μ·Δghost_seconds`, where the last term
/// is the move's [`SdGraph`] edge-cut delta priced by link class
/// ([`ghost_delta_seconds`]) against the *working* ownership at the time
/// the frontier is settled. The μ term both gates transfers (negative
/// score ⇒ the move's recurring traffic outweighs its relief) and shapes
/// partial-ring growth (cut-healing SDs are picked first). With `μ = 0`,
/// a free network, or no graph, the closure collapses to the constant
/// λ-gated score — byte-identical to the μ-less planner by construction.
pub fn plan_rebalance_ghost_aware(
    own: &Ownership,
    metrics: LoadMetrics,
    cost: &CostParams,
    ghost: Option<&SdGraph>,
) -> MigrationPlan {
    let n = own.n_nodes() as usize;
    assert_eq!(metrics.counts.len(), n, "metrics cover every node");
    let ghost = cost.ghost_graph(ghost);
    if let Some(g) = ghost {
        assert_eq!(g.n_sds(), own.sds().count(), "ghost graph covers the grid");
    }
    let adjacency = own.node_adjacency();
    let forest = build_forest_weighted(&adjacency, &metrics.imbalance, |u, v| {
        cost.edge_weight(u, v)
    });

    let mut imbalance = metrics.imbalance.clone();
    let mut working = own.clone();
    let mut visited = vec![false; n];

    // Raw transfers in tree order; may route one SD through several owners.
    let mut raw: Vec<Move> = Vec::new();

    for tree in &forest {
        for &i in &tree.order {
            visited[i as usize] = true;
            if imbalance[i as usize] == 0 {
                continue;
            }
            // Non-visited adjacent nodes (graph adjacency; the tree only
            // fixes the ordering). Recompute from the *working* ownership:
            // earlier transfers may have created or removed borders.
            // Cheapest links first so the remainder lands there; at λ = 0
            // all weights tie and the id order is the count-based one.
            let mut neighbors: Vec<NodeId> = working.node_adjacency()[i as usize]
                .iter()
                .copied()
                .filter(|&m| !visited[m as usize])
                .collect();
            neighbors.sort_by(|&a, &b| {
                cost.edge_weight(i, a)
                    .total_cmp(&cost.edge_weight(i, b))
                    .then(a.cmp(&b))
            });
            let l = neighbors.len() as i64;
            if l == 0 {
                continue;
            }
            let want = imbalance[i as usize];
            let base = want / l;
            let mut rem = want - base * l;
            for &m in &neighbors {
                let mut x = base;
                if rem != 0 {
                    x += rem.signum();
                    rem -= rem.signum();
                }
                if x == 0 {
                    continue;
                }
                let (src, dst, amount) = if x > 0 {
                    (m, i, x as usize) // i borrows from m
                } else {
                    (i, m, (-x) as usize) // i lends to m
                };
                // Per-SD migration score: busy-time relief minus the
                // λ-weighted transfer cost of *that* SD's tile. Uniform
                // tiles make it constant across this frontier, so it acts
                // as a transfer gate — per-SD sizes differentiate within
                // the frontier, and an active μ additionally charges each
                // SD its ghost-traffic delta.
                let relief = metrics.relief_per_sd(src as usize);
                let realized = match ghost {
                    Some(g) => realize_ghost_aware(
                        &mut working,
                        &mut raw,
                        src,
                        dst,
                        amount,
                        |owners, sd| {
                            relief
                                - cost.move_cost(src, dst, sd)
                                - cost.mu * ghost_delta_seconds(&cost.comm, g, owners, sd, dst)
                        },
                    ),
                    None => {
                        let chosen = select_transfer_scored(&working, src, dst, amount, |sd| {
                            relief - cost.move_cost(src, dst, sd)
                        });
                        for &sd in &chosen {
                            working.set_owner(sd, dst);
                            raw.push(Move {
                                sd,
                                from: src,
                                to: dst,
                            });
                        }
                        chosen.len() as i64
                    }
                };
                // bookkeeping: dst gained `realized`, src lost them
                imbalance[dst as usize] -= realized;
                imbalance[src as usize] += realized;
            }
        }
    }
    finish_plan(metrics, working, raw, &cost.comm, &cost.sd_bytes)
}

/// Realize a ghost-aware transfer of up to `amount` SDs `src` → `dst`,
/// **one SD at a time**: after every pick the working ownership advances,
/// so the next SD's ghost-traffic delta is exact — a batch selection
/// would price every ring SD as if its ring-mates stayed behind,
/// systematically overcharging contiguous block moves (the common case)
/// and mis-ordering partial rings. Returns the number of SDs realized.
/// Only the μ-active path pays this cost; the μ-less planner keeps the
/// batch selection, whose plans are pinned byte-identical.
pub(crate) fn realize_ghost_aware(
    working: &mut Ownership,
    raw: &mut Vec<Move>,
    src: NodeId,
    dst: NodeId,
    amount: usize,
    score: impl Fn(&[NodeId], SdId) -> f64,
) -> i64 {
    let mut realized = 0i64;
    for _ in 0..amount {
        let chosen = select_transfer_scored(working, src, dst, 1, |sd| score(working.owners(), sd));
        let Some(&sd) = chosen.first() else { break };
        working.set_owner(sd, dst);
        raw.push(Move {
            sd,
            from: src,
            to: dst,
        });
        realized += 1;
    }
    realized
}

/// Turn a policy's raw transfer trace into the emitted [`MigrationPlan`]:
/// collapse per-SD chains (A→B, then B→C later in the same plan) into net
/// single-hop moves (A→C) and summarize the migration traffic. The runtime
/// ships each migrating tile exactly once per epoch, directly from the
/// owner that actually holds it; a chained plan would ask the intermediate
/// owner to forward a tile it never received. Collapsing also drops
/// A→…→A round trips — this is where *every* [`crate::balance::policy`]
/// implementation earns the single-hop invariant the fabric relies on.
pub(crate) fn finish_plan(
    metrics: LoadMetrics,
    working: Ownership,
    raw: Vec<Move>,
    comm_cost: &CommCost,
    sd_bytes: &SdBytes,
) -> MigrationPlan {
    // Dense per-SD index into `moves` (`u32::MAX`: not seen yet): first
    // sighting keeps the SD's position and origin, later ones its target.
    let mut moves: Vec<Move> = Vec::new();
    let mut slot = vec![u32::MAX; working.owners().len()];
    for mv in raw {
        let s = &mut slot[mv.sd as usize];
        if *s == u32::MAX {
            *s = moves.len() as u32;
            moves.push(mv);
        } else {
            moves[*s as usize].to = mv.to;
        }
    }
    moves.retain(|m| m.from != m.to);

    // Traffic summary over the collapsed (actually shipped) moves.
    let mut comm = PlanComm::default();
    let mut est_migration_seconds = 0.0;
    for m in &moves {
        let bytes = sd_bytes.get(m.sd);
        comm.total_bytes += bytes;
        comm.bytes_by_class[comm_cost.link_class(m.from, m.to) as usize] += bytes;
        est_migration_seconds += comm_cost.seconds(m.from, m.to, bytes);
    }

    MigrationPlan {
        moves,
        metrics,
        new_ownership: working,
        comm,
        est_migration_seconds,
    }
}

/// Run `plan_rebalance` repeatedly (at most `max_iters` times) with busy
/// times supplied by `busy_model` (a function of the current ownership —
/// e.g. virtual busy times for a known node-speed vector). Returns the
/// ownership history including the initial state.
pub fn iterate_rebalance(
    own: &Ownership,
    max_iters: usize,
    mut busy_model: impl FnMut(&Ownership) -> Vec<f64>,
) -> Vec<Ownership> {
    let mut history = vec![own.clone()];
    let mut current = own.clone();
    for _ in 0..max_iters {
        let busy = busy_model(&current);
        let plan = plan_rebalance(&current, &busy);
        if plan.is_noop() {
            break;
        }
        current = plan.new_ownership;
        history.push(current.clone());
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_mesh::SdGrid;

    /// Busy time proportional to SD count over identical nodes.
    fn symmetric_busy(own: &Ownership) -> Vec<f64> {
        own.counts().iter().map(|&c| c.max(1) as f64).collect()
    }

    /// Busy time for nodes with given speeds: count / speed.
    fn busy_for_speeds(own: &Ownership, speeds: &[f64]) -> Vec<f64> {
        own.counts()
            .iter()
            .zip(speeds)
            .map(|(&c, &s)| c as f64 / s)
            .collect()
    }

    /// The paper's Fig. 14 initial state: 5x5 SDs, 4 symmetric nodes,
    /// highly imbalanced — node 0 owns almost everything.
    fn fig14_initial() -> Ownership {
        let sds = SdGrid::new(5, 5, 4);
        let mut owners = vec![0u32; 25];
        owners[sds.id(4, 0) as usize] = 1;
        owners[sds.id(4, 4) as usize] = 3;
        owners[sds.id(0, 4) as usize] = 2;
        Ownership::new(sds, owners, 4)
    }

    #[test]
    fn balanced_input_is_noop() {
        let sds = SdGrid::new(4, 4, 5);
        let mut owners = vec![0u32; 16];
        for sd in 0..16 {
            let (sx, sy) = sds.coords(sd);
            owners[sd as usize] = (sy / 2 * 2 + sx / 2) as u32;
        }
        let own = Ownership::new(sds, owners, 4);
        let plan = plan_rebalance(&own, &symmetric_busy(&own));
        assert!(plan.is_noop(), "already balanced quadrants");
    }

    #[test]
    fn moves_preserve_sd_conservation() {
        let own = fig14_initial();
        let plan = plan_rebalance(&own, &symmetric_busy(&own));
        let before: usize = own.counts().iter().sum();
        let after: usize = plan.new_ownership.counts().iter().sum();
        assert_eq!(before, after);
        // every move's `from` owned the SD at its time of application
        let mut check = own.clone();
        for m in &plan.moves {
            assert_eq!(check.owner(m.sd), m.from, "stale move source");
            check.set_owner(m.sd, m.to);
        }
        assert_eq!(check, plan.new_ownership);
    }

    #[test]
    fn fig14_converges_within_three_iterations() {
        // The paper's validation: highly imbalanced start, symmetric
        // nodes; within 3 iterations the distribution is near-balanced.
        let own = fig14_initial();
        let history = iterate_rebalance(&own, 3, symmetric_busy);
        let final_counts = history.last().unwrap().counts();
        let max = *final_counts.iter().max().unwrap();
        let min = *final_counts.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "counts after 3 iterations too uneven: {final_counts:?}"
        );
    }

    #[test]
    fn heterogeneous_speeds_get_proportional_shares() {
        // Node 0 twice as fast as the others: it should end up with about
        // twice the SDs.
        let sds = SdGrid::new(6, 6, 4);
        let mut owners = vec![0u32; 36];
        for sd in 0..36u32 {
            let (sx, _) = sds.coords(sd);
            owners[sd as usize] = (sx / 2) as u32; // vertical thirds
        }
        let own = Ownership::new(sds, owners, 3);
        let speeds = [2.0, 1.0, 1.0];
        let history = iterate_rebalance(&own, 5, |o| busy_for_speeds(o, &speeds));
        let counts = history.last().unwrap().counts();
        // expectation: 36 * 2/4 = 18 vs 9 and 9
        assert!(
            (16..=20).contains(&counts[0]),
            "fast node share: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 36);
    }

    #[test]
    fn contiguity_preserved_through_iterations() {
        let own = fig14_initial();
        let history = iterate_rebalance(&own, 3, symmetric_busy);
        for (it, state) in history.iter().enumerate() {
            for node in 0..4 {
                assert!(
                    state.is_contiguous(node),
                    "node {node} fragmented at iteration {it}:\n{}",
                    state.render()
                );
            }
        }
    }

    #[test]
    fn single_node_cluster_is_trivially_balanced() {
        let own = Ownership::single_node(SdGrid::new(4, 4, 5));
        let plan = plan_rebalance(&own, &[1.0]);
        assert!(plan.is_noop());
    }

    #[test]
    fn two_nodes_direct_exchange() {
        // 1x6 row: node 0 owns 5, node 1 owns 1; symmetric busy.
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 0, 1], 2);
        let plan = plan_rebalance(&own, &symmetric_busy(&own));
        let counts = plan.new_ownership.counts();
        assert_eq!(counts, vec![3, 3]);
        // the moved SDs are the ones bordering node 1 (ids 4 then 3)
        let moved: Vec<SdId> = plan.moves.iter().map(|m| m.sd).collect();
        assert_eq!(moved, vec![4, 3]);
    }

    #[test]
    fn moves_are_single_hop_per_sd() {
        // Regression: a plan may internally route an SD through several
        // owners (node i borrows X from m, a later node borrows X from i).
        // The emitted plan must collapse that to one move per SD whose
        // `from` is the SD's owner *before* the epoch — the distributed
        // driver ships every migrating tile concurrently and would panic
        // ("migrating unowned SD") on a chained plan. Sweep skewed busy
        // vectors over several imbalanced ownerships to cover many tree
        // shapes and transfer orders.
        let sds = SdGrid::new(6, 6, 4);
        for pattern in 0..16u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for skew in 0..8 {
                let busy: Vec<f64> = (0..4)
                    .map(|n| 1.0 + ((n + skew) % 4) as f64 * 1.7)
                    .collect();
                let plan = plan_rebalance(&own, &busy);
                let mut seen = std::collections::HashSet::new();
                for m in &plan.moves {
                    assert!(seen.insert(m.sd), "SD {} moved twice", m.sd);
                    assert_ne!(m.from, m.to, "no-op move for SD {}", m.sd);
                    assert_eq!(
                        own.owner(m.sd),
                        m.from,
                        "move source must be the pre-epoch owner"
                    );
                }
                // net moves still land exactly on the claimed ownership
                let mut check = own.clone();
                for m in &plan.moves {
                    check.set_owner(m.sd, m.to);
                }
                assert_eq!(check, plan.new_ownership);
            }
        }
    }

    #[test]
    fn ghost_delta_signs_track_the_cut() {
        // 6x6 halves with one node-1 intrusion at (2, 0): sending the
        // intruder home heals the cut (negative delta), roughening the
        // straight boundary costs (positive delta), and the priced delta
        // agrees in sign with the pure byte-cut delta of the graph.
        let sds = SdGrid::new(6, 6, 4);
        let mut owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        owners[sds.id(2, 0) as usize] = 1;
        let graph = nlheat_partition::SdGraph::build(&sds, 1);
        let comm = CommCost::from_spec(&NetSpec::cluster());
        let heal = ghost_delta_seconds(&comm, &graph, &owners, sds.id(2, 0), 0);
        assert!(heal < 0.0, "sending the intruder home must heal: {heal}");
        let worsen = ghost_delta_seconds(&comm, &graph, &owners, sds.id(3, 3), 0);
        assert!(worsen > 0.0, "roughening the boundary must cost: {worsen}");
        for (sd, to) in [(sds.id(2, 0), 0u32), (sds.id(3, 3), 0), (sds.id(0, 0), 1)] {
            let secs = ghost_delta_seconds(&comm, &graph, &owners, sd, to);
            let bytes = graph.cut_delta_bytes(&owners, sd, to);
            assert_eq!(
                secs > 0.0,
                bytes > 0,
                "sign must match the byte cut: sd {sd} -> {to}"
            );
        }
        // no-op move, free network: exactly zero
        assert_eq!(
            ghost_delta_seconds(&comm, &graph, &owners, sds.id(0, 0), 0),
            0.0
        );
        assert_eq!(
            ghost_delta_seconds(&CommCost::free(), &graph, &owners, sds.id(3, 3), 0),
            0.0
        );
    }

    #[test]
    fn ghost_aware_plan_without_mu_is_byte_identical() {
        // plan_rebalance_ghost_aware with a graph but μ = 0 must take the
        // ghost-blind path exactly.
        let sds = SdGrid::new(6, 6, 4);
        let graph = nlheat_partition::SdGraph::build(&sds, 2);
        let comm = CommCost::from_spec(&NetSpec::Topology(harsh_two_rack()));
        let params = CostParams::new(comm, 1.0, 5024);
        for pattern in 0..4u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            let busy: Vec<f64> = (0..4).map(|n| 1.0 + (n % 4) as f64 * 2.3).collect();
            let metrics = compute_metrics(&own.counts(), &busy);
            let blind = plan_rebalance_ghost_aware(&own, metrics.clone(), &params, None);
            let ghosted = plan_rebalance_ghost_aware(&own, metrics, &params, Some(&graph));
            assert_eq!(blind.moves, ghosted.moves, "pattern {pattern}");
            assert_eq!(blind.new_ownership, ghosted.new_ownership);
        }
    }

    #[test]
    fn plan_records_metrics() {
        let own = fig14_initial();
        let plan = plan_rebalance(&own, &symmetric_busy(&own));
        assert_eq!(plan.metrics.counts, vec![22, 1, 1, 1]);
        assert_eq!(plan.metrics.imbalance.iter().sum::<i64>(), 0);
    }

    use nlheat_netmodel::{CommCost, LinkSpec, NetSpec, TopologySpec};

    /// A 2-rack topology where crossing racks is brutally expensive and
    /// staying inside a rack is nearly free.
    fn harsh_two_rack() -> TopologySpec {
        TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 2,
            intra_node: LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: LinkSpec::new(1e-9, f64::INFINITY),
            inter_rack: LinkSpec::new(10.0, 1.0),
        }
    }

    #[test]
    fn lambda_zero_with_real_network_is_byte_identical() {
        // The acceptance criterion: cost-aware planning at λ = 0 must not
        // perturb the count-based plans, even with a non-trivial CommCost
        // and tile size attached. Sweep the same ownership/busy space as
        // `moves_are_single_hop_per_sd`.
        let comm = CommCost::from_spec(&NetSpec::Topology(harsh_two_rack()));
        let params = CostParams::new(comm, 0.0, 1 << 20);
        let sds = SdGrid::new(6, 6, 4);
        for pattern in 0..16u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for skew in 0..8 {
                let busy: Vec<f64> = (0..4)
                    .map(|n| 1.0 + ((n + skew) % 4) as f64 * 1.7)
                    .collect();
                let seed = plan_rebalance(&own, &busy);
                let cost_aware = plan_rebalance_ghost_aware(
                    &own,
                    compute_metrics(&own.counts(), &busy),
                    &params,
                    None,
                );
                assert_eq!(
                    seed.moves, cost_aware.moves,
                    "pattern {pattern} skew {skew}"
                );
                assert_eq!(seed.new_ownership, cost_aware.new_ownership);
            }
        }
    }

    #[test]
    fn lambda_gates_inter_rack_migrations() {
        // 8x1 row; racks {0,1} and {2,3}. Node 1 is overloaded and would
        // settle toward both node 0 (intra-rack) and node 2 (inter-rack).
        let sds = SdGrid::new(8, 1, 4);
        let owners = vec![0, 0, 1, 1, 1, 1, 2, 3];
        let own = Ownership::new(sds, owners, 4);
        let busy = symmetric_busy(&own);
        let comm = CommCost::from_spec(&NetSpec::Topology(harsh_two_rack()));

        let free = plan_rebalance_ghost_aware(
            &own,
            compute_metrics(&own.counts(), &busy),
            &CostParams::new(comm, 0.0, 1000),
            None,
        );
        assert!(
            free.comm.inter_rack_bytes() > 0,
            "λ=0 must cross racks here: {:?}",
            free.moves
        );
        // relief ≈ 1 s/SD, inter-rack cost = 10 + 2·1000/1 = 2010 s ≫ it
        let gated = plan_rebalance_ghost_aware(
            &own,
            compute_metrics(&own.counts(), &busy),
            &CostParams::new(comm, 1.0, 1000),
            None,
        );
        assert_eq!(
            gated.comm.inter_rack_bytes(),
            0,
            "λ=1 must gate the inter-rack move: {:?}",
            gated.moves
        );
        assert!(!gated.is_noop(), "intra-rack settlement must still happen");
        assert!(gated
            .moves
            .iter()
            .all(|m| comm.link_class(m.from, m.to) != nlheat_netmodel::LinkClass::InterRack),);
    }

    #[test]
    fn plan_comm_classifies_bytes_per_link() {
        let sds = SdGrid::new(8, 1, 4);
        let owners = vec![0, 0, 1, 1, 1, 1, 2, 3];
        let own = Ownership::new(sds, owners, 4);
        let comm = CommCost::from_spec(&NetSpec::Topology(harsh_two_rack()));
        let plan = plan_rebalance_ghost_aware(
            &own,
            compute_metrics(&own.counts(), &symmetric_busy(&own)),
            &CostParams::new(comm, 0.0, 64),
            None,
        );
        let by_class: u64 = plan.comm.bytes_by_class.iter().sum();
        assert_eq!(plan.comm.total_bytes, by_class);
        assert_eq!(plan.comm.total_bytes, 64 * plan.moves.len() as u64);
        assert!(plan.est_migration_seconds > 0.0);
        // the free-params spelling reports zero traffic
        let free = plan_rebalance(&own, &symmetric_busy(&own));
        assert_eq!(free.comm, PlanComm::default());
        assert_eq!(free.est_migration_seconds, 0.0);
    }

    #[test]
    fn gated_plans_keep_single_hop_invariant() {
        // The single-hop collapse must survive cost-aware gating: sweep
        // λ over skewed busy vectors on a 2-rack layout and assert no SD
        // moves twice and every `from` is the pre-epoch owner.
        let sds = SdGrid::new(6, 6, 4);
        let comm = CommCost::from_spec(&NetSpec::Topology(harsh_two_rack()));
        for pattern in 0..8u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for lambda in [0.0, 1e-4, 0.5, 1.0, 100.0] {
                let busy: Vec<f64> = (0..4).map(|n| 1.0 + (n % 4) as f64 * 2.3).collect();
                let plan = plan_rebalance_ghost_aware(
                    &own,
                    compute_metrics(&own.counts(), &busy),
                    &CostParams::new(comm, lambda, 5024),
                    None,
                );
                let mut seen = std::collections::HashSet::new();
                for m in &plan.moves {
                    assert!(seen.insert(m.sd), "SD {} moved twice (λ={lambda})", m.sd);
                    assert_eq!(own.owner(m.sd), m.from, "stale source (λ={lambda})");
                    assert_ne!(m.from, m.to);
                }
                let mut check = own.clone();
                for m in &plan.moves {
                    check.set_owner(m.sd, m.to);
                }
                assert_eq!(check, plan.new_ownership);
            }
        }
    }
}
