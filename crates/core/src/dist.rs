//! Fully distributed asynchronous solver with online load balancing.
//!
//! Implements §6 of the paper end to end: SDs distributed over localities
//! by the mesh partitioner (§6.2), ghost zones exchanged as parcels, the
//! case-2 (foreign-independent) computation launched immediately while
//! case-1 computation is a dataflow continuation on the ghost futures
//! (§6.3, Fig. 5) — so communication hides behind computation — and, every
//! [`LbSchedule::period`] steps, a full load-balancing epoch (§7): the
//! busy times are gathered on locality 0 with
//! [`nlheat_amt::collectives::gather`], planned there by the run's
//! [`EpochController`] — the configured [`LbSpec`] policy (Algorithm 1 by
//! default) behind the epoch protocol the simulator shares — broadcast
//! with [`nlheat_amt::collectives::broadcast`], and realized by SD
//! migration and a busy-counter reset.
//!
//! There is deliberately **no global barrier between timesteps**: tags
//! carry the step index, so a fast node may run ahead and its messages are
//! stashed by the receiver's rendezvous table until expected — the
//! asynchronous pipelining an AMT runtime buys.

pub use crate::balance::LbSpec;
use crate::balance::{
    EpochController, EpochInput, EpochPlan, EpochRecords, EpochSetup, EpochTrace, LbSchedule, Move,
};
use crate::ownership::Ownership;
use crate::scenario::{failed_at, nominal_sec_per_dp, LbInput, PartitionSpec};
use crate::workload::WorkModel;
use bytes::{Bytes, BytesMut};
use nlheat_amt::cluster::{Cluster, ClusterBuilder};
use nlheat_amt::codec::{decode_f64_rows, encode_f64_rows};
use nlheat_amt::collectives::{broadcast, gather};
use nlheat_amt::future::{when_all, Future};
use nlheat_amt::locality::Locality;
use nlheat_amt::parcel::tag;
use nlheat_mesh::{
    build_halo_plan, split_cases, CaseSplit, HaloPlan, PatchSource, Rect, SdGrid, SdId, Stencil,
    Tile,
};
use nlheat_model::{ErrorAccumulator, ProblemParts, ProblemSpec};
use nlheat_netmodel::{LinkClass, NetSpec};
use nlheat_partition::patch_wire_bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parcel tag classes of the solver protocol (the balancing epoch's
/// gather and broadcast use the collectives' own class).
const CLASS_GHOST: u8 = 1;
const CLASS_MIGRATE: u8 = 4;

/// Configuration of a distributed run — the low-level execution config of
/// the real runtime. Prefer describing experiments with
/// [`crate::scenario::Scenario`] (which compiles into this via
/// [`crate::scenario::Scenario::dist_config`]); `DistConfig` remains the
/// compatibility layer for code that drives the runtime directly.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// The physical problem (manufactured source and initial condition).
    pub spec: ProblemSpec,
    /// SD side length in cells.
    pub sd_size: usize,
    /// Timesteps.
    pub n_steps: usize,
    /// Initial distribution method (shared with the simulator).
    pub partition: PartitionSpec,
    /// Case-1/case-2 overlap (§6.3); `false` waits for all ghosts before
    /// computing anything (ablation A2).
    pub overlap: bool,
    /// Optional load balancing.
    pub lb: Option<LbSchedule>,
    /// Record the eq.-7 error every step.
    pub record_error: bool,
    /// Per-SD work factors (crack scenario etc.).
    pub work: WorkModel,
    /// Time-varying workload: `(from_step, model)` switch points, sorted
    /// by step; the last entry with `from_step ≤ s` overrides `work` at
    /// step `s`. The same propagating-crack schedule the simulator
    /// executes — the work factor is emulated by kernel repetition, so
    /// the numerics stay bit-exact while the busy times shift.
    pub work_schedule: Vec<(usize, WorkModel)>,
    /// Elastic cluster-membership timeline (`(from_step, event)`, sorted
    /// by step; see [`crate::scenario::ClusterEvent`]). Events change the
    /// planner's view — the active-rank mask of the
    /// [`EpochController`] and the failure mask the ghost counters honour —
    /// never the execution: every locality keeps computing the SDs it
    /// owns until a replan evacuates them, so the field stays bit-exact.
    pub cluster_events: Vec<(usize, crate::scenario::ClusterEvent)>,
    /// Network cost model for the cluster fabric — the same [`NetSpec`]
    /// the simulator consumes, so one configuration describes both
    /// substrates. Applied by [`DistConfig::cluster`]; a cluster built
    /// directly via `ClusterBuilder` keeps whatever model it was given.
    pub net: NetSpec,
    /// What the balancing policies plan from: measured wall-clock busy
    /// times (the paper's mode) or deterministic modeled busy times
    /// ([`LbInput::Modeled`], the cross-substrate parity mode).
    pub lb_input: LbInput,
    /// Decompose each SD's per-step compute into row-band tile tasks on
    /// the worker pool so idle workers steal pieces of a straggler SD
    /// *within* a timestep (intra-epoch balancing; the LB policies only
    /// move SD ownership *between* epochs). The row-band split is
    /// deterministic and every cell is written exactly once from `curr`,
    /// so the field stays bit-identical to the unchunked path.
    pub intra_step_stealing: bool,
    /// Per-locality memory capacities in bytes (`None` = unbounded),
    /// indexed by locality id. Empty = memory-blind planning (the
    /// historical behaviour). When any cap is set the [`EpochController`]
    /// attaches the capacities and the per-SD resident footprints to its
    /// planning view so memory-aware policies gate destinations on them.
    pub memory_bytes: Vec<Option<u64>>,
}

impl DistConfig {
    /// Defaults mirroring the paper's distributed experiments.
    pub fn new(n: usize, eps_mult: f64, sd_size: usize, n_steps: usize) -> Self {
        DistConfig {
            spec: ProblemSpec::square(n, eps_mult),
            sd_size,
            n_steps,
            partition: PartitionSpec::Metis { seed: 1 },
            overlap: true,
            lb: None,
            record_error: false,
            work: WorkModel::Uniform,
            work_schedule: Vec::new(),
            cluster_events: Vec::new(),
            net: NetSpec::Instant,
            lb_input: LbInput::Measured,
            intra_step_stealing: false,
            memory_bytes: Vec::new(),
        }
    }

    /// The workload in effect at `step`.
    pub fn work_at(&self, step: usize) -> &WorkModel {
        crate::scenario::work_at(&self.work, &self.work_schedule, step)
    }

    /// A [`ClusterBuilder`] pre-configured with this config's network
    /// model, so examples and tests select the transport in one place:
    ///
    /// ```
    /// use nlheat_core::dist::{run_distributed, DistConfig};
    /// use nlheat_netmodel::NetSpec;
    ///
    /// let mut cfg = DistConfig::new(16, 2.0, 4, 2);
    /// cfg.net = NetSpec::shared(1e-6, 10e9);
    /// let cluster = cfg.cluster().uniform(2, 1).build();
    /// let _report = run_distributed(&cluster, &cfg);
    /// ```
    pub fn cluster(&self) -> ClusterBuilder {
        ClusterBuilder::new().net(self.net)
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Wall time of the whole run (all localities).
    pub elapsed: Duration,
    /// Summed per-step errors when requested.
    pub error: Option<ErrorAccumulator>,
    /// Final interior field, row-major over the global mesh.
    pub field: Vec<f64>,
    /// Final SD ownership.
    pub final_ownership: Ownership,
    /// Per-locality busy nanoseconds over the whole run (every
    /// balancing window plus the tail after the last epoch).
    pub busy_ns: Vec<u64>,
    /// Total SDs migrated by load balancing.
    pub migrations: usize,
    /// Planner-grade migration payload bytes (sum of the realized plans'
    /// [`EpochTrace::migration_bytes`] — the same `patch_wire_bytes`
    /// accounting the simulator charges, so identical plans produce
    /// identical counters on both substrates).
    pub migration_bytes: u64,
    /// The inter-rack share of `migration_bytes` (per the configured
    /// [`NetSpec`]'s link classes; 0 for rack-less models).
    pub inter_rack_migration_bytes: u64,
    /// Planner-grade ghost-exchange bytes between localities over the
    /// whole run, counted per foreign halo patch with the same
    /// `patch_wire_bytes` formula the simulator charges (the wire
    /// additionally carries an 8-byte codec length per parcel).
    pub ghost_bytes: u64,
    /// The inter-rack share of `ghost_bytes`.
    pub inter_rack_ghost_bytes: u64,
    /// Per-node SD counts after each balancing epoch.
    pub lb_history: Vec<Vec<usize>>,
    /// The realized migration plan of each epoch, in epoch order (empty
    /// plans are skipped, matching `lb_history`).
    pub lb_plans: Vec<Vec<Move>>,
    /// One [`EpochTrace`] per realized balancing epoch (recorded on
    /// locality 0, in epoch order): plan size, migration bytes, and the
    /// recurring ghost-traffic cut before/after — the per-epoch data
    /// A8/A9-style plots are drawn from.
    pub epoch_traces: Vec<EpochTrace>,
    /// Per-locality successful task steals in the worker pools (includes
    /// injector grabs; peer-to-peer steals are what intra-step stealing
    /// adds on a straggler step).
    pub pool_steals: Vec<u64>,
    /// Per-locality dry victim scans (steal attempts that found nothing).
    pub pool_steal_fails: Vec<u64>,
    /// Per-locality worker park events (idle workers going to sleep).
    pub pool_parks: Vec<u64>,
}

/// Ownership-independent, cluster-wide setup shared by all drivers.
struct Setup {
    cfg: DistConfig,
    parts: ProblemParts,
    sds: SdGrid,
    /// Halo plan per SD (geometry only — never changes).
    plans: Vec<HaloPlan>,
    /// Reverse index: for each source SD, the `(destination SD, patch
    /// index)` pairs that read from it.
    reverse: Vec<Vec<(SdId, u16)>>,
    initial_owners: Vec<u32>,
    n_nodes: u32,
    /// The balancer, when the run has one: built here, on the caller's
    /// thread, and taken by locality 0's driver.
    epochs: Mutex<Option<EpochController>>,
}

impl Setup {
    fn build(cfg: DistConfig, n_nodes: u32, speeds: Vec<f64>) -> Self {
        let parts = cfg.spec.build();
        let grid = parts.grid;
        let sds = SdGrid::tile_mesh(grid.nx as usize, grid.ny as usize, cfg.sd_size);
        // Reject an unpriceable work model on the caller's thread, not on
        // a driver thread mid-run (where the panic would deadlock the
        // other localities).
        cfg.work.validate(&sds);
        for (_, model) in &cfg.work_schedule {
            model.validate(&sds);
        }
        let plans: Vec<HaloPlan> = sds
            .ids()
            .map(|id| build_halo_plan(&sds, grid.halo, id))
            .collect();
        let mut reverse: Vec<Vec<(SdId, u16)>> = vec![Vec::new(); sds.count()];
        for plan in &plans {
            for (idx, patch) in plan.patches.iter().enumerate() {
                if let PatchSource::Sd(src) = patch.source {
                    reverse[src as usize].push((plan.sd, idx as u16));
                }
            }
        }
        let initial_owners = cfg.partition.initial_owners(&sds, n_nodes);
        // The planning view prices the parcels this driver sends: the
        // controller's SD graph is built from the same halo geometry as
        // `plans`. A degenerate schedule panics here, not inside the
        // locality-0 driver, where it would leave the other localities
        // blocked on the plan broadcast forever.
        let epochs = cfg.lb.as_ref().map(|lb| {
            EpochController::new(
                lb,
                EpochSetup {
                    n_steps: cfg.n_steps,
                    input: cfg.lb_input,
                    sds,
                    halo: grid.halo,
                    net: cfg.net,
                    speeds,
                    sec_per_dp: nominal_sec_per_dp(Stencil::build(grid.h, grid.eps).len()),
                    memory_bytes: cfg.memory_bytes.iter().any(Option::is_some).then(|| {
                        cfg.memory_bytes
                            .iter()
                            .map(|c| c.unwrap_or(u64::MAX))
                            .collect()
                    }),
                    cluster_events: cfg.cluster_events.clone(),
                },
            )
        });
        Setup {
            cfg,
            parts,
            sds,
            plans,
            reverse,
            initial_owners,
            n_nodes,
            epochs: Mutex::new(epochs),
        }
    }
}

/// Double-buffered SD storage shared between the driver and its tasks.
struct SdCell {
    curr: RwLock<Tile>,
    next: Mutex<Tile>,
}

/// Raw pointer into an SD's `next` buffer, captured once per step so the
/// intra-step row-band tasks can write their pairwise-disjoint rows
/// without serializing on the tile lock. The safety argument lives at the
/// capture site in the step loop.
#[derive(Clone, Copy)]
struct NextPtr(*mut f64);
// SAFETY: the pointer is only dereferenced by chunk tasks writing
// pairwise-disjoint regions, all of which complete before the step
// barrier releases the buffer for the swap.
unsafe impl Send for NextPtr {}
unsafe impl Sync for NextPtr {}

/// Split `rect` into horizontal bands of height ≤ `band`, top to bottom.
/// Deterministic in the inputs and an exact cover of `rect`, so chunked
/// execution visits every cell exactly once in a schedule-independent
/// decomposition.
fn row_bands(rect: &Rect, band: i64) -> Vec<Rect> {
    debug_assert!(band >= 1);
    let mut out = Vec::with_capacity(((rect.h + band - 1) / band).max(0) as usize);
    let mut y = rect.y0;
    while y < rect.y1() {
        let h = band.min(rect.y1() - y);
        out.push(Rect::new(rect.x0, y, rect.w, h));
        y += h;
    }
    out
}

/// One owned SD with its task-facing state.
struct NodeSd {
    origin: (i64, i64),
    cell: Arc<SdCell>,
}

/// Ownership-dependent per-SD communication info (rebuilt after LB).
struct SdComm {
    /// `(patch index, destination rect)` of foreign-sourced halo patches.
    foreign: Vec<(u16, Rect)>,
    split: CaseSplit,
}

/// One outgoing ghost parcel, precomputed when ownership changes so the
/// per-step send loop just replays the list (records are grouped by
/// ascending source SD; the per-step loop holds one read lock per group).
struct SendRec {
    /// Source SD on this locality.
    src_sd: SdId,
    /// Owner of the destination SD.
    dst_owner: u32,
    dst_sd: SdId,
    /// Patch index within the destination's halo plan.
    pidx: u16,
    /// The patch in the source SD's local coordinates.
    src_rect: Rect,
    /// Planner-grade wire bytes of the patch.
    wire: u64,
    /// Whether the link to `dst_owner` crosses a rack boundary.
    inter_rack: bool,
}

/// Per-node report returned by each driver.
struct NodeReport {
    sd_fields: Vec<(SdId, Vec<f64>)>,
    error_partials: Vec<f64>,
    busy_ns: u64,
    /// Planner-grade ghost bytes this locality *sent* to other localities.
    ghost_bytes: u64,
    inter_rack_ghost_bytes: u64,
    /// The balancing records (locality 0 only).
    epochs: Option<EpochRecords>,
    /// Worker-pool steal counters of this locality over the whole run.
    pool_steals: u64,
    pool_steal_fails: u64,
    pool_parks: u64,
}

/// Run the distributed solver on `cluster`.
///
/// # Panics
/// Panics if the mesh does not tile into SDs or the configuration is
/// internally inconsistent.
pub fn run_distributed(cluster: &Cluster, cfg: &DistConfig) -> DistReport {
    // Guard the config/cluster seam: if the config names a non-default
    // network model, the cluster must actually have been built with it
    // (via `cfg.cluster()`), or the run would silently measure a
    // different transport than the paired simulation.
    assert!(
        cfg.net == NetSpec::Instant || cluster.net_spec() == &cfg.net,
        "DistConfig.net is {:?} but the cluster was built with {:?}; \
         build the cluster with DistConfig::cluster() so both agree",
        cfg.net,
        cluster.net_spec()
    );
    let n_nodes = cluster.len() as u32;
    let speeds: Vec<f64> = cluster.localities().iter().map(|l| l.speed()).collect();
    let setup = Arc::new(Setup::build(cfg.clone(), n_nodes, speeds));
    let t0 = Instant::now();
    let mut reports = cluster.run(|loc| driver(loc, setup.clone()));
    let elapsed = t0.elapsed();

    // Assemble the global field.
    let (nx, ny) = setup.sds.mesh_extent();
    let mut field = vec![0.0; (nx * ny) as usize];
    let mut final_owners = vec![0u32; setup.sds.count()];
    for (node, report) in reports.iter().enumerate() {
        for (sd, values) in &report.sd_fields {
            final_owners[*sd as usize] = node as u32;
            let origin = setup.sds.origin(*sd);
            let mut it = values.iter();
            for lj in 0..setup.sds.sd {
                for li in 0..setup.sds.sd {
                    field[((origin.1 + lj) * nx + origin.0 + li) as usize] =
                        *it.next().expect("field size");
                }
            }
        }
    }
    // Sum error partials across nodes per step.
    let error = cfg.record_error.then(|| {
        let mut acc = ErrorAccumulator::new();
        for k in 0..cfg.n_steps {
            acc.push(reports.iter().map(|r| r.error_partials[k]).sum());
        }
        acc
    });
    let lb = reports
        .first_mut()
        .and_then(|r| r.epochs.take())
        .unwrap_or_default();
    DistReport {
        elapsed,
        error,
        field,
        final_ownership: Ownership::new(setup.sds, final_owners, n_nodes),
        busy_ns: reports.iter().map(|r| r.busy_ns).collect(),
        migrations: lb.migrations(),
        migration_bytes: lb.migration_bytes(),
        inter_rack_migration_bytes: lb.inter_rack_migration_bytes(),
        ghost_bytes: reports.iter().map(|r| r.ghost_bytes).sum(),
        inter_rack_ghost_bytes: reports.iter().map(|r| r.inter_rack_ghost_bytes).sum(),
        lb_history: lb.lb_history,
        lb_plans: lb.lb_plans,
        epoch_traces: lb.epoch_traces,
        pool_steals: reports.iter().map(|r| r.pool_steals).collect(),
        pool_steal_fails: reports.iter().map(|r| r.pool_steal_fails).collect(),
        pool_parks: reports.iter().map(|r| r.pool_parks).collect(),
    }
}

/// Serialize `rect` of `tile` into a wire payload, streaming the strided
/// rows straight into the buffer (no intermediate `Vec<f64>`). The buffer
/// is sized exactly, so encoding is one allocation and `rect.h + 1`
/// memcpys.
fn pack_tile_rect(tile: &Tile, rect: &Rect) -> Bytes {
    let mut buf = BytesMut::with_capacity(rect.area() as usize * 8 + 8);
    encode_f64_rows(rect.area() as usize, tile.rect_rows(rect), &mut buf);
    buf.freeze()
}

#[allow(clippy::too_many_lines)]
fn driver(loc: Arc<Locality>, setup: Arc<Setup>) -> NodeReport {
    let me = loc.id();
    let cfg = &setup.cfg;
    let sds = setup.sds;
    let halo = setup.parts.grid.halo;
    let dt = setup.parts.dt;
    let kernel = Arc::new(setup.parts.kernel.clone());
    let kernel_plan = Arc::new(kernel.plan(sds.sd + 2 * halo));
    let source = setup.parts.manufactured.source_fn();
    let manufactured = setup.parts.manufactured.clone();

    let mut owners = setup.initial_owners.clone();
    let mut states: HashMap<SdId, NodeSd> = HashMap::new();
    for sd in sds.ids() {
        if owners[sd as usize] != me {
            continue;
        }
        let origin = sds.origin(sd);
        let mut curr = Tile::new(sds.sd, halo);
        for lj in 0..sds.sd {
            for li in 0..sds.sd {
                curr.set(li, lj, manufactured.initial(origin.0 + li, origin.1 + lj));
            }
        }
        states.insert(
            sd,
            NodeSd {
                origin,
                cell: Arc::new(SdCell {
                    curr: RwLock::new(curr),
                    next: Mutex::new(Tile::new(sds.sd, halo)),
                }),
            },
        );
    }

    let mut comm: HashMap<SdId, SdComm> = HashMap::new();
    let mut comm_dirty = true;
    // Tiles reclaimed from migrated-away SDs, reused (zeroed) for incoming
    // migrations so steady-state balancing stops allocating tile pairs.
    let mut tile_pool: Vec<Tile> = Vec::new();
    let mut error_partials = Vec::with_capacity(cfg.n_steps);
    // Busy time of the balancing windows already closed: every epoch
    // resets the busy counter, so the report adds each window to this
    // total as it closes and the tail since the last epoch at the end.
    let mut busy_closed_ns = 0u64;
    // Planner-grade ghost-traffic counters (what this locality sends):
    // per foreign patch the same `patch_wire_bytes` the simulator charges
    // and the SdGraph weighs, so both substrates' counters agree under
    // identical ownership sequences.
    let mut ghost_bytes = 0u64;
    let mut inter_rack_ghost_bytes = 0u64;
    // Ghost-stall accounting: each step's worst ghost-arrival delay
    // (wall time from task spawn to the case-1 continuation firing),
    // accumulated per balancing window — the adaptive-μ feedback signal.
    let step_ghost_wait = Arc::new(AtomicU64::new(0));
    let mut window_ghost_ns = 0u64;
    let spawner = loc.spawner();

    // Locality 0 plans every epoch through the run's one controller,
    // against the cluster-wide clock it measures windows on.
    let mut epochs = if me == 0 {
        setup.epochs.lock().take()
    } else {
        None
    };
    let clock = Instant::now();
    // Link classes for the inter-rack ghost counter: the same CommCost the
    // planner prices moves with.
    let comm_cost = cfg.net.comm_cost();
    // Wall time this locality spent in the previous epoch's migration
    // exchange, gathered with the busy times as the adaptive-λ stall
    // signal.
    let mut prev_stall_ns = 0u64;

    // The owned-SD list and outgoing send records change only when a
    // migration epoch rewrites ownership, so they are rebuilt together
    // with the per-SD comm info under the `comm_dirty` flag instead of
    // being rederived every step.
    let mut owned: Vec<SdId> = Vec::new();
    let mut send_recs: Vec<SendRec> = Vec::new();
    for step in 0..cfg.n_steps {
        if comm_dirty {
            comm.clear();
            owned = states.keys().copied().collect();
            owned.sort_unstable();
            for &sd in &owned {
                let plan = &setup.plans[sd as usize];
                let foreign: Vec<(u16, Rect)> = plan
                    .patches
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, p)| match p.source {
                        PatchSource::Sd(src) if owners[src as usize] != me => {
                            Some((idx as u16, p.dst_rect))
                        }
                        _ => None,
                    })
                    .collect();
                let split = split_cases(sds.sd, halo, plan, |n| owners[n as usize] != me);
                comm.insert(sd, SdComm { foreign, split });
            }
            send_recs.clear();
            for &sd in &owned {
                for &(dst_sd, pidx) in &setup.reverse[sd as usize] {
                    let dst_owner = owners[dst_sd as usize];
                    if dst_owner == me {
                        continue;
                    }
                    let patch = &setup.plans[dst_sd as usize].patches[pidx as usize];
                    send_recs.push(SendRec {
                        src_sd: sd,
                        dst_owner,
                        dst_sd,
                        pidx,
                        src_rect: patch.src_rect,
                        wire: patch_wire_bytes(patch.dst_rect.area()),
                        inter_rack: comm_cost.link_class(me, dst_owner) == LinkClass::InterRack,
                    });
                }
            }
            comm_dirty = false;
        }

        // --- 1. local halo fill (same-node neighbours: plain copies) ---
        for &sd in &owned {
            let dst_cell = states[&sd].cell.clone();
            let mut dst = dst_cell.curr.write();
            for patch in &setup.plans[sd as usize].patches {
                if let PatchSource::Sd(src) = patch.source {
                    if owners[src as usize] == me {
                        let src_cell = states[&src].cell.clone();
                        let src_tile = src_cell.curr.read();
                        dst.copy_rect_from(&src_tile, &patch.src_rect, &patch.dst_rect);
                    }
                }
            }
        }

        // --- 2. sends: scatter ghost data to foreign-owned readers ---
        // (replays the precomputed records; one curr read lock per source
        // SD, exactly like the per-step scan this replaces)
        //
        // Failure mask of this step: parcels to or from a fail-stopped
        // rank still flow (the solver's numerics are sacred) but stop
        // counting toward the planner-grade ghost counters — a failed
        // rank's in-flight contributions are lost to the application.
        let failed_now = (!cfg.cluster_events.is_empty())
            .then(|| failed_at(setup.n_nodes as usize, &cfg.cluster_events, step));
        let mut rec_i = 0;
        while rec_i < send_recs.len() {
            let src_sd = send_recs[rec_i].src_sd;
            let src_tile = states[&src_sd].cell.curr.read();
            while let Some(rec) = send_recs.get(rec_i).filter(|r| r.src_sd == src_sd) {
                let counted = failed_now
                    .as_ref()
                    .is_none_or(|f| !f[me as usize] && !f[rec.dst_owner as usize]);
                if counted {
                    ghost_bytes += rec.wire;
                    if rec.inter_rack {
                        inter_rack_ghost_bytes += rec.wire;
                    }
                }
                let payload = pack_tile_rect(&src_tile, &rec.src_rect);
                loc.send(
                    rec.dst_owner,
                    tag(CLASS_GHOST, step as u64, rec.dst_sd as u64, rec.pidx as u64),
                    payload,
                );
                rec_i += 1;
            }
        }

        // --- 3. spawn compute tasks (case 2 immediately, case 1 gated) ---
        let t = step as f64 * dt;
        let ghost_t0 = Instant::now();
        let work_now = cfg.work_at(step);
        let mut step_futures: Vec<Future<()>> = Vec::new();
        // Intra-step stealing: chop each SD's compute into row bands of
        // this height and spawn every band as its own pool task, so idle
        // workers steal pieces of a straggler SD *within* the timestep.
        // The band height is a function of the config alone (never of
        // timing), the bands partition the same cell set, and each cell
        // is computed from the same `curr` snapshot with identical
        // arithmetic — so the field is bit-identical to the unchunked
        // path no matter which worker runs which band.
        let band = (sds.sd / (2 * loc.pool().n_workers() as i64)).max(1);
        // Futures of ghost-gated band tasks. Those are spawned from
        // inside parcel continuations — after `step_futures` is sealed —
        // so they are collected here and drained for a second barrier
        // once `when_all(step_futures)` guarantees every continuation
        // (and thus every spawn) has run.
        let deferred_futs: Arc<Mutex<Vec<Future<()>>>> = Arc::new(Mutex::new(Vec::new()));
        for &sd in &owned {
            let unit = &states[&sd];
            let info = &comm[&sd];
            let ghost_futs: Vec<Future<Bytes>> = info
                .foreign
                .iter()
                .map(|&(pidx, _)| loc.expect(tag(CLASS_GHOST, step as u64, sd as u64, pidx as u64)))
                .collect();
            // The work factor in effect *now* (the schedule may have
            // switched models): emulated by kernel repetition, so the
            // numerics stay bit-exact while the busy time shifts.
            let repeats = work_now.repeats(&sds, sd, loc.speed());
            if cfg.intra_step_stealing {
                // One raw pointer to this SD's next buffer per step (the
                // swap below rotates the tiles between the lock slots, so
                // the pointer cannot be cached across steps). Band tasks
                // write through it lock-free; holding the mutex per band
                // would serialize exactly the compute we are splitting.
                let next_ptr = NextPtr(unit.cell.next.lock().data_mut().as_mut_ptr());
                let make_chunk = |rect: Rect| {
                    let cell = unit.cell.clone();
                    let kernel = kernel.clone();
                    let plan = kernel_plan.clone();
                    let source = source.clone();
                    let origin = unit.origin;
                    move || {
                        // bind the wrapper, not its field: edition-2021
                        // disjoint capture would otherwise move the bare
                        // `*mut f64` into the closure, which is !Send
                        let next = next_ptr;
                        let curr = cell.curr.read();
                        // SAFETY: the bands of one step are pairwise
                        // disjoint, `next` shares `curr`'s geometry, and
                        // the step barriers below complete before the
                        // swap reads the written cells.
                        unsafe {
                            kernel.apply_region_blocked_raw(
                                &curr, next.0, &rect, &plan, origin, t, dt, &source, repeats,
                            );
                        }
                    }
                };
                if info.foreign.is_empty() {
                    for r in row_bands(&Rect::new(0, 0, sds.sd, sds.sd), band) {
                        step_futures.push(spawner.async_call(make_chunk(r)));
                    }
                    continue;
                }
                let dst_rects: Vec<Rect> = info.foreign.iter().map(|&(_, r)| r).collect();
                let cell_for_unpack = unit.cell.clone();
                let unpack = move |payloads: Vec<Bytes>| {
                    let mut curr = cell_for_unpack.curr.write();
                    for (mut payload, rect) in payloads.into_iter().zip(dst_rects) {
                        decode_f64_rows(&mut payload, curr.rect_rows_mut(&rect))
                            .expect("corrupt ghost payload");
                    }
                };
                let ghost_wait = step_ghost_wait.clone();
                let gated: Vec<Rect> = if cfg.overlap {
                    if !info.split.case2.is_empty() {
                        for r in row_bands(&info.split.case2, band) {
                            step_futures.push(spawner.async_call(make_chunk(r)));
                        }
                    }
                    info.split
                        .case1
                        .iter()
                        .flat_map(|r| row_bands(r, band))
                        .collect()
                } else {
                    row_bands(&Rect::new(0, 0, sds.sd, sds.sd), band)
                };
                let chunk_tasks: Vec<_> = gated.into_iter().map(&make_chunk).collect();
                let deferred = deferred_futs.clone();
                let spawn_in = spawner.clone();
                step_futures.push(when_all(ghost_futs).then(&spawner, move |payloads| {
                    ghost_wait.fetch_max(ghost_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    unpack(payloads);
                    let mut futs = deferred.lock();
                    for task in chunk_tasks {
                        futs.push(spawn_in.async_call(task));
                    }
                }));
                continue;
            }
            let make_task = |rects: Vec<Rect>| {
                let cell = unit.cell.clone();
                let kernel = kernel.clone();
                let plan = kernel_plan.clone();
                let source = source.clone();
                let origin = unit.origin;
                move || {
                    let curr = cell.curr.read();
                    let mut next = cell.next.lock();
                    for rect in &rects {
                        kernel.apply_region_blocked(
                            &curr, &mut next, rect, &plan, origin, t, dt, &source, repeats,
                        );
                    }
                }
            };
            if info.foreign.is_empty() {
                // fully local SD: one immediate task over the interior
                let task = make_task(vec![Rect::new(0, 0, sds.sd, sds.sd)]);
                step_futures.push(spawner.async_call(task));
                continue;
            }
            let dst_rects: Vec<Rect> = info.foreign.iter().map(|&(_, r)| r).collect();
            let cell_for_unpack = unit.cell.clone();
            let unpack = move |payloads: Vec<Bytes>| {
                let mut curr = cell_for_unpack.curr.write();
                for (mut payload, rect) in payloads.into_iter().zip(dst_rects) {
                    // straight into the padded tile: no intermediate Vec
                    decode_f64_rows(&mut payload, curr.rect_rows_mut(&rect))
                        .expect("corrupt ghost payload");
                }
            };
            // Record the worst ghost-arrival delay of the step (wall time
            // until the gated continuation fires) — the μ feedback signal.
            let ghost_wait = step_ghost_wait.clone();
            if cfg.overlap {
                // case 2 now, case 1 when the ghosts are in
                if !info.split.case2.is_empty() {
                    let task = make_task(vec![info.split.case2]);
                    step_futures.push(spawner.async_call(task));
                }
                let case1_task = make_task(info.split.case1.clone());
                step_futures.push(when_all(ghost_futs).then(&spawner, move |payloads| {
                    ghost_wait.fetch_max(ghost_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    unpack(payloads);
                    case1_task();
                }));
            } else {
                // ablation: everything waits for the ghosts
                let task = make_task(vec![Rect::new(0, 0, sds.sd, sds.sd)]);
                step_futures.push(when_all(ghost_futs).then(&spawner, move |payloads| {
                    ghost_wait.fetch_max(ghost_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    unpack(payloads);
                    task();
                }));
            }
        }
        when_all(step_futures).get();
        // Second barrier for stealing mode: every ghost continuation has
        // now run, so `deferred_futs` holds the complete set of gated
        // band-task futures (empty when stealing is off or all SDs were
        // fully local — `when_all` of nothing is immediately ready).
        let deferred = std::mem::take(&mut *deferred_futs.lock());
        when_all(deferred).get();
        window_ghost_ns += step_ghost_wait.swap(0, Ordering::Relaxed);

        // --- 4. swap buffers ---
        for &sd in &owned {
            let cell = &states[&sd].cell;
            let mut curr = cell.curr.write();
            let mut next = cell.next.lock();
            std::mem::swap(&mut *curr, &mut *next);
        }

        // --- 5. error recording ---
        if cfg.record_error {
            let t_now = (step + 1) as f64 * dt;
            let h = setup.parts.grid.h;
            let mut sum = 0.0;
            for &sd in &owned {
                let unit = &states[&sd];
                let curr = unit.cell.curr.read();
                for lj in 0..sds.sd {
                    for li in 0..sds.sd {
                        let (gi, gj) = (unit.origin.0 + li, unit.origin.1 + lj);
                        let d = manufactured.exact(t_now, gi, gj) - curr.get(li, lj);
                        sum += d * d;
                    }
                }
            }
            error_partials.push(h * h * sum);
        } else {
            error_partials.push(0.0);
        }

        // --- 6. load-balancing epoch (the configured LbSpec policy) ---
        if cfg.lb.as_ref().is_some_and(|lb| lb.due(step, cfg.n_steps)) {
            let epoch = step as u64;
            // Gather on locality 0: busy time, owned-SD count, the wall
            // time spent in the *previous* epoch's migration exchange and
            // this window's ghost stall (locality 0's own exchange alone
            // would miss migrations flowing between other localities).
            // The planner does not read the count; it keeps the stat at
            // the four words perfbench's fabric replay rebuilds.
            let stat = (
                loc.busy_time_ns(),
                states.len() as u64,
                prev_stall_ns,
                window_ghost_ns,
            );
            let stats = gather(&loc, setup.n_nodes, epoch, &stat).expect("corrupt LB stat");
            // Locality 0 plans and broadcasts `(sd, from, to)` triples.
            let plan = stats.zip(epochs.as_mut()).map(|(stats, ctl)| {
                let secs = |ns: u64| ns as f64 * 1e-9;
                let worst = |f: fn(&(u64, u64, u64, u64)) -> u64| {
                    secs(stats.iter().map(f).max().unwrap_or(0))
                };
                let busy: Vec<f64> = stats.iter().map(|s| secs(s.0)).collect();
                let ownership = Ownership::new(sds, owners.clone(), setup.n_nodes);
                let EpochPlan { plan, .. } = ctl.epoch(EpochInput {
                    step,
                    ownership: &ownership,
                    busy: &busy,
                    ghost_stall: worst(|s| s.3),
                    migration_stall: worst(|s| s.2),
                    barrier: clock.elapsed().as_secs_f64(),
                    work: cfg.work_at(step),
                });
                plan.moves
                    .iter()
                    .map(|m| (m.sd as u64, m.from, m.to))
                    .collect::<Vec<_>>()
            });
            let moves =
                broadcast(&loc, setup.n_nodes, epoch, plan.as_ref()).expect("corrupt LB plan");
            let migrate_t0 = Instant::now();
            // send outgoing SDs first, then collect incoming; tiles of
            // migrated-away SDs go back to the pool (all step tasks have
            // completed, so the Arc is uniquely held) and incoming SDs
            // draw from it, so repeated epochs stop allocating tile pairs
            let mut incoming: Vec<(SdId, Future<Bytes>)> = Vec::new();
            for &(sd64, from, to) in &moves {
                let sd = sd64 as SdId;
                if from == me {
                    let unit = states.remove(&sd).expect("migrating unowned SD");
                    {
                        let curr = unit.cell.curr.read();
                        let payload = pack_tile_rect(&curr, &curr.interior_rect());
                        loc.send(to, tag(CLASS_MIGRATE, epoch, sd as u64, 0), payload);
                    }
                    if let Ok(cell) = Arc::try_unwrap(unit.cell) {
                        tile_pool.push(cell.curr.into_inner());
                        tile_pool.push(cell.next.into_inner());
                    }
                }
                if to == me {
                    incoming.push((sd, loc.expect(tag(CLASS_MIGRATE, epoch, sd as u64, 0))));
                }
                owners[sd as usize] = to;
            }
            let fresh_tile = |pool: &mut Vec<Tile>| {
                pool.pop()
                    .map(|mut t| {
                        // pooled tiles must look newly constructed
                        t.data_mut().fill(0.0);
                        t
                    })
                    .unwrap_or_else(|| Tile::new(sds.sd, halo))
            };
            for (sd, fut) in incoming {
                let mut payload = fut.get();
                let origin = sds.origin(sd);
                let mut curr = fresh_tile(&mut tile_pool);
                decode_f64_rows(
                    &mut payload,
                    curr.rect_rows_mut(&Rect::new(0, 0, sds.sd, sds.sd)),
                )
                .expect("corrupt migration");
                let next = fresh_tile(&mut tile_pool);
                states.insert(
                    sd,
                    NodeSd {
                        origin,
                        cell: Arc::new(SdCell {
                            curr: RwLock::new(curr),
                            next: Mutex::new(next),
                        }),
                    },
                );
            }
            comm_dirty = true;
            // Record this locality's migration-exchange time for the next
            // epoch's stat gather (0 for an empty plan — nothing
            // shipped, nothing stalled).
            prev_stall_ns = if moves.is_empty() {
                0
            } else {
                migrate_t0.elapsed().as_nanos() as u64
            };
            // The ghost-stall window restarts with the busy window.
            window_ghost_ns = 0;
            // Algorithm 1 line 35: reset the busy-time counters so the next
            // epoch measures a fresh interval.
            busy_closed_ns += loc.busy_counter().reset();
        }
    }

    // final per-SD fields
    let mut sd_fields: Vec<(SdId, Vec<f64>)> = states
        .iter()
        .map(|(&sd, unit)| {
            let curr = unit.cell.curr.read();
            (sd, curr.pack(&Rect::new(0, 0, sds.sd, sds.sd)))
        })
        .collect();
    sd_fields.sort_by_key(|(sd, _)| *sd);
    // A worker books a task's busy time just after the task signals
    // completion: wait for the pool to drain so the tail read below
    // includes the last step's tasks.
    loc.wait_idle();
    NodeReport {
        sd_fields,
        error_partials,
        busy_ns: busy_closed_ns + loc.busy_time_ns(),
        ghost_bytes,
        inter_rack_ghost_bytes,
        epochs: epochs.map(EpochController::finish),
        pool_steals: loc.pool().steals_total(),
        pool_steal_fails: loc.pool().steal_fails_total(),
        pool_parks: loc.pool().parks_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_amt::cluster::ClusterBuilder;
    use nlheat_model::SerialSolver;

    fn serial_field(n: usize, eps_mult: f64, steps: usize) -> Vec<f64> {
        let parts = ProblemSpec::square(n, eps_mult).build();
        let mut s = SerialSolver::manufactured(&parts);
        s.run(steps);
        s.field()
    }

    #[test]
    fn no_schedule_builds_no_graph() {
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        let setup = Setup::build(cfg.clone(), 2, vec![1.0; 2]);
        assert!(setup.epochs.lock().is_none());
        cfg.lb = Some(LbSchedule::every(2));
        cfg.memory_bytes = vec![None, Some(1 << 20)];
        let setup = Setup::build(cfg, 2, vec![1.0; 2]);
        let epochs = setup.epochs.lock();
        let net = epochs
            .as_ref()
            .expect("a schedule builds a controller")
            .net();
        assert!(net.sd_graph.is_some());
        assert_eq!(net.memory_bytes.as_deref(), Some(&vec![u64::MAX, 1 << 20]));
    }

    #[test]
    fn two_nodes_match_serial_bitwise() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 5);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
    }

    #[test]
    fn four_nodes_match_serial_bitwise() {
        let cluster = ClusterBuilder::new().uniform(4, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 5);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
    }

    #[test]
    fn intra_step_stealing_matches_serial_bitwise() {
        // Multi-core localities so the row-band tasks really execute on
        // several workers — the decomposition must not perturb a bit.
        let cluster = ClusterBuilder::new().uniform(2, 4).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 5);
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 5));
        assert!(
            report.pool_steals.iter().sum::<u64>() > 0,
            "band tasks should move through the work-stealing scheduler"
        );
    }

    #[test]
    fn intra_step_stealing_straggler_sd_matches_serial_bitwise() {
        // One 8x-slow SD on a single 4-worker locality: idle workers
        // steal the straggler's bands, numerics stay pinned.
        let cluster = ClusterBuilder::new().uniform(1, 4).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        let mut work = vec![1.0; 16];
        work[0] = 8.0;
        cfg.work = WorkModel::PerSd(work);
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn intra_step_stealing_composes_with_lb() {
        // Stealing within steps + migration between epochs: both on, the
        // field still matches the serial solver bitwise.
        let cluster = ClusterBuilder::new().uniform(2, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
    }

    #[test]
    fn intra_step_stealing_overlap_off_matches_serial_bitwise() {
        // The non-overlap ablation gates *all* bands on the ghosts; the
        // deferred-futures barrier must still cover them.
        let cluster = ClusterBuilder::new().uniform(3, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.overlap = false;
        cfg.intra_step_stealing = true;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn busy_ns_covers_every_balancing_window() {
        // Balancing every 2 of 12 steps resets the busy counter five
        // times; the report must still cover the whole run — exactly the
        // busy time the fresh cluster's pools booked.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(32, 2.0, 4, 12);
        cfg.lb = Some(LbSchedule::every(2));
        let report = run_distributed(&cluster, &cfg);
        let pools: Vec<u64> = cluster
            .localities()
            .iter()
            .map(|loc| loc.pool().busy_ns_total())
            .collect();
        assert_eq!(report.busy_ns, pools);
    }

    #[test]
    fn overlap_off_same_numerics() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.overlap = false;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn strip_partition_same_numerics() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.partition = PartitionSpec::Strip;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn multi_ring_halo_across_nodes() {
        // sd=4 with eps=6h: halo 6 > sd, ghosts come from two rings away.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let cfg = DistConfig::new(16, 6.0, 4, 3);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 6.0, 3));
    }

    #[test]
    fn error_recorded_and_small() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.record_error = true;
        let report = run_distributed(&cluster, &cfg);
        let total = report.error.unwrap().total();
        assert!(total < 1e-4, "distributed error {total}");
    }

    #[test]
    fn load_balancing_epoch_preserves_numerics() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        // start from a deliberately imbalanced explicit assignment:
        // node 0 owns everything except one SD
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert!(report.migrations > 0, "imbalanced start must migrate");
        // final distribution is more even than 15/1
        let counts = report.final_ownership.counts();
        assert!(
            counts.iter().all(|&c| (4..=12).contains(&c)),
            "final counts {counts:?}"
        );
    }

    #[test]
    fn heterogeneous_cluster_balances_toward_fast_node() {
        // node 0 is 4x faster; with LB it should end up with more SDs.
        // The balance outcome rests on *measured* busy time, so on an
        // oversubscribed machine (CI running many thread-spawning tests
        // at once) a single run can see scheduling noise swamp the 4x
        // speed contrast; numerics must hold every time, the timing-based
        // migration direction gets a couple of attempts.
        let mut counts = Vec::new();
        for _ in 0..3 {
            let cluster = ClusterBuilder::new().node(1, 1.0).node(1, 0.25).build();
            let mut cfg = DistConfig::new(16, 2.0, 4, 8);
            cfg.lb = Some(LbSchedule::every(2));
            let report = run_distributed(&cluster, &cfg);
            assert_eq!(report.field, serial_field(16, 2.0, 8));
            counts = report.final_ownership.counts();
            if counts[0] > counts[1] {
                return;
            }
        }
        panic!("fast node should own more SDs in at least one of 3 runs: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn degenerate_lambda_rejected_before_the_run() {
        // Even a spec written directly into the struct (bypassing
        // `with_spec`) must fail up front on the caller's thread, not
        // inside the locality-0 driver where a panic at the first LB
        // epoch would deadlock the other localities.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.lb = Some(LbSchedule {
            period: 2,
            spec: LbSpec::Tree {
                lambda: -1.0,
                mu: 0.0,
            },
        });
        let _ = run_distributed(&cluster, &cfg);
    }

    #[test]
    fn diffusion_policy_preserves_numerics_and_migrates() {
        // Numerics and migration must hold every time; the final-counts
        // range rests on *measured* busy times, which scheduling noise on
        // an oversubscribed test runner can skew (same caveat and retry
        // pattern as `heterogeneous_cluster_balances_toward_fast_node`).
        let mut counts = Vec::new();
        for _ in 0..3 {
            let cluster = ClusterBuilder::new().uniform(2, 1).build();
            let mut cfg = DistConfig::new(16, 2.0, 4, 6);
            cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::diffusion(1.0, 8)));
            let mut owners = vec![0u32; 16];
            owners[15] = 1;
            cfg.partition = PartitionSpec::Explicit(owners);
            let report = run_distributed(&cluster, &cfg);
            assert_eq!(report.field, serial_field(16, 2.0, 6));
            assert!(report.migrations > 0, "15/1 start must diffuse");
            counts = report.final_ownership.counts();
            if counts.iter().all(|&c| (4..=12).contains(&c)) {
                return;
            }
        }
        panic!("diffusion should settle the 15/1 split in at least one of 3 runs: {counts:?}");
    }

    #[test]
    fn greedy_steal_policy_preserves_numerics_and_migrates() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::greedy_steal(1)));
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert!(report.migrations > 0, "15/1 start must shed work");
    }

    #[test]
    fn adaptive_policy_preserves_numerics() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::adaptive(LbSpec::tree(0.0), 0.2)));
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
    }

    #[test]
    fn noop_epochs_emit_no_lb_history() {
        // A single-node cluster plans a no-op every epoch: the history
        // must stay empty instead of recording unchanged counts.
        let cluster = ClusterBuilder::new().uniform(1, 2).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert_eq!(report.migrations, 0);
        assert!(
            report.lb_history.is_empty(),
            "no-op epochs must not emit metrics: {:?}",
            report.lb_history
        );
        assert!(
            report.epoch_traces.is_empty(),
            "no-op epochs must not emit traces: {:?}",
            report.epoch_traces
        );
    }

    #[test]
    fn epoch_traces_record_realized_epochs() {
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.lb = Some(LbSchedule::every(2));
        let mut owners = vec![0u32; 16];
        owners[15] = 1;
        cfg.partition = PartitionSpec::Explicit(owners);
        let report = run_distributed(&cluster, &cfg);
        assert!(report.migrations > 0);
        // one trace per realized epoch, aligned with lb_history
        assert_eq!(report.epoch_traces.len(), report.lb_history.len());
        let total_moves: usize = report.epoch_traces.iter().map(|t| t.moves).sum();
        assert_eq!(
            total_moves, report.migrations,
            "traces must cover all moves"
        );
        for t in &report.epoch_traces {
            assert_eq!(t.policy, "tree");
            assert!(t.step >= 2 && t.step % 2 == 0, "schedule steps: {}", t.step);
            assert!(
                t.ghost_bytes_before > 0,
                "the real runtime always attaches its SdGraph"
            );
        }
        // the 15/1 start has a tiny cut; balancing toward 8/8 must grow it
        // (more boundary), which the recorded cut reflects
        let first = &report.epoch_traces[0];
        assert!(first.ghost_bytes_after != first.ghost_bytes_before);
    }

    #[test]
    fn no_rendezvous_leaks() {
        let cluster = ClusterBuilder::new().uniform(3, 1).build();
        let cfg = DistConfig::new(16, 2.0, 4, 4);
        let _ = run_distributed(&cluster, &cfg);
        for i in 0..cluster.len() {
            assert_eq!(
                cluster.locality(i).rendezvous().outstanding(),
                0,
                "locality {i} leaked rendezvous entries"
            );
        }
    }

    #[test]
    fn single_node_cluster_works() {
        let cluster = ClusterBuilder::new().uniform(1, 2).build();
        let cfg = DistConfig::new(16, 2.0, 4, 4);
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 4));
    }

    #[test]
    fn work_schedule_runs_on_the_real_runtime_bit_exact() {
        // The propagating crack on real hardware: the schedule switches
        // the work model mid-run (kernel repetition emulates the factor),
        // so the numerics must stay bit-exact while only timing shifts.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 6);
        cfg.work_schedule = vec![
            (
                0,
                WorkModel::Crack {
                    y_cell: 4,
                    half_width: 2,
                    factor: 2.0,
                },
            ),
            (
                3,
                WorkModel::Crack {
                    y_cell: 12,
                    half_width: 2,
                    factor: 2.0,
                },
            ),
        ];
        cfg.lb = Some(LbSchedule::every(2));
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 6));
        assert_eq!(cfg.work_at(0), &cfg.work_schedule[0].1);
        assert_eq!(cfg.work_at(4), &cfg.work_schedule[1].1);
    }

    #[test]
    #[should_panic(expected = "PerSd work model has 3 factors")]
    fn per_sd_length_mismatch_fails_before_the_run() {
        // Satellite contract: the bad factor vector must fail on the
        // caller's thread at configuration time, not by out-of-bounds
        // indexing inside a driver mid-run.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 4);
        cfg.work = WorkModel::PerSd(vec![1.0, 1.0, 1.0]); // grid has 16 SDs
        let _ = run_distributed(&cluster, &cfg);
    }

    #[test]
    fn ghost_byte_counters_match_the_planner_grade_formula() {
        // LB-free run on 2 nodes: every cross parcel is a ghost patch, so
        // the planner-grade counter must equal patches x patch_wire_bytes,
        // which is also what the simulator charges for this scenario.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 3);
        cfg.partition = PartitionSpec::Strip;
        let report = run_distributed(&cluster, &cfg);
        assert!(report.ghost_bytes > 0);
        assert_eq!(report.migration_bytes, 0);
        // rack-less model: no inter-rack share
        assert_eq!(report.inter_rack_ghost_bytes, 0);
        // the wire carries the same parcels plus an 8-byte codec length
        // word each: planner-grade + 8 * messages == wire bytes
        let msgs = cluster.net_stats().messages();
        assert_eq!(
            report.ghost_bytes + 8 * msgs,
            cluster.net_stats().cross_bytes()
        );
    }

    #[test]
    fn failed_rank_is_evacuated_and_numerics_hold() {
        // Fail-stop at step 3: the repartition policy must evacuate the
        // rank at the next epoch, the solver's numerics must stay
        // bit-exact throughout (the rank keeps computing until its SDs
        // are gone — membership is a planner-level fact), and nothing
        // may move back afterwards.
        let cluster = ClusterBuilder::new().uniform(2, 1).build();
        let mut cfg = DistConfig::new(16, 2.0, 4, 8);
        cfg.lb = Some(LbSchedule::every(2).with_spec(LbSpec::repartition(
            LbSpec::greedy_steal(1),
            f64::INFINITY,
            1,
            u64::MAX,
        )));
        cfg.cluster_events = vec![(3, crate::scenario::ClusterEvent::Fail { rank: 1 })];
        cfg.lb_input = LbInput::Modeled;
        let report = run_distributed(&cluster, &cfg);
        assert_eq!(report.field, serial_field(16, 2.0, 8));
        assert!(report.migrations > 0, "the failed rank must be evacuated");
        let counts = report.final_ownership.counts();
        assert_eq!(counts[1], 0, "failed rank must end empty: {counts:?}");
        assert_eq!(counts[0], 16);
        // the evacuation epoch is recorded as a replan
        assert!(
            report.epoch_traces.iter().any(|t| t.replan),
            "the evacuation must be flagged as a replan: {:?}",
            report.epoch_traces
        );
    }

    #[test]
    fn modeled_lb_input_is_deterministic_and_preserves_numerics() {
        // Parity mode: plans derive from the declared work model, so two
        // runs produce identical plan sequences (wall clock never enters)
        // and the numerics stay bit-exact.
        let run = || {
            let cluster = ClusterBuilder::new().uniform(2, 1).build();
            let mut cfg = DistConfig::new(16, 2.0, 4, 6);
            cfg.lb = Some(LbSchedule::every(2));
            cfg.lb_input = LbInput::Modeled;
            let mut owners = vec![0u32; 16];
            owners[15] = 1;
            cfg.partition = PartitionSpec::Explicit(owners);
            run_distributed(&cluster, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.field, serial_field(16, 2.0, 6));
        assert!(a.migrations > 0, "lopsided start must migrate");
        assert_eq!(a.lb_plans, b.lb_plans, "modeled plans are deterministic");
        assert_eq!(a.lb_history, b.lb_history);
        assert_eq!(a.ghost_bytes, b.ghost_bytes);
    }
}
