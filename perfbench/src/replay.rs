//! Per-layer replays. A real-runtime solve cannot be split into layers
//! from outside, so the traced run reconstructs what the solve did — its
//! ownership timeline, kernel calls, ghost patches, migrations and
//! message mix — from the scenario and the recorded plans, and times each
//! layer's public functions over exactly that work.

use crate::gate::same_plans;
use crate::inputs::modeled_epoch;
use crate::{timed, Metrics};
use bytes::{Bytes, BytesMut};
use nlheat_amt::codec::{decode_f64_rows, encode_f64_rows, Wire};
use nlheat_amt::network::Fabric;
use nlheat_amt::parcel::{tag, Parcel};
use nlheat_amt::ThreadPool;
use nlheat_core::balance::LbNetwork;
use nlheat_core::scenario::{work_at, RunReport, Scenario};
use nlheat_core::Move;
use nlheat_mesh::{build_halo_plan, split_cases, PatchSource, Rect, SdId, Stencil, Tile};
use nlheat_partition::{repartition_capacitated, PartitionConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// One kernel invocation of the solve.
pub struct KernelCall {
    pub step: usize,
    pub sd: SdId,
    pub rect: Rect,
    pub repeats: u32,
}

/// One ghost patch shipped between localities.
pub struct GhostPatch {
    pub src_sd: SdId,
    pub src_rect: Rect,
    pub dst_sd: SdId,
    pub dst_rect: Rect,
    pub src_owner: u32,
    pub dst_owner: u32,
}

/// What one real-runtime solve did, reconstructed.
pub struct Shape {
    pub kernel: Vec<KernelCall>,
    pub ghosts: Vec<GhostPatch>,
    pub migrations: Vec<Move>,
    /// Load-balancing protocol parcels: `(src, dst, payload bytes)`.
    pub lb_messages: Vec<(u32, u32, usize)>,
    pub epochs_attempted: usize,
}

/// Whether a balancing epoch closes `step` (the drivers' rule).
pub fn is_epoch(sc: &Scenario, step: usize) -> bool {
    sc.lb
        .as_ref()
        .is_some_and(|lb| (step + 1).is_multiple_of(lb.period) && step + 1 < sc.steps)
}

/// Reconstruct a solve from its scenario and the plans it realized,
/// following the driver's per-step structure (case-2 region first, then
/// the ghost-dependent case-1 strips, when overlap is on).
pub fn shape(sc: &Scenario, report: &RunReport) -> Result<Shape, String> {
    let sds = sc.sd_grid();
    let halo = sc.problem.build().grid.halo;
    let halo_plans: Vec<_> = sds
        .ids()
        .map(|id| build_halo_plan(&sds, halo, id))
        .collect();
    let n = sc.cluster.len() as u32;
    let speeds = sc.cluster.speed_factors();
    let mut owners = sc.partition.initial_owners(&sds, n);
    // realized plans paired with the step their epoch closed
    let mut realized = report
        .epoch_traces
        .iter()
        .map(|t| t.step)
        .zip(&report.lb_plans)
        .peekable();
    let stat_len = (0u64, 0u64, 0u64, 0u64).to_bytes().len();
    let mut out = Shape {
        kernel: Vec::new(),
        ghosts: Vec::new(),
        migrations: Vec::new(),
        lb_messages: Vec::new(),
        epochs_attempted: 0,
    };
    let full = Rect::new(0, 0, sds.sd, sds.sd);
    for step in 0..sc.steps {
        let work = work_at(&sc.work, &sc.work_schedule, step);
        for sd in sds.ids() {
            let me = owners[sd as usize];
            let plan = &halo_plans[sd as usize];
            let mut foreign = false;
            for p in &plan.patches {
                if let PatchSource::Sd(src) = p.source {
                    if owners[src as usize] != me {
                        foreign = true;
                        out.ghosts.push(GhostPatch {
                            src_sd: src,
                            src_rect: p.src_rect,
                            dst_sd: sd,
                            dst_rect: p.dst_rect,
                            src_owner: owners[src as usize],
                            dst_owner: me,
                        });
                    }
                }
            }
            let repeats = work.repeats(&sds, sd, speeds[me as usize]);
            let mut call = |rect| {
                out.kernel.push(KernelCall {
                    step,
                    sd,
                    rect,
                    repeats,
                })
            };
            if !foreign || !sc.overlap {
                call(full);
            } else {
                let split = split_cases(sds.sd, halo, plan, |nb| owners[nb as usize] != me);
                if !split.case2.is_empty() {
                    call(split.case2);
                }
                for r in split.case1 {
                    call(r);
                }
            }
        }
        if !is_epoch(sc, step) {
            continue;
        }
        out.epochs_attempted += 1;
        // an epoch that planned nothing is not recorded
        let moves: &[Move] = match realized.peek() {
            Some(&(at, plan)) if at == step + 1 => {
                realized.next();
                plan
            }
            _ => &[],
        };
        let wire: Vec<(u64, u32, u32)> =
            moves.iter().map(|m| (m.sd as u64, m.from, m.to)).collect();
        let plan_len = wire.to_bytes().len();
        for l in 0..n {
            out.lb_messages.push((l, 0, stat_len));
            out.lb_messages.push((0, l, plan_len));
        }
        for m in moves {
            out.migrations.push(*m);
            owners[m.sd as usize] = m.to;
        }
    }
    if realized.next().is_some() {
        return Err("recorded plans outnumber the balancing epochs".into());
    }
    Ok(out)
}

/// Every SD's tile pair, initialized like the drivers initialize them.
pub struct Tiles {
    pairs: Vec<(Tile, Tile)>,
}

impl Tiles {
    pub fn new(sc: &Scenario) -> Self {
        let sds = sc.sd_grid();
        let parts = sc.problem.build();
        let pairs = sds
            .ids()
            .map(|sd| {
                let (ox, oy) = sds.origin(sd);
                let mut curr = Tile::new(sds.sd, parts.grid.halo);
                for lj in 0..sds.sd {
                    for li in 0..sds.sd {
                        curr.set(li, lj, parts.manufactured.initial(ox + li, oy + lj));
                    }
                }
                (curr, Tile::new(sds.sd, parts.grid.halo))
            })
            .collect();
        Tiles { pairs }
    }
}

/// Kernel layer: replay every call; reports calls, interactions (cells ×
/// stencil points × speed repeats), busy seconds and ns per interaction.
pub fn kernel(sc: &Scenario, shape: &Shape, tiles: &mut Tiles, m: &mut Metrics) {
    let sds = sc.sd_grid();
    let parts = sc.problem.build();
    let points = Stencil::build(parts.grid.h, parts.grid.eps).len() as f64;
    let plan = parts.kernel.plan(sds.sd + 2 * parts.grid.halo);
    let source = parts.manufactured.source_fn();
    let dt = parts.dt;
    let ((), secs) = timed(|| {
        for c in &shape.kernel {
            let (curr, next) = &mut tiles.pairs[c.sd as usize];
            parts.kernel.apply_region_blocked(
                curr,
                next,
                &c.rect,
                &plan,
                sds.origin(c.sd),
                c.step as f64 * dt,
                dt,
                &source,
                c.repeats,
            );
        }
    });
    let interactions: f64 = shape
        .kernel
        .iter()
        .map(|c| c.rect.area() as f64 * points * f64::from(c.repeats))
        .sum();
    m.insert("kernel.calls", shape.kernel.len() as f64);
    m.insert("kernel.interactions", interactions);
    m.insert("kernel.busy_s", secs);
    m.insert(
        "kernel.ns_per_interaction",
        secs * 1e9 / interactions.max(1.0),
    );
}

/// Halo codec layer: encode every ghost patch and migrated tile the solve
/// shipped, then decode each into its destination. Returns the payload
/// length of every parcel in `(src, dst, bytes)` form for the fabric
/// replay.
pub fn codec(
    shape: &Shape,
    tiles: &mut Tiles,
    m: &mut Metrics,
) -> Result<Vec<(u32, u32, usize)>, String> {
    let pack = |tile: &Tile, rect: &Rect| {
        let mut buf = BytesMut::with_capacity(rect.area() as usize * 8 + 8);
        encode_f64_rows(rect.area() as usize, tile.rect_rows(rect), &mut buf);
        buf.freeze()
    };
    let interior = tiles.pairs[0].0.interior_rect();
    let (payloads, pack_s) = timed(|| {
        let mut out: Vec<Bytes> = Vec::with_capacity(shape.ghosts.len() + shape.migrations.len());
        for g in &shape.ghosts {
            out.push(pack(&tiles.pairs[g.src_sd as usize].0, &g.src_rect));
        }
        for mv in &shape.migrations {
            out.push(pack(&tiles.pairs[mv.sd as usize].0, &interior));
        }
        out
    });
    let mut mix: Vec<(u32, u32, usize)> = shape
        .ghosts
        .iter()
        .map(|g| (g.src_owner, g.dst_owner))
        .chain(shape.migrations.iter().map(|mv| (mv.from, mv.to)))
        .zip(&payloads)
        .map(|((s, d), p)| (s, d, p.len()))
        .collect();
    let bytes: usize = payloads.iter().map(Bytes::len).sum();
    let n_ghosts = shape.ghosts.len();
    let (decoded, unpack_s) = timed(|| {
        let mut landing = tiles.pairs[0].1.clone();
        for (i, mut p) in payloads.into_iter().enumerate() {
            let result = match shape.ghosts.get(i) {
                Some(g) => decode_f64_rows(
                    &mut p,
                    tiles.pairs[g.dst_sd as usize].0.rect_rows_mut(&g.dst_rect),
                ),
                None => decode_f64_rows(&mut p, landing.rect_rows_mut(&interior)),
            };
            result.map_err(|e| format!("payload {i} of {n_ghosts} ghosts: {e:?}"))?;
        }
        Ok::<(), String>(())
    });
    decoded?;
    m.insert("halo.patches", mix.len() as f64);
    m.insert("halo.bytes", bytes as f64);
    m.insert("halo.pack_s", pack_s);
    m.insert("halo.unpack_s", unpack_s);
    mix.extend_from_slice(&shape.lb_messages);
    Ok(mix)
}

/// The fabric counters one solve left behind.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub messages: u64,
    pub bytes: u64,
    pub cross_bytes: u64,
}

/// Fabric layer: the run's own counters, plus the message mix sent and
/// received through a fresh fabric of the workload's network model. The
/// mix must reproduce the run's counters exactly.
pub fn fabric(
    sc: &Scenario,
    mix: &[(u32, u32, usize)],
    run: NetCounters,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = sc.cluster.len();
    let (fabric, receivers) = Fabric::new(n, sc.net);
    let handle = fabric.handle();
    let mut expected = vec![0usize; n];
    let parcels: Vec<Parcel> = mix
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, len))| {
            expected[dst as usize] += 1;
            Parcel::new(
                src,
                dst,
                tag(250, i as u64, 0, 0),
                Bytes::from(vec![0u8; len]),
            )
        })
        .collect();
    let wire: u64 = parcels.iter().map(|p| p.wire_size() as u64).sum();
    let (received, secs) = timed(|| {
        for p in parcels {
            handle.send(p);
        }
        for (rx, &count) in receivers.iter().zip(&expected) {
            for _ in 0..count {
                rx.recv_timeout(Duration::from_secs(10))
                    .map_err(|_| "a replayed parcel never arrived".to_string())?;
            }
        }
        Ok::<(), String>(())
    });
    drop(fabric);
    received?;
    m.insert("fabric.messages", run.messages as f64);
    m.insert("fabric.bytes", run.bytes as f64);
    m.insert("fabric.cross_bytes", run.cross_bytes as f64);
    m.insert("fabric.send_recv_s", secs);
    if mix.len() as u64 != run.messages || wire != run.bytes {
        return Err(format!(
            "reconstructed mix is {} parcels / {wire} B, the run sent {} / {} B",
            mix.len(),
            run.messages,
            run.bytes
        ));
    }
    Ok(())
}

/// One locality's pool counters over a solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub workers: usize,
    pub busy_ns: u64,
    pub tasks: u64,
    pub steals: u64,
    pub steal_fails: u64,
    pub parks: u64,
}

impl PoolCounters {
    pub fn read(pool: &ThreadPool) -> Self {
        PoolCounters {
            workers: pool.n_workers(),
            busy_ns: pool.busy_ns_total(),
            tasks: pool.tasks_executed(),
            steals: pool.steals_total(),
            steal_fails: pool.steal_fails_total(),
            parks: pool.parks_total(),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: Self) -> Self {
        PoolCounters {
            workers: self.workers,
            busy_ns: self.busy_ns - before.busy_ns,
            tasks: self.tasks - before.tasks,
            steals: self.steals - before.steals,
            steal_fails: self.steal_fails - before.steal_fails,
            parks: self.parks - before.parks,
        }
    }
}

/// Pool layer: the run's counters, plus the time to spawn and drain as
/// many empty tasks on pools of the same shape.
pub fn pool(pools: &[PoolCounters], m: &mut Metrics) {
    let sum = |f: fn(&PoolCounters) -> u64| pools.iter().map(f).sum::<u64>() as f64;
    let mut spawn_s = 0.0;
    for pc in pools {
        let pool = ThreadPool::new(pc.workers, "replay");
        spawn_s += timed(|| {
            for i in 0..pc.tasks {
                pool.spawn(move || {
                    black_box(i);
                });
            }
            pool.wait_idle();
        })
        .1;
    }
    let (steals, fails) = (sum(|p| p.steals), sum(|p| p.steal_fails));
    m.insert("pool.tasks", sum(|p| p.tasks));
    m.insert("pool.busy_s", sum(|p| p.busy_ns) * 1e-9);
    m.insert("pool.parks", sum(|p| p.parks));
    m.insert("pool.steals", steals);
    m.insert("pool.steal_fails", fails);
    m.insert("pool.steal_hit_ratio", steals / (steals + fails).max(1.0));
    m.insert("pool.spawn_s", spawn_s);
}

/// LB plan layer: re-plan every epoch of a modeled-input run on the
/// reconstructed inputs, with one policy instance kept across epochs as
/// the substrates keep it. The replayed plans must equal `recorded`.
pub fn lb(sc: &Scenario, recorded: &[Vec<Move>], m: &mut Metrics) -> Result<(), String> {
    let lb = sc.lb.as_ref().ok_or("the workload has no LB schedule")?;
    let sds = sc.sd_grid();
    let net =
        LbNetwork::for_sd_tiles(&sc.net, sds.cells_per_sd()).with_sd_graph(Arc::new(sc.sd_graph()));
    let mut policy = lb.spec.build();
    let mut owners = sc.partition.initial_owners(&sds, sc.cluster.len() as u32);
    let (mut attempted, mut plan_s, mut plans) = (0usize, 0.0, Vec::new());
    for step in (0..sc.steps).filter(|&s| is_epoch(sc, s)) {
        attempted += 1;
        let (own, metrics) = modeled_epoch(sc, owners.clone(), step);
        let (plan, secs) = timed(|| policy.plan(&own, &metrics, &net));
        plan_s += secs;
        for mv in &plan.moves {
            owners[mv.sd as usize] = mv.to;
        }
        if !plan.moves.is_empty() {
            plans.push(plan.moves);
        }
    }
    let moves: usize = plans.iter().map(Vec::len).sum();
    m.insert("lb.epochs_attempted", attempted as f64);
    m.insert("lb.epochs_realized", plans.len() as f64);
    m.insert(
        "lb.realized_ratio",
        plans.len() as f64 / attempted.max(1) as f64,
    );
    m.insert("lb.moves", moves as f64);
    m.insert("lb.plan_s", plan_s);
    same_plans(&plans, recorded).map_err(|e| format!("replayed plans differ from the run's: {e}"))
}

/// Partition layer: the initial partition, the SD graph build, the cut of
/// the final ownership and one capacity-aware repartition of the graph.
pub fn partition(sc: &Scenario, final_owners: &[u32], seed: u64, m: &mut Metrics) {
    let sds = sc.sd_grid();
    let n = sc.cluster.len() as u32;
    let initial_s = timed(|| black_box(sc.partition.initial_owners(&sds, n))).1;
    let (graph, build_s) = timed(|| sc.sd_graph());
    let footprints = graph.footprints();
    let caps = vec![u64::MAX; n as usize];
    let cfg = PartitionConfig::new(n).with_seed(seed);
    let repart_s = timed(|| {
        black_box(repartition_capacitated(
            graph.csr(),
            &footprints,
            &caps,
            &cfg,
        ))
    })
    .1;
    m.insert("partition.initial_s", initial_s);
    m.insert("partition.sdgraph_build_s", build_s);
    m.insert(
        "partition.cut_bytes_final",
        graph.cut_bytes(final_owners) as f64,
    );
    m.insert("partition.repart_s", repart_s);
}
