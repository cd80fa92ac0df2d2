//! Pins the discrete-event simulator's outputs bit for bit.
//!
//! `hotpath_parity` and `sim_vs_real` compare the simulator's byte and plan
//! counters against the real runtime, but nothing there pins its virtual
//! time. This test records, for every quick library scenario plus one
//! multi-ring-halo scenario with balancing, the makespan bits, the busy
//! vectors' bits, every traffic counter and a digest of the realized
//! plans. A refactor of the event loop, its geometry or its ownership view
//! must leave all of them unchanged.
//!
//! Two more cases plan from measured busy times (the tree, ghost-blind and
//! at μ = 0.01) on a lopsided two-rack start under a jumping crack, so the
//! virtual-time busy windows the balancer reads are pinned too. Two last
//! cases cover branches no library scenario reaches: the hotpath bench's
//! balanced 256-SD run, and a run with case-1/case-2 overlap off.

use nonlocalheat::core::scenarios::{lopsided_owners, two_rack_net};
use nonlocalheat::netmodel::NetSpec;
use nonlocalheat::prelude::*;

/// FNV-1a over 64-bit words: a stable digest for the per-node vectors and
/// the move lists.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything pinned about one run.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    total_time: u64,
    busy: u64,
    busy_fraction: u64,
    cross_bytes: u64,
    ghost_bytes: u64,
    inter_rack_ghost_bytes: u64,
    messages: u64,
    migrations: usize,
    migration_bytes: u64,
    /// Digest of every plan's `(sd, from, to)` sequence, plan boundaries
    /// included.
    lb_plans: u64,
}

impl Pinned {
    fn of(run: &RunReport) -> Self {
        let extras = run.sim_extras().expect("a simulator report");
        let bits = |v: &[f64]| fnv(v.iter().map(|x| x.to_bits()));
        let plans = run.lb_plans.iter().flat_map(|plan| {
            std::iter::once(plan.len() as u64).chain(
                plan.iter()
                    .map(|m| (u64::from(m.sd) << 32) | (u64::from(m.from) << 16) | u64::from(m.to)),
            )
        });
        Pinned {
            total_time: run.makespan.to_bits(),
            busy: bits(&run.busy),
            busy_fraction: bits(&extras.busy_fraction),
            cross_bytes: extras.cross_bytes,
            ghost_bytes: run.ghost_bytes,
            inter_rack_ghost_bytes: run.inter_rack_ghost_bytes,
            messages: extras.messages,
            migrations: run.migrations,
            migration_bytes: run.migration_bytes,
            lb_plans: fnv(plans),
        }
    }
}

/// Halo 8 cells over 4-cell SDs (two SD rings) on a two-rack cluster of
/// unequal ranks, balanced every two steps.
fn multi_ring_lb() -> Scenario {
    Scenario::square(48, 8.0, 4, 8)
        .on(ClusterSpec::speeds(&[1.0, 0.5, 1.5, 1.0]))
        .with_net(NetSpec::Topology(
            nonlocalheat::netmodel::TopologySpec::two_tier(2),
        ))
        .with_partition(PartitionSpec::Strip)
        .with_lb(LbSchedule::every(2))
}

/// A lopsided start on a heterogeneous two-rack cluster under a crack
/// that jumps twice, planned from measured busy times by `spec`: the
/// balancer keeps moving SDs as the busy windows shift.
fn measured_two_rack(spec: LbSpec) -> Scenario {
    let base = Scenario::square(48, 4.0, 8, 24);
    let sds = base.sd_grid();
    let crack = |y_cell| WorkModel::Crack {
        y_cell,
        half_width: 6,
        factor: 0.25,
    };
    base.on(ClusterSpec::speeds(&[2.0, 1.0, 1.0, 0.5]))
        .with_net(two_rack_net())
        .with_partition(PartitionSpec::Explicit(lopsided_owners(&sds, 4)))
        .with_work_schedule(vec![(8, crack(8)), (16, crack(36))])
        .with_lb(LbSchedule::every(2).with_spec(spec))
        .with_lb_input(LbInput::Measured)
}

/// The hotpath bench's `event_core/sim_lb_256sd_4n_12st` run: 256 SDs on
/// four nodes, one twice as fast, balanced every four steps.
fn hotpath_lb() -> Scenario {
    Scenario::square(400, 8.0, 25, 12)
        .on(ClusterSpec::speeds(&[2.0, 1.0, 1.0, 1.0]))
        .with_lb(LbSchedule::every(4))
}

/// Ablation A2's no-overlap leg at its 5000 µs latency point.
fn no_overlap() -> Scenario {
    Scenario::square(200, 8.0, 50, 3)
        .on(ClusterSpec::uniform(4, 1))
        .with_net(NetSpec::shared(5e-3, 1e9))
        .with_overlap(false)
}

fn runs() -> Vec<(&'static str, RunReport)> {
    let mut scs = scenarios::all(true);
    scs.push(("multi-ring-lb", multi_ring_lb()));
    scs.push(("measured-two-rack", measured_two_rack(LbSpec::tree(0.0))));
    scs.push((
        "measured-two-rack-mu",
        measured_two_rack(LbSpec::tree(0.0).with_mu(0.01)),
    ));
    scs.push(("hotpath-lb", hotpath_lb()));
    scs.push(("no-overlap", no_overlap()));
    scs.into_iter()
        .map(|(name, sc)| (name, sc.run_sim()))
        .collect()
}

/// Recorded from the simulator before its geometry and ownership view
/// stopped keeping one halo plan per SD; the last two before the simulator
/// took a `Scenario` directly, and the measured two-rack cases before the
/// balancer stopped measuring anything but busy time.
fn pinned() -> Vec<(&'static str, Pinned)> {
    vec![
        (
            "paper-baseline",
            Pinned {
                total_time: 4554717441378326702,
                busy: 5729950117002340341,
                busy_fraction: 2474725023808591301,
                cross_bytes: 15168,
                ghost_bytes: 15168,
                inter_rack_ghost_bytes: 0,
                messages: 216,
                migrations: 0,
                migration_bytes: 0,
                lb_plans: 14695981039346656037,
            },
        ),
        (
            "lopsided-two-rack",
            Pinned {
                total_time: 4573072569697594181,
                busy: 1534860025570806116,
                busy_fraction: 18440010604290851418,
                cross_bytes: 107928,
                ghost_bytes: 94528,
                inter_rack_ghost_bytes: 53056,
                messages: 465,
                migrations: 25,
                migration_bytes: 13400,
                lb_plans: 86692083290396610,
            },
        ),
        (
            "propagating-crack",
            Pinned {
                total_time: 4557753174550171095,
                busy: 6821730905771967206,
                busy_fraction: 11139906209573049451,
                cross_bytes: 31568,
                ghost_bytes: 30656,
                inter_rack_ghost_bytes: 0,
                messages: 446,
                migrations: 6,
                migration_bytes: 912,
                lb_plans: 8687660804126486597,
            },
        ),
        (
            "heterogeneous-cluster",
            Pinned {
                total_time: 4560211417180224149,
                busy: 11668739545735705403,
                busy_fraction: 17852194751095734796,
                cross_bytes: 72384,
                ghost_bytes: 70240,
                inter_rack_ghost_bytes: 0,
                messages: 328,
                migrations: 4,
                migration_bytes: 2144,
                lb_plans: 18090807335374326839,
            },
        ),
        (
            "incast-duplex",
            Pinned {
                total_time: 4557528503814231145,
                busy: 7495564664900644393,
                busy_fraction: 9972460435004626085,
                cross_bytes: 16512,
                ghost_bytes: 16512,
                inter_rack_ghost_bytes: 0,
                messages: 240,
                migrations: 0,
                migration_bytes: 0,
                lb_plans: 14695981039346656037,
            },
        ),
        (
            "memory-pressure",
            Pinned {
                total_time: 4572130476031005753,
                busy: 797410065020375899,
                busy_fraction: 3430907624544384805,
                cross_bytes: 100392,
                ghost_bytes: 98784,
                inter_rack_ghost_bytes: 35872,
                messages: 471,
                migrations: 3,
                migration_bytes: 1608,
                lb_plans: 2897156961764910128,
            },
        ),
        (
            "cut-drift",
            Pinned {
                total_time: 4576326264063390304,
                busy: 7524479811293941673,
                busy_fraction: 13405298172037499244,
                cross_bytes: 214488,
                ghost_bytes: 181792,
                inter_rack_ghost_bytes: 90944,
                messages: 937,
                migrations: 61,
                migration_bytes: 32696,
                lb_plans: 12890183687911568564,
            },
        ),
        (
            "elastic-scale-out",
            Pinned {
                total_time: 4572322414403092708,
                busy: 9186018665565569955,
                busy_fraction: 4919797052785234276,
                cross_bytes: 68736,
                ghost_bytes: 60160,
                inter_rack_ghost_bytes: 26624,
                messages: 304,
                migrations: 16,
                migration_bytes: 8576,
                lb_plans: 12123938140851041624,
            },
        ),
        (
            "rank-failure",
            Pinned {
                total_time: 4573174192810696252,
                busy: 5889807781979728558,
                busy_fraction: 9734006768045472379,
                cross_bytes: 71688,
                ghost_bytes: 69008,
                inter_rack_ghost_bytes: 43088,
                messages: 331,
                migrations: 5,
                migration_bytes: 2680,
                lb_plans: 16835690792616156841,
            },
        ),
        (
            "multi-ring-lb",
            Pinned {
                total_time: 4571386097949302411,
                busy: 4000750122069760069,
                busy_fraction: 17211338094548730670,
                cross_bytes: 1145776,
                ghost_bytes: 1139392,
                inter_rack_ghost_bytes: 407968,
                messages: 7538,
                migrations: 42,
                migration_bytes: 6384,
                lb_plans: 3983467711720723722,
            },
        ),
        (
            "measured-two-rack",
            Pinned {
                total_time: 4580852055123881454,
                busy: 10625126069694599943,
                busy_fraction: 8606266594317716935,
                cross_bytes: 350864,
                ghost_bytes: 328352,
                inter_rack_ghost_bytes: 198784,
                messages: 1606,
                migrations: 42,
                migration_bytes: 22512,
                lb_plans: 16577627649375811442,
            },
        ),
        (
            "measured-two-rack-mu",
            Pinned {
                total_time: 4581174158333838517,
                busy: 12683894343254048730,
                busy_fraction: 3066929568407054805,
                cross_bytes: 329968,
                ghost_bytes: 286016,
                inter_rack_ghost_bytes: 171584,
                messages: 1418,
                migrations: 82,
                migration_bytes: 43952,
                lb_plans: 13707294539572467510,
            },
        ),
        (
            "hotpath-lb",
            Pinned {
                total_time: 4595286319746893209,
                busy: 5535805358559453338,
                busy_fraction: 8036220111161643759,
                cross_bytes: 3214688,
                ghost_bytes: 2918272,
                inter_rack_ghost_bytes: 0,
                messages: 3019,
                migrations: 59,
                migration_bytes: 296416,
                lb_plans: 17617537664041175130,
            },
        ),
        (
            "no-overlap",
            Pinned {
                total_time: 4582536208270166009,
                busy: 12614491267973045213,
                busy_fraction: 659749442719832365,
                cross_bytes: 186912,
                ghost_bytes: 186912,
                inter_rack_ghost_bytes: 0,
                messages: 108,
                migrations: 0,
                migration_bytes: 0,
                lb_plans: 14695981039346656037,
            },
        ),
    ]
}

#[test]
fn simulator_outputs_are_pinned() {
    let got = runs();
    let want = pinned();
    assert_eq!(
        got.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "scenario roster"
    );
    for ((name, run), (_, want)) in got.iter().zip(&want) {
        assert_eq!(&Pinned::of(run), want, "{name}");
    }
}
