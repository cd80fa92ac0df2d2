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
//! Three more cases plan from measured busy times with the adaptive-λ and
//! adaptive-μ decorators (alone and composed), so the migration-stall and
//! ghost-stall feedback the balancer feeds them is pinned too: reordering
//! those calls changes the plans.

use nonlocalheat::core::scenarios::{lopsided_owners, two_rack_net};
use nonlocalheat::netmodel::NetSpec;
use nonlocalheat::prelude::*;
use nonlocalheat::sim::engine::SimRun;

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
    fn of(run: &SimRun) -> Self {
        let bits = |v: &[f64]| fnv(v.iter().map(|x| x.to_bits()));
        let plans = run.lb_plans.iter().flat_map(|plan| {
            std::iter::once(plan.len() as u64).chain(
                plan.iter()
                    .map(|m| (u64::from(m.sd) << 32) | (u64::from(m.from) << 16) | u64::from(m.to)),
            )
        });
        Pinned {
            total_time: run.total_time.to_bits(),
            busy: bits(&run.busy),
            busy_fraction: bits(&run.busy_fraction),
            cross_bytes: run.cross_bytes,
            ghost_bytes: run.ghost_bytes,
            inter_rack_ghost_bytes: run.inter_rack_ghost_bytes,
            messages: run.messages,
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
/// balancer keeps moving SDs, so the stall feedback keeps moving λ and μ.
fn adaptive_two_rack(spec: LbSpec) -> Scenario {
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

/// The adaptive cases: each decorator alone and the two composed, paired
/// with the inner policy they wrap.
fn adaptive_specs() -> Vec<(&'static str, LbSpec, LbSpec)> {
    let mu = 0.01;
    let tree = LbSpec::tree(0.0);
    vec![
        (
            "adaptive-lambda",
            LbSpec::adaptive(tree.clone(), 0.05),
            tree.clone(),
        ),
        (
            "adaptive-mu",
            LbSpec::adaptive_mu(tree.clone().with_mu(mu), 0.05),
            tree.clone().with_mu(mu),
        ),
        (
            "adaptive-lambda-mu",
            LbSpec::adaptive(LbSpec::adaptive_mu(tree.clone().with_mu(mu), 0.05), 0.05),
            tree.with_mu(mu),
        ),
    ]
}

fn runs() -> Vec<(&'static str, SimRun)> {
    let mut scs = scenarios::all(true);
    scs.push(("multi-ring-lb", multi_ring_lb()));
    for (name, spec, _) in adaptive_specs() {
        scs.push((name, adaptive_two_rack(spec)));
    }
    scs.into_iter()
        .map(|(name, sc)| {
            sc.validate();
            (name, simulate(&SimConfig::from(&sc)))
        })
        .collect()
}

/// Recorded from the simulator before its geometry and ownership view
/// stopped keeping one halo plan per SD; the adaptive cases were recorded
/// before the balancing epoch moved into one shared controller.
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
            "adaptive-lambda",
            Pinned {
                total_time: 4580054314147198851,
                busy: 14200943169830705330,
                busy_fraction: 52461320772178450,
                cross_bytes: 385000,
                ghost_bytes: 370528,
                inter_rack_ghost_bytes: 234848,
                messages: 1791,
                migrations: 27,
                migration_bytes: 14472,
                lb_plans: 9837056637663207381,
            },
        ),
        (
            "adaptive-mu",
            Pinned {
                total_time: 4578323446927390643,
                busy: 8142406652504957979,
                busy_fraction: 13210962369008767546,
                cross_bytes: 227256,
                ghost_bytes: 218144,
                inter_rack_ghost_bytes: 68352,
                messages: 1021,
                migrations: 17,
                migration_bytes: 9112,
                lb_plans: 8165124673937969922,
            },
        ),
        (
            "adaptive-lambda-mu",
            Pinned {
                total_time: 4578215432017467033,
                busy: 10466016075744433343,
                busy_fraction: 15446023995533478327,
                cross_bytes: 195688,
                ghost_bytes: 191936,
                inter_rack_ghost_bytes: 68352,
                messages: 879,
                migrations: 7,
                migration_bytes: 3752,
                lb_plans: 901131323502889997,
            },
        ),
    ]
}

#[test]
fn adaptive_cases_move_their_weights() {
    // Guards the pinned adaptive cases against going inert: if the
    // feedback never moved λ or μ, each run would plan exactly like the
    // policy it wraps and the pins would not cover the feedback order.
    for (name, spec, inner) in adaptive_specs() {
        let adaptive = simulate(&SimConfig::from(&adaptive_two_rack(spec)));
        let plain = simulate(&SimConfig::from(&adaptive_two_rack(inner)));
        assert_ne!(adaptive.lb_plans, plain.lb_plans, "{name}");
    }
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
