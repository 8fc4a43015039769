//! Workload inputs, all drawn from `--seed`. The program under test only
//! ever sees what these functions generate.

use crate::util::Rng;
use ape_bench::specs::{table1_opamps, OpAmpTask};
use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::SweepPlan;
use ape_serve::json::{n, obj, s, Value};

/// One `design` request: topology plus specification.
pub type Design = (OpAmpTopology, OpAmpSpec);

/// The three Miller topologies every workload draws from.
pub fn topologies() -> [OpAmpTopology; 3] {
    [
        OpAmpTopology::miller(MirrorTopology::Simple, false),
        OpAmpTopology::miller(MirrorTopology::Wilson, false),
        OpAmpTopology::miller(MirrorTopology::Simple, true),
    ]
}

const IBIAS_A: f64 = 10e-6;
const AREA_MAX_M2: f64 = 20_000e-12;
const ZOUT_OHM: f64 = 10e3;

fn spec(topology: OpAmpTopology, gain: f64, ugf_hz: f64, cl: f64) -> OpAmpSpec {
    OpAmpSpec {
        gain,
        ugf_hz,
        area_max_m2: AREA_MAX_M2,
        ibias: IBIAS_A,
        zout_ohm: topology.buffer.then_some(ZOUT_OHM),
        cl,
    }
}

/// Distinct specs in the wire pool.
pub const WIRE_POOL: usize = 160;

/// The wire pool: 160 distinct Miller specs. The first half is shared by
/// both connections; each connection owns a quarter of its own.
pub fn wire_pool(seed: u64) -> Vec<Design> {
    let mut rng = Rng::fork(seed, 1);
    let topo = topologies();
    (0..WIRE_POOL)
        .map(|i| {
            let t = topo[i % 3];
            let gain = rng.log_uniform(100.0, 1000.0);
            let ugf = rng.log_uniform(1e6, 1e7);
            let cl = rng.log_uniform(5e-12, 20e-12);
            (t, spec(t, gain, ugf, cl))
        })
        .collect()
}

/// Indices of a `len`-design pool that closed-loop connection `conn`
/// (0 or 1) draws from: the first half is shared, and each connection
/// owns a quarter of its own.
fn conn_indices(conn: usize, len: usize) -> Vec<usize> {
    let half = len / 2;
    let quarter = (len / 4).max(1);
    let own = (half + conn * quarter).min(len - 1);
    (0..half).chain(own..(own + quarter).min(len)).collect()
}

/// An endless seeded stream of pool indices for one connection.
pub struct Stream {
    rng: Rng,
    allowed: Vec<usize>,
}

impl Stream {
    pub fn closed(seed: u64, conn: usize, len: usize) -> Stream {
        Stream {
            rng: Rng::fork(seed, 100 + conn as u64),
            allowed: conn_indices(conn, len),
        }
    }

    /// The open-loop connection draws from the whole pool.
    pub fn open(seed: u64, len: usize) -> Stream {
        Stream {
            rng: Rng::fork(seed, 200),
            allowed: (0..len).collect(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        self.allowed[self.rng.below(self.allowed.len())]
    }
}

/// Open-loop send times, seconds from the start of the phase: a Poisson
/// process at `rate` requests per second.
pub fn open_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::fork(seed, 300);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// The fields of a wire `design` request.
pub fn design_fields(d: &Design) -> Value {
    let (t, sp) = d;
    let mirror = match t.current_source {
        MirrorTopology::Wilson => "wilson",
        _ => "simple",
    };
    let mut spec = obj([
        ("gain", n(sp.gain)),
        ("ugf_hz", n(sp.ugf_hz)),
        ("area_max_m2", n(sp.area_max_m2)),
        ("ibias", n(sp.ibias)),
        ("cl", n(sp.cl)),
    ]);
    if let (Some(z), Value::Obj(m)) = (sp.zout_ohm, &mut spec) {
        m.insert("zout_ohm".to_string(), n(z));
    }
    obj([
        (
            "topology",
            obj([("mirror", s(mirror)), ("buffer", Value::Bool(t.buffer))]),
        ),
        ("spec", spec),
    ])
}

/// A full request line, as a client would put it on the wire.
pub fn design_line(id: u64, d: &Design) -> String {
    let mut v = design_fields(d);
    if let Value::Obj(m) = &mut v {
        m.insert("op".to_string(), s("design"));
        m.insert("id".to_string(), Value::Num(id as f64));
    }
    v.render()
}

/// Grid axes of the sweep: 40 gains × 40 UGFs × 10 loads × 3 topologies
/// = 48,000 distinct specs.
pub fn sweep_plan(seed: u64) -> SweepPlan {
    let mut rng = Rng::fork(seed, 400);
    // Stratified: one value per equal log-width bin, placed by the seed,
    // so every seed covers the whole range and costs about the same.
    let mut axis = |k: usize, lo: f64, hi: f64| {
        let step = (hi / lo).ln() / k as f64;
        (0..k)
            .map(|i| lo * ((i as f64 + rng.unit()) * step).exp())
            .collect::<Vec<f64>>()
    };
    let gains = axis(40, 100.0, 1000.0);
    let ugfs_hz = axis(40, 1e6, 1e7);
    let loads_f = axis(10, 5e-12, 20e-12);
    SweepPlan {
        gains,
        ugfs_hz,
        loads_f,
        topologies: topologies().to_vec(),
        ibias_a: IBIAS_A,
        area_max_m2: AREA_MAX_M2,
        zout_ohm: Some(ZOUT_OHM),
    }
}

/// The sweep's points as plain design requests, in grid order.
pub fn sweep_designs(plan: &SweepPlan) -> Vec<Design> {
    plan.points()
        .iter()
        .map(|p| (p.topology, spec(p.topology, p.gain, p.ugf_hz, p.cl_f)))
        .collect()
}

/// The Table-1 synthesis tasks with their fixed annealing seeds (the
/// same seeds the `table1`/`table4` bins use).
pub fn synth_tasks() -> Vec<(OpAmpTask, u64)> {
    table1_opamps()
        .into_iter()
        .map(|t| {
            let seed = 1000 + u64::from(t.name.as_bytes()[2]);
            (t, seed)
        })
        .collect()
}

/// A sample of `k` designs from `all`, drawn with the benchmark seed.
pub fn sample(seed: u64, all: &[Design], k: usize) -> Vec<Design> {
    let mut rng = Rng::fork(seed, 500);
    (0..k).map(|_| all[rng.below(all.len())]).collect()
}
