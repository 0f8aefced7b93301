//! Golden digests of solver outputs.
//!
//! Every scenario of a fixed corpus goes through [`evcap_spec::solve`],
//! and every field of the returned [`PolicyParams`] and [`SolveMeta`] —
//! `iterations` included, every `f64` by its bits — is folded into a
//! 64-bit FNV-1a digest, one per scenario. FNV-1a is spelled out here
//! rather than borrowed from `std::hash`, whose output may change between
//! toolchains.
//!
//! The committed digests freeze what the solvers produced when they were
//! recorded. A change to a solver's evaluation order or search must
//! reproduce them bit for bit; a deliberate change of solver output must
//! say so and regenerate them (a failing run prints the full table of
//! actual digests).
//!
//! Corpus, over e ∈ {0.16, 0.25, 0.4, 0.8}:
//! * clustering × {qom, aoi-mean, aoi-peak} × {1, 3} sensors on
//!   `weibull:40,3`, `weibull:20,2`, `uniform:10,50` and `erlang:5,0.2`;
//! * myopic × {qom, aoi-mean}, and greedy, on those four plus
//!   `lognormal:3,0.5`.

use evcap_spec::{solve, Objective, PolicyParams, PolicySpec, Scenario, SolveMeta};

const ES: [f64; 4] = [0.16, 0.25, 0.4, 0.8];
const HORIZON: usize = 4_096;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        self.bytes(&[u8::from(v.is_some())]);
        self.f64(v.unwrap_or(0.0));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    fn params(&mut self, p: &PolicyParams) {
        self.str(p.family());
        match p {
            PolicyParams::Greedy {
                coefficients,
                tail_coefficient,
                ideal_qom,
                discharge_rate,
            } => {
                self.usize(coefficients.len());
                for &c in coefficients {
                    self.f64(c);
                }
                self.f64(*tail_coefficient);
                self.f64(*ideal_qom);
                self.f64(*discharge_rate);
            }
            PolicyParams::Clustering {
                n1,
                n2,
                n3,
                boundary,
            } => {
                self.usize(*n1);
                self.usize(*n2);
                self.usize(*n3);
                self.f64(boundary.0);
                self.f64(boundary.1);
                self.f64(boundary.2);
            }
            PolicyParams::Aggressive => {}
            PolicyParams::Periodic { theta1, theta2 } => {
                self.u64(*theta1);
                self.u64(*theta2);
            }
            PolicyParams::Myopic {
                active,
                threshold,
                evaluation,
            } => {
                self.usize(active.len());
                for &a in active {
                    self.bytes(&[u8::from(a)]);
                }
                self.f64(*threshold);
                self.f64(evaluation.capture_probability);
                self.f64(evaluation.discharge_rate);
                self.f64(evaluation.expected_cycle);
                self.f64(evaluation.truncated_survival);
            }
        }
    }

    fn meta(&mut self, m: &SolveMeta) {
        self.str(&m.label);
        self.str(&m.info.to_string());
        self.opt_f64(m.objective);
        self.str(m.objective_kind.name());
        self.opt_f64(m.objective_value);
        self.opt_f64(m.discharge_rate);
        self.opt_f64(m.expected_cycle);
        self.bytes(&[u8::from(m.regions.is_some())]);
        if let Some(r) = &m.regions {
            self.usize(r.n1);
            self.usize(r.n2);
            self.usize(r.n3);
            self.f64(r.boundary.0);
            self.f64(r.boundary.1);
            self.f64(r.boundary.2);
        }
        self.f64(m.mean_gap);
        self.u64(m.iterations);
    }
}

/// The digest of one solve's parameters and metadata.
fn digest(scenario: &Scenario) -> u64 {
    let solved = solve(scenario).unwrap_or_else(|e| panic!("{}: {e}", scenario.canonical_key()));
    let mut h = Fnv::new();
    h.str(&scenario.canonical_key());
    h.params(&solved.params);
    h.meta(&solved.meta);
    h.0
}

/// Digests of `policy` on `dist` for every objective × sensor count × e,
/// in that nesting order.
fn digests(
    dist: &str,
    policy: PolicySpec,
    objectives: &[Objective],
    sensors: &[usize],
) -> Vec<u64> {
    let mut out = Vec::new();
    for &objective in objectives {
        for &n in sensors {
            for e in ES {
                let scenario = Scenario::new(dist, policy, e)
                    .unwrap()
                    .with_horizon(HORIZON)
                    .with_sensors(n)
                    .with_objective(objective);
                out.push(digest(&scenario));
            }
        }
    }
    out
}

fn check(what: &str, actual: &[u64], expected: &[u64]) {
    if actual != expected {
        let table: Vec<String> = actual.iter().map(|d| format!("0x{d:016x}")).collect();
        panic!(
            "{what}: solver outputs differ from the golden digests\nactual: [{}]",
            table.join(", ")
        );
    }
}

const ALL_OBJECTIVES: [Objective; 3] = [Objective::Qom, Objective::AoiMean, Objective::AoiPeak];

fn clustering(dist: &str, expected: &[u64]) {
    let actual = digests(dist, PolicySpec::Clustering, &ALL_OBJECTIVES, &[1, 3]);
    check(&format!("clustering {dist}"), &actual, expected);
}

#[test]
fn clustering_weibull_40_3_matches_golden_digests() {
    clustering(
        "weibull:40,3",
        &[
            0xf8007ae67084a340,
            0x1cdcb7001bba5354,
            0x934a569a8ddbf7e4,
            0x909c569c3564d6bc,
            0xc93c4a6499f9cde8,
            0x2a16694f97683ab0,
            0xe56b07a90ae53ccd,
            0x2a34133f917be7d6,
            0x1694be7b50d30275,
            0xf8bba76f3a78ac2c,
            0x48d6954b84a4de3d,
            0x7e451dfeaa1e78f6,
            0xb1ef98935c4bd7b3,
            0x734cd39814b59dcb,
            0x14d5114d8d06c815,
            0x62e8b5e578751c5a,
            0x776937f464757e24,
            0x084c58ca689c4dd3,
            0xcd0e347a1c72113b,
            0x61c2d8a1d6999c34,
            0xc3b63ba8ba3d3f01,
            0xaff1e0742c56eaca,
            0x09568f30d57d428a,
            0xe83c45c69c558871,
        ],
    );
}

#[test]
fn clustering_weibull_20_2_matches_golden_digests() {
    clustering(
        "weibull:20,2",
        &[
            0x3d66c190b435168f,
            0xc09dcb6212bce872,
            0x452428e2139acef4,
            0xe403b2462d9a6ccd,
            0x03ba5693e0ba855f,
            0xe35db51cf4223317,
            0x2f3a16789f9f5b36,
            0x008a38c4593a6156,
            0x71355ac34f334ca8,
            0xbb81871a394d2224,
            0xc446d48d676a5bcd,
            0xc66f2d5e53b2faf7,
            0xca0e4e7b3cc3679d,
            0x8b5853a9648abf1d,
            0xd5a09a0711d301a3,
            0x1cc95c8eda6fe304,
            0xbba230014c301c38,
            0x2e90c6adf0aeb300,
            0x44a1b293a6c32f12,
            0x1b9cba89753c3537,
            0x926c95a122012d0a,
            0x87d022a5addafd3e,
            0xb205f8b14e0f6b90,
            0xd7f1805116e869d0,
        ],
    );
}

#[test]
fn clustering_uniform_matches_golden_digests() {
    clustering(
        "uniform:10,50",
        &[
            0x10d0377dcc5ec602,
            0x401e097f696f39e2,
            0x9fff6b539a03a903,
            0x23bed59822fd3341,
            0x01a928e4f28e419f,
            0x2575e86e7ba3ba0a,
            0x9f20f8ff3b60b4e5,
            0x032baf57b7ad38b4,
            0x75aad228782f2625,
            0xf15a875cb0a7a7ee,
            0xa0cadff6ea4f83f4,
            0x8092765c0ba7a1e5,
            0x9fde97e59cdd6218,
            0x12c604cf8b643502,
            0xc7473898b3be614d,
            0xb1f4b87bab43212c,
            0x65c3443dbd72a7d3,
            0x93d5b03d975f24eb,
            0xe8561b710ccd205e,
            0x4d37595984a04213,
            0x9d08775ef01e3f3d,
            0x5ac5254f3275ab7d,
            0x23dcf71f0868d06f,
            0x593dc9e68b56c7b6,
        ],
    );
}

#[test]
fn clustering_erlang_matches_golden_digests() {
    clustering(
        "erlang:5,0.2",
        &[
            0x1552089e5b5a26ec,
            0xf18b4cd7078ddfa7,
            0xc7befcb391499c29,
            0x132205f6684b2a39,
            0x01630f6fd83f8436,
            0xdf0b48c0c3bcfc54,
            0xe45182e42b79dbbc,
            0x9f0a4527e09ec7ab,
            0x95ba1bc68644d6c2,
            0x79129ecc0a86590a,
            0xd7bedad6f19784aa,
            0xd60130991ebba677,
            0x7649f8a36d81255d,
            0xadafaab5334c91f2,
            0x6f4a2f2a538337b6,
            0xaca30ffc99cf4476,
            0x51cf6171c89f9d67,
            0x4f78d1e58bd6ddfa,
            0x9ef9f4e1342de61e,
            0x96bbe7b945468563,
            0x34da296f07a0ae27,
            0x2fe5431dc9a44e04,
            0xff700505f85b980e,
            0x53212815ab0bef67,
        ],
    );
}

const BASELINE_DISTS: [&str; 5] = [
    "weibull:40,3",
    "weibull:20,2",
    "uniform:10,50",
    "erlang:5,0.2",
    "lognormal:3,0.5",
];

#[test]
fn myopic_solves_match_golden_digests() {
    let actual: Vec<u64> = BASELINE_DISTS
        .iter()
        .flat_map(|d| {
            digests(
                d,
                PolicySpec::Myopic,
                &[Objective::Qom, Objective::AoiMean],
                &[1],
            )
        })
        .collect();
    check(
        "myopic",
        &actual,
        &[
            0x9258f652b62ba75c,
            0x118178a14cfca0c4,
            0xa5c9ff1b71f1203f,
            0xc4a8b6660f1e7945,
            0x04acd983517c3d4f,
            0xf11c4c0ead2bc6e1,
            0x63366d34aa81dcae,
            0xb97a6a49007766e3,
            0x63b40e3da023cbda,
            0xf834292648c49460,
            0x5eb933db66241519,
            0xb93891c073c7d1ec,
            0x024224f1e7b77ee0,
            0xdc09704f18f0a248,
            0xe9da641f84313cc5,
            0xd82775de183d2560,
            0x7cc470239f79554c,
            0x67b444b6a888d0f2,
            0x86c869bba758a5cf,
            0xfdeb572d6bfffec3,
            0x187d55ff7536de65,
            0xa21ff26b07b2a293,
            0x3e0b50536087d886,
            0xc04bc8963e6f3f0f,
            0xf9c6b1d2478b44b0,
            0x3e6815cfb11c23b0,
            0x42691e9d55496d25,
            0x0742b8f4ae338976,
            0x3c4bf2e1a0ebce81,
            0x9a5b52017d7dc60b,
            0xd135f10e43646e02,
            0x43a037ad1ac62e6f,
            0x5128a98eff4f39bc,
            0x499249341f5cbd1e,
            0xcad827574edf1421,
            0x90980564c4fea64c,
            0xb3535023eb1ababd,
            0xb2e2f2788ab32d31,
            0x4e4dc9e5554495aa,
            0x8bae8fc871979d2f,
        ],
    );
}

#[test]
fn greedy_solves_match_golden_digests() {
    let actual: Vec<u64> = BASELINE_DISTS
        .iter()
        .flat_map(|d| digests(d, PolicySpec::Greedy, &[Objective::Qom], &[1]))
        .collect();
    check(
        "greedy",
        &actual,
        &[
            0x84b11b03c748ffaa,
            0xdedb261166792710,
            0xb7a8a264cde8f906,
            0xd929997c9dd6feb3,
            0x123b83ac0532ff0c,
            0x4d22969fdb1b06e2,
            0x56340fbcaac727ad,
            0x7676ee003facaf28,
            0x4099ed0685ac4f14,
            0x373761040a5ae187,
            0xa9ccef04d8a06e74,
            0xc177a1b6d75aad32,
            0xb9a2fab5bb3a36f9,
            0x7624994bd5054be1,
            0x5f3996b81395302b,
            0xda16d3ab95c60912,
            0x167e66771a55627d,
            0xbd693e477e86e739,
            0x17aa7171f8b74c4f,
            0x985a52e24f1f5b61,
        ],
    );
}
