//! Bit-pins every `GraphContext` tensor: each is hashed with FNV-1a 64
//! over its f32 bit patterns (little-endian bytes, row-major order). The
//! expected hashes were computed with the earlier builder that ran one
//! eigendecomposition for `L̃` and another for the node embedding, so
//! the shared decomposition must reproduce those matrices bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_graph::{freeway_corridor, metro_mix, RoadNetwork};
use traffic_models::GraphContext;
use traffic_tensor::Tensor;

fn fnv1a64(t: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in t.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Expected hashes: adjacency, `L̃`, supports[0], supports[1],
/// row-normalised adjacency, node embedding.
fn check(net: &RoadNetwork, want: [u64; 6]) {
    let ctx = GraphContext::from_network(net, 8);
    assert_eq!(ctx.supports.len(), 2);
    let got = [
        fnv1a64(&ctx.adjacency),
        fnv1a64(&ctx.scaled_laplacian),
        fnv1a64(&ctx.supports[0]),
        fnv1a64(&ctx.supports[1]),
        fnv1a64(&ctx.row_norm_adj),
        fnv1a64(&ctx.node_embedding),
    ];
    let names = [
        "adjacency",
        "scaled_laplacian",
        "supports[0]",
        "supports[1]",
        "row_norm_adj",
        "node_embedding",
    ];
    for ((name, g), w) in names.iter().zip(got).zip(want) {
        assert_eq!(g, w, "{name} at n={}: got {g:016x}, want {w:016x}", ctx.n);
    }
}

fn corridor(n: usize) -> RoadNetwork {
    freeway_corridor(n, 1.0, &mut StdRng::seed_from_u64(7))
}

#[test]
fn corridor_17_bits() {
    check(
        &corridor(17),
        [
            0x41a9_b503_0ff4_2ecc,
            0xd869_098c_5ad0_7400,
            0xb825_90f6_1a38_cd57,
            0xb825_90f6_1a38_cd57,
            0xb825_90f6_1a38_cd57,
            0x9773_e5d1_7548_075c,
        ],
    );
}

#[test]
fn corridor_207_bits() {
    check(
        &corridor(207),
        [
            0x8751_b0f6_0997_98bc,
            0x04d2_155e_2381_b6db,
            0xa813_1b59_e58b_d981,
            0xa813_1b59_e58b_d981,
            0xa813_1b59_e58b_d981,
            0x2402_cc86_3fb3_697a,
        ],
    );
}

#[test]
fn corridor_325_bits() {
    check(
        &corridor(325),
        [
            0x2b55_179d_c996_508c,
            0xb3ff_52fc_bf1e_98cb,
            0x5205_1545_e0a1_c377,
            0x5205_1545_e0a1_c377,
            0x5205_1545_e0a1_c377,
            0x782f_b293_ca9f_61d6,
        ],
    );
}

#[test]
fn metro_mix_50_bits() {
    check(
        &metro_mix(50, &mut StdRng::seed_from_u64(7)),
        [
            0xcd9f_66bc_8067_55fd,
            0xc432_a25e_4f39_40e9,
            0x51e6_5bbf_2cb2_1206,
            0x51e6_5bbf_2cb2_1206,
            0x51e6_5bbf_2cb2_1206,
            0xdd54_0959_289e_c064,
        ],
    );
}
