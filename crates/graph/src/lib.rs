//! # traffic-graph
//!
//! Road-network graphs and the matrix machinery traffic GNNs consume:
//! Gaussian-kernel adjacencies (`W_ij = exp(−d²/σ²)`, paper §IV-B),
//! normalised/rescaled Laplacians for spectral GCNs, random-walk transition
//! matrices for diffusion convolutions, spectral node embeddings (the
//! deterministic node2vec substitute for GMAN), and synthetic network
//! generators matching the topologies of the seven PeMS datasets.

pub mod adjacency;
pub mod eigen;
pub mod embedding;
pub mod generators;
pub mod laplacian;
pub mod network;
pub mod transition;

pub use adjacency::{binary_adjacency, gaussian_adjacency, row_normalize, symmetrize};
pub use embedding::spectral_embedding;
pub use generators::{freeway_corridor, grid, metro_mix, random_geometric};
pub use laplacian::{
    normalized_laplacian, scaled_laplacian, scaled_laplacian_propagator, LaplacianSpectrum,
};
pub use network::{Edge, RoadNetwork, Sensor};
pub use transition::{
    backward_transition, diffusion_support_propagators, diffusion_supports, forward_transition,
};
