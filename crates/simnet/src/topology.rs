use rand::Rng;

/// Network topology shapes evaluated in the paper (§V-B.5): full mesh, ring,
/// and random graphs keeping a fraction `p` of all possible links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Every pair of agents is connected.
    Full,
    /// Agents form a cycle; each talks to two neighbours.
    Ring,
    /// Erdős–Rényi-style graph: each possible edge exists with probability
    /// `p` (Fig. 3 uses `p = 0.2`).
    Random {
        /// Probability of keeping each edge.
        p: f64,
    },
}

impl Topology {
    /// Convenience constructor for a random topology.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn random(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1], got {p}");
        Topology::Random { p }
    }

    /// Materializes the adjacency for `k` agents using `rng` for random
    /// topologies.
    #[allow(clippy::needless_range_loop)] // symmetric writes need both indices
    pub fn build<R: Rng>(&self, k: usize, rng: &mut R) -> Adjacency {
        // A full mesh is stored implicitly: at fleet scale (10k+ agents) an
        // explicit k×k matrix would cost O(k²) memory for no information.
        if matches!(*self, Topology::Full) {
            return Adjacency::Full { k };
        }
        let mut adj = vec![vec![false; k]; k];
        match *self {
            Topology::Full => unreachable!("handled above"),
            Topology::Ring => {
                if k > 1 {
                    for i in 0..k {
                        let next = (i + 1) % k;
                        adj[i][next] = true;
                        adj[next][i] = true;
                    }
                }
            }
            Topology::Random { p } => {
                for i in 0..k {
                    for j in (i + 1)..k {
                        if rng.gen_bool(p.clamp(0.0, 1.0)) {
                            adj[i][j] = true;
                            adj[j][i] = true;
                        }
                    }
                }
            }
        }
        Adjacency::from_matrix(adj)
    }
}

/// How an agent arriving into an elastic fleet wires itself into the
/// overlay — the join-time counterpart of [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinTopology {
    /// The newcomer announces itself to everyone ([`Adjacency::grow`]):
    /// cheap and keeps an implicit full mesh implicit, but densifies sparse
    /// topologies over time.
    FullMesh,
    /// The newcomer links to each existing agent with probability `p`
    /// ([`Adjacency::grow_er`]), preserving Erdős–Rényi density under
    /// churn.
    ErdosRenyi {
        /// Probability of linking to each existing agent.
        p: f64,
    },
}

impl JoinTopology {
    /// The join policy matching a construction-time [`Topology`]: random
    /// topologies keep their edge probability, everything else joins
    /// full-mesh (a ring has no canonical insertion point; the paper treats
    /// non-random graphs as static).
    pub fn matching(topology: &Topology) -> Self {
        match *topology {
            Topology::Random { p } => JoinTopology::ErdosRenyi { p },
            Topology::Full | Topology::Ring => JoinTopology::FullMesh,
        }
    }
}

/// A symmetric link graph over agents: either an implicit full mesh (O(1)
/// memory, the fleet-scale default) or an explicit adjacency matrix.
///
/// # Example
///
/// ```
/// use comdml_simnet::Topology;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let adj = Topology::Ring.build(5, &mut rng);
/// assert_eq!(adj.degree(0), 2);
/// assert!(adj.connected(0, 1) && !adj.connected(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Adjacency {
    /// Every distinct pair of the `k` agents is linked.
    Full {
        /// Number of agents.
        k: usize,
    },
    /// Explicit symmetric adjacency matrix.
    Matrix {
        /// `matrix[i][j]` is true when `i` and `j` share a link.
        matrix: Vec<Vec<bool>>,
    },
}

impl Adjacency {
    /// Builds an adjacency from an explicit symmetric matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, not symmetric, or has self-loops.
    pub fn from_matrix(matrix: Vec<Vec<bool>>) -> Self {
        let k = matrix.len();
        for (i, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), k, "adjacency matrix must be square");
            assert!(!row[i], "self-loops are not allowed");
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, matrix[j][i], "adjacency matrix must be symmetric");
            }
        }
        Self::Matrix { matrix }
    }

    /// An implicit full mesh over `k` agents.
    pub fn full(k: usize) -> Self {
        Self::Full { k }
    }

    /// Whether the full mesh is stored implicitly (O(1) memory).
    pub fn is_full_mesh(&self) -> bool {
        matches!(self, Adjacency::Full { .. })
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        match self {
            Adjacency::Full { k } => *k,
            Adjacency::Matrix { matrix } => matrix.len(),
        }
    }

    /// Whether the adjacency covers zero agents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether agents `i` and `j` share a link.
    pub fn connected(&self, i: usize, j: usize) -> bool {
        match self {
            Adjacency::Full { k } => i != j && i < *k && j < *k,
            Adjacency::Matrix { matrix } => i != j && matrix[i][j],
        }
    }

    /// The neighbours of agent `i`.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        self.neighbors_iter(i).collect()
    }

    /// The neighbours of agent `i`, without allocating — the hot-path
    /// variant of [`Adjacency::neighbors`] for per-event and per-pairing
    /// scans at fleet scale.
    pub fn neighbors_iter(&self, i: usize) -> NeighborsIter<'_> {
        NeighborsIter {
            inner: match self {
                Adjacency::Full { k } => NeighborsInner::Full { k: *k, skip: i, next: 0 },
                Adjacency::Matrix { matrix } => {
                    NeighborsInner::Matrix { row: matrix[i].iter().enumerate() }
                }
            },
        }
    }

    /// The degree of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn degree(&self, i: usize) -> usize {
        match self {
            Adjacency::Full { k } => {
                assert!(i < *k, "agent {i} out of range for {k} agents");
                *k - 1
            }
            Adjacency::Matrix { matrix } => matrix[i].iter().filter(|&&c| c).count(),
        }
    }

    /// Grows the graph by one agent that is connected to every existing
    /// agent — the elastic-fleet join policy: a newcomer announces itself on
    /// the overlay and can reach anyone. An implicit full mesh stays
    /// implicit (O(1)); a matrix gains a fully-true row/column.
    pub fn grow(&mut self) {
        match self {
            Adjacency::Full { k } => *k += 1,
            Adjacency::Matrix { matrix } => {
                for row in matrix.iter_mut() {
                    row.push(true);
                }
                let k = matrix.len() + 1;
                let mut row = vec![true; k];
                row[k - 1] = false; // no self-loop
                matrix.push(row);
            }
        }
    }

    /// Grows the graph by one agent with an Erdős–Rényi edge draw: each
    /// existing agent is linked with probability `p`. This is the join
    /// policy that preserves sparse-topology semantics under churn — a
    /// fleet built from [`Topology::Random`] keeps its expected density as
    /// newcomers arrive, instead of densifying toward a full mesh.
    ///
    /// An implicit full mesh is materialized into a matrix first (`p < 1`
    /// breaks the all-pairs invariant), which costs O(k²) once; callers
    /// that want to stay implicit should use [`Adjacency::grow`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn grow_er<R: Rng>(&mut self, p: f64, rng: &mut R) {
        assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1], got {p}");
        self.materialize();
        let Adjacency::Matrix { matrix } = self else { unreachable!("materialized above") };
        let k = matrix.len();
        let mut row = vec![false; k + 1];
        for (j, row_j) in matrix.iter_mut().enumerate() {
            let linked = rng.gen_bool(p);
            row_j.push(linked);
            row[j] = linked;
        }
        matrix.push(row);
    }

    /// Replaces agent `i`'s edges with a fresh Erdős–Rényi draw against
    /// every other agent — the recycled-slot counterpart of
    /// [`Adjacency::grow_er`]. Materializes an implicit full mesh.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `i` is out of range.
    #[allow(clippy::needless_range_loop)] // symmetric writes need both indices
    pub fn rewire_er<R: Rng>(&mut self, i: usize, p: f64, rng: &mut R) {
        assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1], got {p}");
        assert!(i < self.len(), "agent {i} out of range for {} agents", self.len());
        self.materialize();
        let Adjacency::Matrix { matrix } = self else { unreachable!("materialized above") };
        for j in 0..matrix.len() {
            let linked = j != i && rng.gen_bool(p);
            matrix[i][j] = linked;
            matrix[j][i] = linked;
        }
    }

    /// Connects agent `i` to every other agent — the recycled-slot
    /// counterpart of [`Adjacency::grow`]. An implicit full mesh is left
    /// untouched (slot reuse cannot change an all-pairs graph).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[allow(clippy::needless_range_loop)] // symmetric writes need both indices
    pub fn rewire_full(&mut self, i: usize) {
        assert!(i < self.len(), "agent {i} out of range for {} agents", self.len());
        if let Adjacency::Matrix { matrix } = self {
            for j in 0..matrix.len() {
                let linked = j != i;
                matrix[i][j] = linked;
                matrix[j][i] = linked;
            }
        }
    }

    /// Converts an implicit full mesh into an explicit matrix in place (a
    /// matrix stays as is), so edge-level edits become possible.
    fn materialize(&mut self) {
        if let Adjacency::Full { k } = *self {
            let matrix = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
            *self = Adjacency::Matrix { matrix };
        }
    }

    /// Fraction of possible edges present.
    pub fn density(&self) -> f64 {
        let k = self.len();
        if k < 2 {
            return 0.0;
        }
        if self.is_full_mesh() {
            return 1.0;
        }
        let edges: usize = (0..k).map(|i| self.degree(i)).sum::<usize>() / 2;
        edges as f64 / (k * (k - 1) / 2) as f64
    }

    /// Whether the graph is connected (single component). Isolated agents
    /// make this false; the paper lets such agents train independently.
    pub fn is_connected_graph(&self) -> bool {
        let k = self.len();
        if k == 0 || self.is_full_mesh() {
            return true;
        }
        let mut seen = vec![false; k];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for j in self.neighbors_iter(i) {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Allocation-free neighbour cursor (see [`Adjacency::neighbors_iter`]).
#[derive(Debug, Clone)]
pub struct NeighborsIter<'a> {
    inner: NeighborsInner<'a>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'a> {
    Full { k: usize, skip: usize, next: usize },
    Matrix { row: std::iter::Enumerate<std::slice::Iter<'a, bool>> },
}

impl Iterator for NeighborsIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            NeighborsInner::Full { k, skip, next } => {
                if *next == *skip {
                    *next += 1;
                }
                if *next >= *k {
                    return None;
                }
                let j = *next;
                *next += 1;
                Some(j)
            }
            NeighborsInner::Matrix { row } => {
                for (j, &connected) in row.by_ref() {
                    if connected {
                        return Some(j);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_mesh_connects_everyone() {
        let mut rng = StdRng::seed_from_u64(0);
        let adj = Topology::Full.build(6, &mut rng);
        assert_eq!(adj.degree(3), 5);
        assert!((adj.density() - 1.0).abs() < 1e-12);
        assert!(adj.is_connected_graph());
    }

    #[test]
    fn ring_has_degree_two() {
        let mut rng = StdRng::seed_from_u64(0);
        let adj = Topology::Ring.build(8, &mut rng);
        for i in 0..8 {
            assert_eq!(adj.degree(i), 2);
        }
        assert!(adj.is_connected_graph());
    }

    #[test]
    fn ring_of_two_is_a_single_edge() {
        let mut rng = StdRng::seed_from_u64(0);
        let adj = Topology::Ring.build(2, &mut rng);
        assert!(adj.connected(0, 1));
        assert_eq!(adj.degree(0), 1);
    }

    #[test]
    fn random_density_tracks_p() {
        let mut rng = StdRng::seed_from_u64(42);
        let adj = Topology::random(0.2).build(60, &mut rng);
        let d = adj.density();
        assert!((0.12..0.28).contains(&d), "density {d}");
    }

    #[test]
    fn random_p_zero_is_isolated() {
        let mut rng = StdRng::seed_from_u64(1);
        let adj = Topology::random(0.0).build(5, &mut rng);
        assert_eq!(adj.density(), 0.0);
        assert!(!adj.is_connected_graph());
    }

    #[test]
    fn no_self_loops_anywhere() {
        let mut rng = StdRng::seed_from_u64(9);
        for topo in [Topology::Full, Topology::Ring, Topology::random(0.5)] {
            let adj = topo.build(10, &mut rng);
            for i in 0..10 {
                assert!(!adj.connected(i, i));
            }
        }
    }

    #[test]
    fn grow_er_keeps_expected_density() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut adj = Topology::random(0.2).build(40, &mut rng);
        for _ in 0..40 {
            adj.grow_er(0.2, &mut rng);
        }
        assert_eq!(adj.len(), 80);
        let d = adj.density();
        assert!((0.12..0.28).contains(&d), "ER joins should preserve density, got {d}");
    }

    #[test]
    fn grow_er_materializes_a_full_mesh() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut adj = Adjacency::full(6);
        adj.grow_er(0.5, &mut rng);
        assert!(!adj.is_full_mesh());
        assert_eq!(adj.len(), 7);
        // Original all-pairs links survive materialization.
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(adj.connected(i, j), i != j);
            }
        }
        assert!(!adj.connected(6, 6));
    }

    #[test]
    fn grow_er_zero_p_isolates_the_newcomer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut adj = Topology::Ring.build(5, &mut rng);
        adj.grow_er(0.0, &mut rng);
        assert_eq!(adj.degree(5), 0);
        for i in 0..5 {
            assert_eq!(adj.degree(i), 2, "ring edges untouched");
        }
    }

    #[test]
    fn rewire_er_replaces_only_one_agents_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut adj = Topology::Ring.build(8, &mut rng);
        adj.rewire_er(3, 1.0, &mut rng);
        assert_eq!(adj.degree(3), 7, "p = 1 connects to everyone");
        assert!(!adj.connected(3, 3));
        // Edges not incident on 3 are untouched.
        assert!(adj.connected(0, 1) && adj.connected(5, 6));
    }

    #[test]
    fn rewire_full_on_matrix_connects_everyone() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut adj = Topology::random(0.0).build(5, &mut rng);
        adj.rewire_full(2);
        assert_eq!(adj.degree(2), 4);
        assert!(adj.connected(2, 0) && adj.connected(4, 2));
        assert!(!adj.connected(0, 1), "non-incident pairs stay unlinked");
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_validates_symmetry() {
        let _ = Adjacency::from_matrix(vec![vec![false, true], vec![false, false]]);
    }

    #[test]
    fn neighbors_listed_in_order() {
        let m = vec![vec![false, true, true], vec![true, false, false], vec![true, false, false]];
        let adj = Adjacency::from_matrix(m);
        assert_eq!(adj.neighbors(0), vec![1, 2]);
        assert_eq!(adj.neighbors(1), vec![0]);
    }
}
