//! Maximal clique enumeration (Bron–Kerbosch with pivoting).

use crate::Graph;
use tricluster_bitset::BitSet;

/// Enumerates all maximal cliques of `g`.
///
/// Uses Bron–Kerbosch with pivot selection (Tomita et al.) and a degeneracy
/// ordering at the outermost level, which gives `O(d · n · 3^{d/3})` time for
/// a graph of degeneracy `d`. Every returned clique is sorted ascending;
/// isolated vertices are returned as singleton cliques.
pub fn maximal_cliques(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.vertex_count();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let (order, _) = g.degeneracy_ordering();
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }

    let mut r: Vec<usize> = Vec::new();
    for &v in &order {
        // P = later neighbors, X = earlier neighbors (w.r.t. the ordering)
        let mut p = BitSet::new(n);
        let mut x = BitSet::new(n);
        for u in g.neighbors(v).iter() {
            if position[u] > position[v] {
                p.insert(u);
            } else {
                x.insert(u);
            }
        }
        r.push(v);
        bron_kerbosch_pivot(g, &mut r, p, x, &mut out);
        r.pop();
    }
    for clique in &mut out {
        clique.sort_unstable();
    }
    out.sort();
    out
}

fn bron_kerbosch_pivot(
    g: &Graph,
    r: &mut Vec<usize>,
    p: BitSet,
    mut x: BitSet,
    out: &mut Vec<Vec<usize>>,
) {
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return;
    }
    // pivot u from P ∪ X maximizing |P ∩ N(u)|
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| p.intersection_count(g.neighbors(u)))
        .expect("P ∪ X nonempty");
    let mut candidates = p.clone();
    candidates.subtract_with(g.neighbors(pivot));

    let mut p = p;
    for v in candidates.iter() {
        let nv = g.neighbors(v);
        let new_p = p.intersection(nv);
        let new_x = x.intersection(nv);
        r.push(v);
        bron_kerbosch_pivot(g, r, new_p, new_x, out);
        r.pop();
        p.remove(v);
        x.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        let g = Graph::new(0);
        assert!(maximal_cliques(&g).is_empty());
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = Graph::new(3);
        assert_eq!(maximal_cliques(&g), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn single_edge() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert_eq!(maximal_cliques(&g), vec![vec![0, 1]]);
    }

    #[test]
    fn triangle_plus_pendant() {
        // triangle 0-1-2 and pendant 3 attached to 2
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(maximal_cliques(&g), vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn complete_graph_single_clique() {
        let mut g = Graph::new(6);
        for u in 0..6 {
            for v in (u + 1)..6 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(maximal_cliques(&g), vec![(0..6).collect::<Vec<_>>()]);
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        assert_eq!(maximal_cliques(&g), vec![vec![0, 1, 2], vec![2, 3, 4]]);
    }

    #[test]
    fn cycle_of_four_has_four_edges_as_cliques() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(
            maximal_cliques(&g),
            vec![vec![0, 1], vec![0, 3], vec![1, 2], vec![2, 3]]
        );
    }

    /// Brute-force reference: check every subset for maximal-clique-ness.
    fn brute_force(g: &Graph) -> Vec<Vec<usize>> {
        let n = g.vertex_count();
        let is_clique = |s: &[usize]| {
            s.iter()
                .enumerate()
                .all(|(i, &u)| s[i + 1..].iter().all(|&v| g.has_edge(u, v)))
        };
        let mut cliques = Vec::new();
        for mask in 1u32..(1 << n) {
            let members: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if !is_clique(&members) {
                continue;
            }
            let maximal = (0..n)
                .filter(|i| !members.contains(i))
                .all(|v| !members.iter().all(|&u| g.has_edge(u, v)));
            if maximal {
                cliques.push(members);
            }
        }
        cliques.sort();
        cliques
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        // deterministic pseudo-random graphs via a simple LCG
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let n = 3 + (trial % 8); // up to 10 vertices
            let mut g = Graph::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if next() % 100 < 45 {
                        g.add_edge(u, v);
                    }
                }
            }
            assert_eq!(
                maximal_cliques(&g),
                brute_force(&g),
                "mismatch on trial {trial} (n={n})"
            );
        }
    }
}
