//! Output checks. Every workload compares what the code under test
//! produced with a reference computed another way (the scalar graph on
//! the tree-walking interpreter, a solo sequential run, or the dynamic
//! scratch-recompile oracle), bit for bit.

use macross_streamir::graph::{Graph, Node};
use macross_streamir::types::Value;

/// The rows of `per_node` (indexed by node id) that belong to sinks, in
/// node order.
pub fn sink_rows(graph: &Graph, per_node: &[Vec<Value>]) -> Vec<Vec<Value>> {
    graph
        .nodes()
        .filter(|(_, n)| matches!(n, Node::Sink))
        .map(|(id, _)| per_node[id.0 as usize].clone())
        .collect()
}

/// Sink values per steady iteration of `reps` (summed over sinks).
pub fn outputs_per_iter(graph: &Graph, reps: &[u64]) -> u64 {
    graph
        .nodes()
        .filter(|(_, n)| matches!(n, Node::Sink))
        .map(|(id, _)| reps[id.0 as usize])
        .sum()
}

/// Check every value of `got` against the same position of `want`, sink
/// by sink. `want` must be at least as long as `got` on every sink, and
/// `got` must not be empty. Returns the number of values compared.
pub fn check_prefix(want: &[Vec<Value>], got: &[Vec<Value>]) -> Result<usize, String> {
    if want.len() != got.len() {
        return Err(format!("{} sinks, reference has {}", got.len(), want.len()));
    }
    let mut compared = 0;
    for (sink, (w, g)) in want.iter().zip(got).enumerate() {
        if g.len() > w.len() {
            return Err(format!(
                "sink {sink}: {} values but the reference covers only {}",
                g.len(),
                w.len()
            ));
        }
        if let Some(i) = w.iter().zip(g).position(|(a, b)| !a.bits_eq(*b)) {
            return Err(format!(
                "sink {sink}: value {i} is {:?}, reference {:?}",
                g[i], w[i]
            ));
        }
        compared += g.len();
    }
    if compared == 0 {
        return Err("no output to check".into());
    }
    Ok(compared)
}

/// [`check_prefix`] that also requires equal lengths.
pub fn check_exact(want: &[Vec<Value>], got: &[Vec<Value>]) -> Result<usize, String> {
    for (sink, (w, g)) in want.iter().zip(got).enumerate() {
        if w.len() != g.len() {
            return Err(format!(
                "sink {sink}: {} values, reference {}",
                g.len(),
                w.len()
            ));
        }
    }
    check_prefix(want, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[i32]) -> Vec<Vec<Value>> {
        vec![v.iter().map(|&x| Value::I32(x)).collect()]
    }

    #[test]
    fn prefix_of_reference_passes() {
        assert_eq!(check_prefix(&rows(&[1, 2, 3]), &rows(&[1, 2])), Ok(2));
        assert_eq!(check_exact(&rows(&[1, 2]), &rows(&[1, 2])), Ok(2));
    }

    #[test]
    fn corrupted_value_fails() {
        let want = rows(&[1, 2, 3, 4]);
        let mut got = rows(&[1, 2, 3]);
        got[0][2] = Value::I32(99);
        assert!(check_prefix(&want, &got).is_err());
    }

    #[test]
    fn float_bits_are_compared_exactly() {
        let want = vec![vec![Value::F32(0.0)]];
        let got = vec![vec![Value::F32(-0.0)]];
        assert!(check_prefix(&want, &got).is_err());
        let nan = vec![vec![Value::F32(f32::NAN)]];
        assert!(check_prefix(&nan, &nan.clone()).is_ok());
    }

    #[test]
    fn shape_errors_fail() {
        assert!(check_prefix(&rows(&[1]), &rows(&[1, 2])).is_err());
        assert!(check_prefix(&rows(&[1]), &rows(&[])).is_err());
        assert!(check_prefix(&rows(&[1]), &[]).is_err());
        assert!(check_exact(&rows(&[1, 2]), &rows(&[1])).is_err());
    }
}
