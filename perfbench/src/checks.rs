//! Output checks computed apart from the program.
//!
//! None of these uses Rete or any other matcher: the conflict-set check
//! enumerates instantiations by backtracking over working memory with
//! `ops5::match_and_bind` (the language's reference test semantics),
//! and the program checks recompute each answer with a textbook
//! algorithm (BFS, a Hanoi replay on the benchmark's own pegs, Warshall).
//! Every checker returns `Err` with a short reason on a mismatch; the
//! tests at the bottom show that each rejects a corrupted result.

use std::collections::{HashMap, HashSet, VecDeque};

use ops5::{match_and_bind, Instantiation, Production, Program, SymbolId, Value, Wme, WmeId};
use ops5::{MatchDelta, WorkingMemory};

/// Every instantiation satisfied by `wm`: for each production, each
/// choice of elements for its positive condition elements that passes
/// every test, with no element matching a negated condition element
/// under the bindings made before it.
pub fn enumerate_instantiations(program: &Program, wm: &WorkingMemory) -> HashSet<Instantiation> {
    let mut by_class: HashMap<SymbolId, Vec<(WmeId, &Wme)>> = HashMap::new();
    for (id, wme, _) in wm.iter() {
        by_class.entry(wme.class()).or_default().push((id, wme));
    }
    let mut out = HashSet::new();
    for production in &program.productions {
        let vars = production.variables.len();
        let mut search = Search {
            production,
            by_class: &by_class,
            vars,
            frames: vec![None; vars * (production.ces.len() + 1)],
            chosen: Vec::new(),
            out: &mut out,
        };
        search.extend(0);
    }
    out
}

struct Search<'a> {
    production: &'a Production,
    by_class: &'a HashMap<SymbolId, Vec<(WmeId, &'a Wme)>>,
    vars: usize,
    /// One binding frame per condition element depth, flattened.
    frames: Vec<Option<Value>>,
    chosen: Vec<WmeId>,
    out: &'a mut HashSet<Instantiation>,
}

impl Search<'_> {
    fn extend(&mut self, depth: usize) {
        let (production, by_class) = (self.production, self.by_class);
        let ces = &production.ces;
        if depth == ces.len() {
            self.out
                .insert(Instantiation::new(production.id, self.chosen.clone()));
            return;
        }
        let ce = &ces[depth];
        let candidates: &[(WmeId, &Wme)] = by_class.get(&ce.class).map_or(&[], Vec::as_slice);
        let (here, next) = (depth * self.vars, (depth + 1) * self.vars);
        if ce.negated {
            let blocked = candidates.iter().any(|(_, wme)| {
                self.frames.copy_within(here..next, next);
                match_and_bind(ce, wme, &mut self.frames[next..next + self.vars])
            });
            if !blocked {
                self.frames.copy_within(here..next, next);
                self.extend(depth + 1);
            }
            return;
        }
        for &(id, wme) in candidates {
            self.frames.copy_within(here..next, next);
            if match_and_bind(ce, wme, &mut self.frames[next..next + self.vars]) {
                self.chosen.push(id);
                self.extend(depth + 1);
                self.chosen.pop();
            }
        }
    }
}

/// Checks that `actual` holds exactly the instantiations in `expected`.
pub fn same_instantiations<'a>(
    expected: &HashSet<Instantiation>,
    actual: impl IntoIterator<Item = &'a Instantiation>,
) -> Result<(), String> {
    let actual: HashSet<&Instantiation> = actual.into_iter().collect();
    let missing = expected.iter().filter(|i| !actual.contains(i)).count();
    let extra = actual.iter().filter(|i| !expected.contains(*i)).count();
    if missing == 0 && extra == 0 {
        Ok(())
    } else {
        Err(format!(
            "conflict set differs from enumeration: {missing} missing, {extra} extra \
             (enumeration has {})",
            expected.len()
        ))
    }
}

/// Applies a net delta to a conflict-set accumulator.
pub fn apply_delta(set: &mut HashSet<Instantiation>, delta: &MatchDelta) {
    for inst in &delta.removed {
        set.remove(inst);
    }
    for inst in &delta.added {
        set.insert(inst.clone());
    }
}

/// Single-source shortest path lengths over directed `edges` by BFS.
pub fn bfs_distances(edges: &[(i64, i64)], start: i64) -> HashMap<i64, i64> {
    let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut dist = HashMap::from([(start, 0)]);
    let mut queue = VecDeque::from([start]);
    while let Some(c) = queue.pop_front() {
        let d = dist[&c];
        for &n in adj.get(&c).map_or(&[][..], Vec::as_slice) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                e.insert(d + 1);
                queue.push_back(n);
            }
        }
    }
    dist
}

/// Checks `(cell, distance)` facts against BFS distances: one fact per
/// reachable cell, none for unreachable cells.
pub fn check_distances(expected: &HashMap<i64, i64>, facts: &[(i64, i64)]) -> Result<(), String> {
    let mut seen = HashSet::new();
    for &(cell, d) in facts {
        if !seen.insert(cell) {
            return Err(format!("cell {cell} has two distance facts"));
        }
        match expected.get(&cell) {
            Some(&e) if e == d => {}
            Some(&e) => return Err(format!("cell {cell}: distance {d}, BFS says {e}")),
            None => return Err(format!("cell {cell} is unreachable but has distance {d}")),
        }
    }
    if seen.len() != expected.len() {
        return Err(format!(
            "{} cells have distances, BFS reaches {}",
            seen.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// One Hanoi move as the program recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Move {
    /// Sequence number.
    pub seq: i64,
    /// Disk moved (1 = smallest).
    pub disk: i64,
    /// Source peg.
    pub from: String,
    /// Destination peg.
    pub to: String,
}

/// Replays `moves` (in sequence order) on pegs `a`, `b`, `c` with all
/// `disks` on `a`: every move must take the top disk of its source onto
/// an empty peg or a larger disk, there must be exactly 2ⁿ−1 of them
/// numbered 0.., and all disks must end on `c`.
pub fn check_hanoi(disks: i64, moves: &[Move]) -> Result<(), String> {
    let want = (1i64 << disks) - 1;
    if moves.len() as i64 != want {
        return Err(format!("{} moves, 2^{disks}-1 = {want}", moves.len()));
    }
    let mut sorted: Vec<&Move> = moves.iter().collect();
    sorted.sort_by_key(|m| m.seq);
    let mut pegs: HashMap<&str, Vec<i64>> = HashMap::from([
        ("a", (1..=disks).rev().collect()),
        ("b", Vec::new()),
        ("c", Vec::new()),
    ]);
    for (i, m) in sorted.iter().enumerate() {
        if m.seq != i as i64 {
            return Err(format!("move numbers skip at {i}: found {}", m.seq));
        }
        let top = pegs.get(m.from.as_str()).and_then(|p| p.last().copied());
        if top != Some(m.disk) {
            return Err(format!(
                "move {i}: disk {} is not on top of {}",
                m.disk, m.from
            ));
        }
        match pegs.get(m.to.as_str()) {
            None => return Err(format!("move {i}: no peg {}", m.to)),
            Some(p) if p.last().is_some_and(|&t| t < m.disk) => {
                return Err(format!(
                    "move {i}: disk {} onto smaller disk on {}",
                    m.disk, m.to
                ))
            }
            Some(_) => {}
        }
        pegs.get_mut(m.from.as_str()).expect("checked").pop();
        pegs.get_mut(m.to.as_str()).expect("checked").push(m.disk);
    }
    if pegs["c"].len() as i64 != disks {
        return Err("not every disk ends on peg c".into());
    }
    Ok(())
}

/// The transitive closure of directed `edges` on nodes `0..nodes`
/// (pairs joined by a path of one or more edges), by Warshall.
pub fn warshall(nodes: i64, edges: &[(i64, i64)]) -> HashSet<(i64, i64)> {
    let n = nodes as usize;
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a as usize][b as usize] = true;
    }
    for k in 0..n {
        let via = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            for (cell, &v) in row.iter_mut().zip(&via) {
                *cell |= v;
            }
        }
    }
    let mut out = HashSet::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.insert((i as i64, j as i64));
            }
        }
    }
    out
}

/// Checks derived `(from, to)` facts against the Warshall closure.
pub fn check_closure(expected: &HashSet<(i64, i64)>, facts: &[(i64, i64)]) -> Result<(), String> {
    let got: HashSet<(i64, i64)> = facts.iter().copied().collect();
    if got.len() != facts.len() {
        return Err("a reach fact is derived twice".into());
    }
    let missing = expected.difference(&got).count();
    let extra = got.difference(expected).count();
    if missing == 0 && extra == 0 {
        Ok(())
    } else {
        Err(format!("closure: {missing} pairs missing, {extra} extra"))
    }
}

/// Checks two byte images for equality, naming the first difference.
pub fn same_bytes(what: &str, expected: &[u8], actual: &[u8]) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    Err(format!(
        "{what}: {} bytes against {}, first difference at byte {at}",
        actual.len(),
        expected.len()
    ))
}

/// Checks an `/explain` answer's time tags against the fired
/// instantiation's.
pub fn same_time_tags(rule: &str, expected: &[u64], answered: &[u64]) -> Result<(), String> {
    if expected == answered {
        Ok(())
    } else {
        Err(format!(
            "/explain?rule={rule} names time tags {answered:?}, the firing used {expected:?}"
        ))
    }
}

/// Integer attribute `attr` of `wme`, if present.
pub fn int_attr(wme: &Wme, attr: Option<SymbolId>) -> Option<i64> {
    match wme.get(attr?)? {
        Value::Int(v) => Some(v),
        Value::Sym(_) => None,
    }
}

/// Elements of class `class` in `wm` (none if the class was never named).
pub fn of_class<'a>(
    program: &Program,
    wm: &'a WorkingMemory,
    class: &str,
) -> impl Iterator<Item = &'a Wme> + 'a {
    let class = program.symbols.lookup(class);
    wm.iter()
        .filter(move |(_, w, _)| Some(w.class()) == class)
        .map(|(_, w, _)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Change, Matcher};
    use rete::ReteMatcher;
    use workloads::{GeneratedWorkload, Preset};

    use crate::streams::SteadyStream;

    /// A small preset pushed through sequential Rete: its conflict set
    /// passes the enumeration check, and fails it with one
    /// instantiation dropped or one invented.
    #[test]
    fn conflict_set_check_rejects_a_dropped_instantiation() {
        let w = GeneratedWorkload::generate(Preset::Daa.spec_small()).unwrap();
        let program = w.program.clone();
        let mut stream = SteadyStream::new(w, 5);
        let mut rete = ReteMatcher::compile(&program).unwrap();
        let mut set = HashSet::new();
        apply_delta(
            &mut set,
            &rete.process(
                &stream.wm,
                &stream
                    .initial()
                    .into_iter()
                    .map(Change::Add)
                    .collect::<Vec<_>>(),
            ),
        );
        for _ in 0..200 {
            let batch = stream.next_batch();
            apply_delta(&mut set, &rete.process(&stream.wm, &batch));
            stream.commit(&batch);
        }
        let expected = enumerate_instantiations(&program, &stream.wm);
        assert!(
            expected.len() > 10,
            "the check needs a populated conflict set"
        );
        assert_eq!(same_instantiations(&expected, &set), Ok(()));

        let mut dropped = set.clone();
        let victim = dropped.iter().next().unwrap().clone();
        dropped.remove(&victim);
        assert!(same_instantiations(&expected, &dropped).is_err());

        let mut invented = set.clone();
        invented.insert(Instantiation::new(
            victim.production,
            vec![WmeId::from_index(0); victim.wmes.len()],
        ));
        assert!(same_instantiations(&expected, &invented).is_err());
    }

    #[test]
    fn negated_elements_block_instantiations() {
        let mut program =
            ops5::parse_program("(p r (a ^x <v>) - (b ^x <v>) (c ^y <v>) --> (halt))").unwrap();
        let mut wm = WorkingMemory::new();
        for src in ["(a ^x 1)", "(a ^x 2)", "(b ^x 1)", "(c ^y 1)", "(c ^y 2)"] {
            wm.add(ops5::parse_wme(src, &mut program.symbols).unwrap());
        }
        let found = enumerate_instantiations(&program, &wm);
        let want = Instantiation::new(
            program.productions[0].id,
            vec![WmeId::from_index(1), WmeId::from_index(4)],
        );
        assert_eq!(found, HashSet::from([want]));
    }

    #[test]
    fn distance_check_rejects_an_off_by_one() {
        let edges = crate::streams::grid_edges(6, 4);
        let bfs = bfs_distances(&edges, 0);
        let mut facts: Vec<(i64, i64)> = bfs.iter().map(|(&c, &d)| (c, d)).collect();
        assert_eq!(check_distances(&bfs, &facts), Ok(()));
        let far = facts.iter().position(|&(_, d)| d > 0).unwrap();
        facts[far].1 += 1;
        assert!(check_distances(&bfs, &facts).is_err());
        facts[far].1 -= 1;
        facts.pop();
        assert!(check_distances(&bfs, &facts).is_err());
    }

    fn solve(n: i64, from: &str, to: &str, via: &str, out: &mut Vec<Move>) {
        if n == 0 {
            return;
        }
        solve(n - 1, from, via, to, out);
        out.push(Move {
            seq: out.len() as i64,
            disk: n,
            from: from.into(),
            to: to.into(),
        });
        solve(n - 1, via, to, from, out);
    }

    #[test]
    fn hanoi_check_rejects_an_illegal_move() {
        let mut moves = Vec::new();
        solve(5, "a", "c", "b", &mut moves);
        assert_eq!(check_hanoi(5, &moves), Ok(()));
        let mut illegal = moves.clone();
        // Swapping two moves puts a disk on a smaller one or moves a
        // covered disk.
        let (d0, d1) = (illegal[0].clone(), illegal[1].clone());
        illegal[0] = Move { seq: 0, ..d1 };
        illegal[1] = Move { seq: 1, ..d0 };
        assert!(check_hanoi(5, &illegal).is_err());
        assert!(check_hanoi(5, &moves[..30]).is_err());
    }

    #[test]
    fn closure_check_rejects_a_missing_pair() {
        let edges = crate::streams::closure_edges(12, 20, 2);
        let closure = warshall(12, &edges);
        let mut facts: Vec<(i64, i64)> = closure.iter().copied().collect();
        assert_eq!(check_closure(&closure, &facts), Ok(()));
        facts.pop();
        assert!(check_closure(&closure, &facts).is_err());
        assert!(warshall(3, &[(0, 1), (1, 2)]).contains(&(0, 2)));
    }

    #[test]
    fn byte_check_rejects_one_flipped_byte() {
        let mut program = ops5::parse_program("(p r (a ^x 1) --> (halt))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.add(ops5::parse_wme("(a ^x 1)", &mut program.symbols).unwrap());
        let bytes = wm.snapshot_bytes();
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert_eq!(same_bytes("wm", &bytes, &bytes), Ok(()));
        assert!(same_bytes("wm", &bytes, &flipped).is_err());
    }

    #[test]
    fn time_tag_check_rejects_a_wrong_tag() {
        assert_eq!(same_time_tags("r", &[3, 1, 2], &[3, 1, 2]), Ok(()));
        assert!(same_time_tags("r", &[3, 1, 2], &[3, 1, 4]).is_err());
    }
}
