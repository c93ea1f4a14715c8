package hypergraph

// GYO (Graham / Yu–Ozsoyoglu) ear removal: a query is α-acyclic iff
// repeatedly removing "ears" empties it. An atom A is an ear with
// witness B ≠ A if every variable of A shared with any *other* atom also
// occurs in B. The removal order yields a join tree with each ear's
// witness as its parent — exactly the structure Yannakakis consumes.

// JoinTree is a rooted tree over the atoms of an acyclic query.
type JoinTree struct {
	Query Query
	// Parent[i] is the parent atom index of atom i, or -1 for the root.
	Parent []int
	// Children[i] lists the child atom indices of atom i.
	Children [][]int
	// Root is the root atom index.
	Root int
}

// IsAcyclic runs GYO reduction. If the query is α-acyclic it returns
// (true, join tree); otherwise (false, nil).
func IsAcyclic(q Query) (bool, *JoinTree) {
	n := len(q.Atoms)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	removed := 0
	for removed < n-1 {
		earFound := false
		for i := 0; i < n && !earFound; i++ {
			if !alive[i] {
				continue
			}
			// Collect variables of i shared with another alive atom.
			shared := map[string]bool{}
			for _, v := range q.Atoms[i].Vars {
				for j := 0; j < n; j++ {
					if j != i && alive[j] && q.Atoms[j].HasVar(v) {
						shared[v] = true
						break
					}
				}
			}
			// Find a witness containing all shared vars.
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				ok := true
				for v := range shared {
					if !q.Atoms[j].HasVar(v) {
						ok = false
						break
					}
				}
				if ok {
					parent[i] = j
					alive[i] = false
					removed++
					earFound = true
					break
				}
			}
		}
		if !earFound {
			return false, nil
		}
	}
	root := -1
	for i := range alive {
		if alive[i] {
			root = i
			break
		}
	}
	root, parent = rerootMinHeight(n, parent, root)
	parent = hoistShallow(q, parent, root)
	root, parent = rerootMinHeight(n, parent, root)
	children := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return true, &JoinTree{Query: q, Parent: parent, Children: children, Root: root}
}

// hoistShallow flattens the join tree: node i with parent p can be
// re-parented to its grandparent g whenever every variable i shares
// with p also occurs in g. The connector vars(i) ∩ vars(p) are exactly
// the variables i shares with anything outside its subtree (by the
// running intersection property), so the move preserves join-tree
// validity. Iterating to fixpoint turns, e.g., the chain GYO produces
// for a star query into the natural depth-1 star.
func hoistShallow(q Query, parent []int, root int) []int {
	n := len(parent)
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			p := parent[i]
			if p < 0 || parent[p] < 0 {
				continue
			}
			g := parent[p]
			ok := true
			for _, v := range q.Atoms[i].Vars {
				if q.Atoms[p].HasVar(v) && !q.Atoms[g].HasVar(v) {
					ok = false
					break
				}
			}
			if ok {
				parent[i] = g
				changed = true
			}
		}
	}
	_ = root
	return parent
}

// rerootMinHeight re-roots the tree at a center vertex, minimizing its
// height. A join tree remains a join tree under re-rooting (the running
// intersection property is undirected), and a shallower tree means fewer
// rounds for the level-parallel GYM phases.
func rerootMinHeight(n int, parent []int, root int) (newRoot int, newParent []int) {
	if n == 1 {
		return root, parent
	}
	adj := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	height := func(r int) int {
		depth := make([]int, n)
		for i := range depth {
			depth[i] = -1
		}
		depth[r] = 0
		queue := []int{r}
		h := 0
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if depth[cur] > h {
				h = depth[cur]
			}
			for _, nb := range adj[cur] {
				if depth[nb] < 0 {
					depth[nb] = depth[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		return h
	}
	best, bestH := root, height(root)
	for r := 0; r < n; r++ {
		if h := height(r); h < bestH {
			best, bestH = r, h
		}
	}
	// Rebuild parent pointers from the new root.
	newParent = make([]int, n)
	for i := range newParent {
		newParent[i] = -2
	}
	newParent[best] = -1
	queue := []int{best}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if newParent[nb] == -2 {
				newParent[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return best, newParent
}

// Levels returns atom indices grouped by depth, root first. Used by the
// optimized GYM to run all semijoins of one level in a single round.
func (jt *JoinTree) Levels() [][]int {
	var levels [][]int
	var walk func(i, d int)
	walk = func(i, d int) {
		for len(levels) <= d {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], i)
		for _, c := range jt.Children[i] {
			walk(c, d+1)
		}
	}
	walk(jt.Root, 0)
	return levels
}

// PostOrder returns atom indices in post-order (children before
// parents); the upward semijoin phase visits atoms in this order.
func (jt *JoinTree) PostOrder() []int {
	var out []int
	var walk func(i int)
	walk = func(i int) {
		for _, c := range jt.Children[i] {
			walk(c)
		}
		out = append(out, i)
	}
	walk(jt.Root)
	return out
}

// PreOrder returns atom indices in pre-order (parents before children).
func (jt *JoinTree) PreOrder() []int {
	var out []int
	var walk func(i int)
	walk = func(i int) {
		out = append(out, i)
		for _, c := range jt.Children[i] {
			walk(c)
		}
	}
	walk(jt.Root)
	return out
}
